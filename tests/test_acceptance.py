"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The end-to-end CT criterion trains the full model and is the slow one (several
minutes); everything else finishes in seconds.
"""

import textwrap
import time

import numpy as np
import pytest
import scipy.sparse as sp

import mbirnet as mn
from mbirnet.cli import main
from mbirnet.fileio import write_operator, write_pgm, write_vector_csv
from mbirnet.training import dcnn_value_and_grad, scnn_value_and_grad


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared problems
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deblur():
    n = 32
    truth = mn.shepp_logan(n)
    op = mn.build_blur(mn.binomial_kernel(0.3), (n, n))
    noise = np.random.default_rng(7).standard_normal(n * n)
    y = op.forward(truth.data) + 0.01 * noise
    datafit = mn.QuadraticDataFit(op, np.ones(n * n), y)
    gamma = mn.select_gamma(mn.diag_majorizer(datafit), 50.0)
    bank = mn.make_tf_filterbank(4)
    return {
        "n": n,
        "datafit": datafit,
        "gamma": gamma,
        "bank": bank,
        "feasible": mn.FeasibleSet.box(0.0, 1.0),
        "x0": mn.ImageVector(np.zeros(n * n), (n, n)),
    }


CT_CHI_GRID = (3.0, 10.0, 30.0, 100.0, 300.0)
CT_TUNE_STAGES = 10   # cheaper trainings for the chi grid search
CT_STAGES = 21        # depth of the final trained model
CT_N = 64
CT_VIEWS = 23  # of the 180-view grid, mirroring a 12.5% sparse-view fraction


@pytest.fixture(scope="module")
def ct_pipeline(tmp_path_factory):
    """Criterion-10 pipeline: simulate, tune chi over the grid, train, test.

    chi is tuned by mean training-set reconstruction RMSE with shallower
    trainings, then the final model is trained at full depth at chi*.  Returns
    the trained model plus on-disk artifacts reused by criterion 11.
    """
    t_start = time.perf_counter()
    root = tmp_path_factory.mktemp("ct")
    geom = mn.CtGeometry(CT_N, CT_VIEWS)
    op = mn.build_radon(geom)
    rng = np.random.default_rng(42)
    truths = [mn.random_ellipse_phantom(CT_N, rng) for _ in range(10)]
    # held out: the canonical head phantom plus one more randomized phantom
    held_out = [mn.shepp_logan(CT_N), mn.random_ellipse_phantom(CT_N, rng)]

    train_fits = []
    for i, truth in enumerate(truths):
        y, w = mn.simulate_ct(truth, op, incident=1e5, sigma2=25.0, seed=100 + i)
        train_fits.append(mn.QuadraticDataFit(op, w, y))
    test_fits = []
    for i, truth in enumerate(held_out):
        y, w = mn.simulate_ct(truth, op, incident=1e5, sigma2=25.0, seed=900 + i)
        test_fits.append(mn.QuadraticDataFit(op, w, y))

    arch = mn.RefinerArch("scnn", n_filters=25, filter_size=25)
    feasible = mn.FeasibleSet.nonneg()

    def reconstruct(fit, refiners, chi, n_iter):
        cfg = mn.MomentumNetConfig(n_iter=n_iter, rho=0.5, chi=chi, record_fixed_point=False)
        x0 = mn.backprojection_init(fit, (CT_N, CT_N))
        return mn.run_momentum_net(cfg, refiners, fit, feasible, x0)

    def train(chi, stages, epochs):
        samples = [mn.TrainingSample(t, f) for t, f in zip(truths, train_fits)]
        net_cfg = mn.MomentumNetConfig(n_iter=stages, rho=0.5, chi=chi,
                                       record_fixed_point=False)
        train_cfg = mn.TrainConfig(batch_size=10, epochs=epochs, lr_filters=3e-3,
                                   lr_thresholds=1e-1, lr_decay=0.1, seed=0)
        return mn.greedy_train(samples, arch, net_cfg, train_cfg, feasible)

    tuning = {}
    for chi in CT_CHI_GRID:
        refiners, _ = train(chi, CT_TUNE_STAGES, 40)
        tuning[chi] = float(np.mean([
            mn.rmse(reconstruct(f, refiners, chi, CT_TUNE_STAGES).final_image(), t)
            for t, f in zip(truths, train_fits)]))
    chi_star = min(tuning, key=tuning.get)

    refiners, histories = train(chi_star, CT_STAGES, 60)
    stage_losses = [h[-1] for h in histories]

    # artifacts for the diagnostics command
    base = root / "trainset"
    base.mkdir()
    write_operator(base / "A.txt", op)
    entries = []
    for i, (truth, fit) in enumerate(zip(truths, train_fits)):
        write_pgm(base / f"t{i}.pgm", truth)
        write_vector_csv(base / f"y{i}.csv", fit.measurements)
        write_vector_csv(base / f"w{i}.csv", fit.weights)
        entries.append(f"  - {{truth: t{i}.pgm, measurements: y{i}.csv, "
                       f"weights: w{i}.csv, operator: A.txt}}")
    manifest = textwrap.dedent(f"""\
        schema: 1
        seed: 0
        chi: {chi_star}
        solver:
          kind: momentum
          rho: 0.5
          n_iter: {CT_STAGES}
          feasible: nonneg
        train:
          arch: {{type: scnn, n_filters: 25, filter_size: 25}}
          n_iter: {CT_STAGES}
        samples:
        """) + "\n".join(entries) + "\n"
    (base / "manifest.yaml").write_text(manifest)
    refdir = root / "refiners"
    refdir.mkdir()
    for i, refiner in enumerate(refiners):
        mn.save_refiner(refdir / f"refiner_{i:03d}.rfn", refiner)

    return {
        "root": root,
        "manifest": base / "manifest.yaml",
        "refdir": refdir,
        "refiners": refiners,
        "chi_star": chi_star,
        "stage_losses": stage_losses,
        "held_out": held_out,
        "test_fits": test_fits,
        "reconstruct": reconstruct,
        "feasible": feasible,
        "elapsed": time.perf_counter() - t_start,
    }


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_majorizer_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    instances = []
    for i in range(44):  # random sparse nonnegative systems, eig-checkable sizes
        m_dim = int(rng.integers(20, 120))
        n_dim = int(rng.integers(16, 256))
        mat = sp.random(m_dim, n_dim, density=0.15,
                        random_state=int(rng.integers(0, 2**31)), format="csr")
        mat.data = np.abs(mat.data)
        instances.append(mn.SparseMatrixOperator(mat))
    for img_n in (8, 12, 16, 32, 48, 64):  # Radon instances up to 64x64 pixels
        instances.append(mn.build_radon(mn.CtGeometry(img_n, max(4, img_n // 4))))
    assert len(instances) == 50

    pairs_per_instance = 20  # 50 instances x 20 pairs = 1000 random pairs
    for k, op in enumerate(instances):
        w = rng.uniform(0.0, 3.0, op.out_dim)
        f = mn.QuadraticDataFit(op, w, rng.standard_normal(op.out_dim))
        m = mn.diag_majorizer(f)
        report = mn.verify_majorization(f, m, trials=pairs_per_instance, seed=k)
        assert report.violations == 0, f"instance {k}: {report}"
        if op.in_dim <= 256:
            dense = op.matrix.toarray()
            gap = np.diag(m.diag) - dense.T @ (w[:, None] * dense)
            assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.max(m.diag)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _report(1, f"majorizer PSD + zero bound violations over 1000 pairs ({elapsed:.1f}s)")


def test_criterion_02_prox_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)

    # prox under a diagonal metric vs. per-coordinate exhaustive grid
    grid_1d = np.arange(-2.5, 2.5, 1e-4)
    for _ in range(100):
        z = rng.uniform(-2, 2)
        md = rng.uniform(0.2, 4.0)
        beta = rng.uniform(0.0, 2.0)
        got = float(mn.prox_l1_metric(np.array([z]),
                                      mn.DiagonalMajorizer(np.array([md])), beta)[0])
        vals = 0.5 * md * (grid_1d - z) ** 2 + beta * np.abs(grid_1d)
        assert abs(got - grid_1d[np.argmin(vals)]) <= 1e-4 + 1e-12

    # accelerated projected gradient vs. coarse-to-fine exhaustive 2-D grid
    # (refinement is sound because the objective is convex)
    def grid_min_2d(value, lo, hi, final_res=1e-4):
        lo_box = np.array([lo, lo], dtype=float)
        hi_box = np.array([hi, hi], dtype=float)
        res = (hi - lo) / 100.0
        best = None
        while True:
            xs = np.arange(lo_box[0], hi_box[0] + res / 2, res)
            ys = np.arange(lo_box[1], hi_box[1] + res / 2, res)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
            best = pts[np.argmin(value(pts))]
            if res <= final_res:
                return best
            lo_box = np.maximum(best - 2 * res, lo)
            hi_box = np.minimum(best + 2 * res, hi)
            res = max(res / 50.0, final_res)

    for _ in range(100):
        a = rng.uniform(-1, 1, (3, 2))
        w = rng.uniform(0.1, 2.0, 3)
        y = rng.uniform(-1, 1, 3)
        gamma = rng.uniform(0.2, 2.0)
        z = rng.uniform(-1, 1, 2)
        obj = mn.MbirObjective(mn.QuadraticDataFit(mn.SparseMatrixOperator(a), w, y),
                               gamma, mn.FeasibleSet.box(0.0, 1.0))

        def value(pts):
            r = pts @ a.T - y
            return (0.5 * np.sum(w * r * r, axis=1)
                    + 0.5 * gamma * np.sum((pts - z) ** 2, axis=1))

        x_apg = np.asarray(mn.apg_solve(obj, z, np.full(2, 0.5), 500))
        x_grid = grid_min_2d(value, 0.0, 1.0)
        assert np.max(np.abs(x_apg - x_grid)) <= 1e-4 + 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    _report(2, f"prox/apg match brute-force grids on 100 instances each ({elapsed:.1f}s)")


def test_criterion_03_momentum_recurrence():
    state = mn.MomentumState()
    s1 = mn.momentum_update(state)
    assert s1.m == 0.0
    s2 = mn.momentum_update(s1)
    # frozen by evaluating the recurrence from theta = 1 at high precision
    assert abs(s2.m - 0.2817535251253208) <= 1e-5
    s = mn.MomentumState()
    prev = s.theta
    for _ in range(1000):
        s = mn.momentum_update(s)
        assert s.theta > prev
        assert 0.0 <= s.m < 1.0
        prev = s.theta
    _report(3, "m(1)=0, m(2)=0.2817535 +/- 1e-5, theta increasing, m in [0,1)")


def test_criterion_04_extrapolation_condition():
    rng = np.random.default_rng(5150)
    for trial in range(1000):
        n = int(rng.integers(1, 12))
        m_prev = mn.DiagonalMajorizer(rng.uniform(1e-3, 1e3, n))
        m_cur = mn.DiagonalMajorizer(rng.uniform(1e-3, 1e3, n))
        state = mn.MomentumState(theta=float(rng.uniform(1, 50)),
                                 m=float(rng.uniform(0, 1)))
        delta = float(rng.uniform(0.5, 1 - 1e-9))
        convex = bool(trial % 2)
        lam = 1.0 if convex else float(rng.uniform(1.0 + 1e-6, 4.0))
        e = mn.extrapolation_matrix(m_prev, m_cur, state, delta, lam)
        assert mn.check_extrapolation_condition(e, m_prev, m_cur, delta, lam, slack=1e-12)
    _report(4, "1000 random extrapolation matrices satisfy the bound, both modes")


def test_criterion_05_equivalence_oracle(deblur):
    beta = 3e-4
    refiner = mn.TiedCaolRefiner(deblur["bank"], np.full(4, beta))
    cfg = mn.MomentumNetConfig(n_iter=50, rho=1 - 1e-9, gamma=deblur["gamma"],
                               delta=1 - 1e-9, record_fixed_point=False)
    t_net = mn.run_momentum_net(cfg, [refiner], deblur["datafit"],
                                deblur["feasible"], deblur["x0"])
    t_orc = mn.run_caol_bpegm(deblur["datafit"], deblur["bank"], np.full(4, beta),
                              deblur["gamma"], deblur["feasible"], deblur["x0"],
                              50, delta=1 - 1e-9)
    worst = 0.0
    for a, b in zip(t_net.iterates()[1:], t_orc.iterates()[1:]):
        worst = max(worst, np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b)))
    assert worst <= 1e-12
    _report(5, f"momentum-net matches two-block majorized oracle (max rel {worst:.1e})")


def test_criterion_06_convergence_witnesses(deblur):
    t0 = time.perf_counter()
    refiner = mn.TiedCaolRefiner(deblur["bank"], np.full(4, 1e-3))
    cfg = mn.MomentumNetConfig(n_iter=500, rho=0.5, gamma=deblur["gamma"])
    trace = mn.run_momentum_net(cfg, [refiner], deblur["datafit"],
                                deblur["feasible"], deblur["x0"])
    rel = trace.relative_step_residuals()
    assert np.any(rel <= 1e-6), "step residual never reached 1e-6"
    first = int(np.argmax(rel <= 1e-6)) + 1
    fp = trace.final.fixed_point_residual
    assert fp <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _report(6, f"rel step <= 1e-6 at iter {first}, final fixed-point residual {fp:.1e}")


def test_criterion_07_extrapolation_accelerates(deblur):
    refiner = mn.TiedCaolRefiner(deblur["bank"], np.full(4, 1e-3))

    def run(extrapolate, n_iter):
        cfg = mn.MomentumNetConfig(n_iter=n_iter, rho=0.5, gamma=deblur["gamma"],
                                   extrapolate=extrapolate, record_fixed_point=False)
        return mn.run_momentum_net(cfg, [refiner], deblur["datafit"],
                                   deblur["feasible"], deblur["x0"])

    reference = run(True, 2000).final.objective
    threshold = reference + 1e-3 * abs(reference)

    def iters_to_threshold(trace):
        hits = np.nonzero(trace.objectives() <= threshold)[0]
        assert hits.size, "run never reached the reference objective window"
        return int(hits[0])

    with_e = iters_to_threshold(run(True, 2000))
    without_e = iters_to_threshold(run(False, 2000))
    assert with_e <= without_e
    _report(7, f"iterations to 0.1% of reference: {with_e} (extrapolated) "
               f"<= {without_e} (no extrapolation)")


def test_criterion_08_patch_loss_bound():
    ref = mn.ScnnRefiner(np.zeros((4, 5, 5)), np.zeros((4, 5, 5)), np.zeros(4),
                         residual=False)
    report = mn.patch_loss_bound_check(ref, None, trials=100, seed=8, slack=1e-10)
    assert report.violations == 0
    _report(8, f"convolutional loss <= patch loss on 100 draws (max gap {report.max_gap:.1e})")


def test_criterion_09_training_sanity():
    rng = np.random.default_rng(99)

    # (a) analytic gradients vs central finite differences away from kinks
    def fd_worst(value_fn, params, grads, step=1e-5, max_coords=20):
        worst = 0.0
        for name, arr in params.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in range(min(arr.size, max_coords)):
                mi = it.multi_index
                old = arr[mi]
                h = step * max(1.0, abs(old))
                arr[mi] = old + h
                lp = value_fn()
                arr[mi] = old - h
                lm = value_fn()
                arr[mi] = old
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(fd - grads[name][mi]) /
                            max(1e-8, abs(fd), abs(grads[name][mi])))
                it.iternext()
        return worst

    enc = rng.uniform(-0.5, 0.5, (3, 3, 3))
    dec = rng.uniform(-0.5, 0.5, (3, 3, 3))
    thr = rng.normal(-2.0, 0.3, 3)
    inputs = rng.standard_normal((2, 8, 8))
    targets = rng.standard_normal((2, 8, 8))
    _, grads = scnn_value_and_grad(enc, dec, thr, True, inputs, targets)
    worst_s = fd_worst(lambda: scnn_value_and_grad(enc, dec, thr, True, inputs,
                                                   targets)[0],
                       {"enc_filters": enc, "dec_filters": dec, "log_thresholds": thr}, grads)
    assert worst_s <= 1e-4

    first = rng.uniform(-0.4, 0.4, (3, 3, 3))
    mid = rng.uniform(-0.3, 0.3, (1, 3, 3, 3, 3))
    last = rng.uniform(-0.4, 0.4, (3, 3, 3))
    _, grads = dcnn_value_and_grad(first, mid, last, inputs, targets)
    worst_d = fd_worst(lambda: dcnn_value_and_grad(first, mid, last, inputs,
                                                   targets)[0],
                       {"first_filters": first, "mid_filters": mid, "last_filters": last}, grads)
    assert worst_d <= 1e-4

    # (b) full-batch fixed-seed training is bit-reproducible
    init = mn.ScnnRefiner.init_random(2, 9, rng)
    pairs = [(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
             for _ in range(4)]
    cfg = mn.TrainConfig(batch_size=4, epochs=15, seed=21)
    a, ha = mn.train_refiner(init, pairs, cfg)
    b, hb = mn.train_refiner(init, pairs, cfg)
    assert np.array_equal(a.enc_filters, b.enc_filters)
    assert np.array_equal(a.dec_filters, b.dec_filters)
    assert np.array_equal(a.log_thresholds, b.log_thresholds)
    assert ha == hb

    # (c) 1-parameter regression drives the loss below 1e-8
    x = np.random.default_rng(0).standard_normal((8, 5, 5))
    reg_pairs = [(2.0 * xi, xi) for xi in x]
    reg_init = mn.ScnnRefiner(np.array([[[1.0]]]), np.array([[[0.5]]]),
                              np.array([-800.0]), residual=False)
    reg_cfg = mn.TrainConfig(batch_size=8, epochs=500, lr_filters=0.3,
                             lr_thresholds=0.0, lr_decay=0.2, seed=0)
    _, history = mn.train_refiner(reg_init, reg_pairs, reg_cfg)
    assert history[-1] < 1e-8

    _report(9, f"gradcheck (scnn {worst_s:.1e}, dcnn {worst_d:.1e}), bit-identical "
               f"retrain, regression loss {history[-1]:.1e}")


@pytest.mark.slow
def test_criterion_10_end_to_end_ct(ct_pipeline):
    chi = ct_pipeline["chi_star"]
    refiners = ct_pipeline["refiners"]
    reconstruct = ct_pipeline["reconstruct"]
    lines = []
    for truth, fit in zip(ct_pipeline["held_out"], ct_pipeline["test_fits"]):
        x0 = mn.backprojection_init(fit, (CT_N, CT_N))
        rmse_bp = mn.rmse(x0, truth)
        rmse_net = mn.rmse(reconstruct(fit, refiners, chi, CT_STAGES).final_image(),
                           truth)
        rmse_free = mn.rmse(
            reconstruct(fit, [mn.IdentityRefiner()], chi, CT_STAGES).final_image(),
            truth)
        assert rmse_net < rmse_bp
        assert rmse_net < rmse_free
        lines.append(f"net {rmse_net:.4f} < free {rmse_free:.4f} < bp {rmse_bp:.4f}")
    assert ct_pipeline["elapsed"] <= 15 * 60
    # warm-start loss trend across stages (reported, not asserted)
    losses = ", ".join(f"{v:.2f}" for v in ct_pipeline["stage_losses"])
    _report(10, f"chi*={chi}; held-out RMSE: " + " | ".join(lines)
                + f" ({ct_pipeline['elapsed']:.0f}s); per-stage final losses [{losses}]")


@pytest.mark.slow
def test_criterion_11_diagnostics_pipeline(ct_pipeline):
    out = ct_pipeline["root"] / "diag"
    code = main(["diagnose", "--config", str(ct_pipeline["manifest"]),
                 "--refiners", str(ct_pipeline["refdir"]), "--out", str(out)])
    assert code == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == "iter,epsilon,delta,kappa"
    table = [row.split(",") for row in rows[1:]]
    assert len(table) == CT_STAGES  # one row per trained refiner
    delta = np.array([float(r[2]) for r in table])
    valid = delta[~np.isnan(delta)]
    assert valid.size == CT_STAGES - 1
    head = valid[:10]
    tail = valid[-10:]
    assert tail.mean() <= head.mean()
    _report(11, f"delta trend: mean(last 10) {tail.mean():.2e} <= "
                f"mean(first 10) {head.mean():.2e}")


def test_criterion_12_bcd_baseline(deblur):
    contractive = lambda u: 0.5 * u
    cfg = mn.MomentumNetConfig(n_iter=200, rho=0.5, gamma=deblur["gamma"],
                               record_fixed_point=False)
    trace = mn.run_bcd_net(cfg, [contractive], deblur["datafit"],
                           deblur["feasible"], deblur["x0"], inner_iters=10)
    rel = trace.relative_step_residuals()
    tail = rel[-10:]
    assert np.all(tail <= 1e-8)
    _report(12, f"BCD tail step residuals <= 1e-8 (max tail {tail.max():.1e})")
