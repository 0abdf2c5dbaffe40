import math

import numpy as np
import pytest

import mbirnet as mn
from mbirnet.cli import main
from mbirnet.solver import momentum_net_step

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2


def zero_datafit(n):
    return mn.QuadraticDataFit(mn.SparseMatrixOperator(np.zeros((n, n))),
                               np.ones(n), np.zeros(n))


class TestMomentumUpdate:
    def test_first_step(self):
        s1 = mn.momentum_update(mn.MomentumState())
        assert s1.theta == pytest.approx(GOLDEN_RATIO, abs=1e-12)
        assert s1.m == 0.0

    def test_second_step_frozen_value(self):
        # frozen from evaluating the recurrence at theta0 = 1 in double precision
        s2 = mn.momentum_update(mn.momentum_update(mn.MomentumState()))
        assert s2.theta == pytest.approx(2.1935270853310539, abs=1e-12)
        assert s2.m == pytest.approx(0.2817535251253208, abs=1e-12)

    def test_sequence_properties(self):
        s = mn.MomentumState()
        prev_theta, prev_m = s.theta, s.m
        for _ in range(1000):
            s = mn.momentum_update(s)
            assert s.theta > prev_theta
            assert 0.0 <= s.m < 1.0
            assert s.m >= prev_m
            prev_theta, prev_m = s.theta, s.m


class TestExtrapolationMatrix:
    def test_convex_equal_majorizers(self):
        m = mn.DiagonalMajorizer(np.array([2.0, 8.0]))
        state = mn.MomentumState(theta=2.0, m=0.5)
        e = mn.extrapolation_matrix(m, m, state, 0.9, lam=1.0)
        assert np.allclose(e, 0.405)

    def test_zero_momentum_gives_zero(self):
        m = mn.DiagonalMajorizer(np.array([1.0, 4.0]))
        e = mn.extrapolation_matrix(m, m, mn.MomentumState(m=0.0), 0.9, 1.0)
        assert np.array_equal(e, np.zeros(2))

    def test_nonconvex_factor(self):
        m = mn.DiagonalMajorizer(np.array([2.0, 8.0]))
        state = mn.MomentumState(theta=2.0, m=0.5)
        e = mn.extrapolation_matrix(m, m, state, 0.9, lam=3.0)
        assert np.allclose(e, 0.405 * 0.25)

    def test_unequal_majorizers_use_sqrt_ratio(self):
        m_prev = mn.DiagonalMajorizer(np.array([4.0]))
        m_cur = mn.DiagonalMajorizer(np.array([1.0]))
        e = mn.extrapolation_matrix(m_prev, m_cur, mn.MomentumState(m=0.5), 0.9, 1.0)
        assert np.allclose(e, 0.405 * 2.0)


class TestExtrapolationCondition:
    def test_designed_matrices_pass(self, rng):
        for _ in range(50):
            m_prev = mn.DiagonalMajorizer(rng.uniform(0.1, 10.0, 4))
            m_cur = mn.DiagonalMajorizer(rng.uniform(0.1, 10.0, 4))
            for lam in (1.0, 1.5):
                state = mn.MomentumState(theta=3.0, m=rng.uniform(0, 1))
                e = mn.extrapolation_matrix(m_prev, m_cur, state, 0.97, lam)
                assert mn.check_extrapolation_condition(e, m_prev, m_cur, 0.97, lam)

    def test_oversized_matrix_fails(self):
        m = mn.DiagonalMajorizer(np.ones(2))
        e = np.full(2, 2.0 / 0.9)
        assert not mn.check_extrapolation_condition(e, m, m, 0.9, 1.0)

    def test_zero_matrix_passes(self):
        m = mn.DiagonalMajorizer(np.array([3.0, 5.0]))
        assert mn.check_extrapolation_condition(np.zeros(2), m, m, 0.5, 1.0)

    # the bound on E^2 M_cur / M_prev is delta^2 c, with c = 1 (convex) or
    # (lam-1)^2 / (4 (lam+1)^2) = 1/16 at lam = 3
    @pytest.mark.parametrize("lam, c", [(1.0, 1.0), (3.0, 1.0 / 16.0)])
    def test_bound_is_delta_squared(self, lam, c):
        delta = 0.5
        m_prev = mn.DiagonalMajorizer(np.array([2.0, 5.0, 0.3]))
        m_cur = mn.DiagonalMajorizer(np.array([3.0, 0.5, 7.0]))

        def e_with_ratio(ratio):
            return np.sqrt(ratio * m_prev.diag / m_cur.diag)

        below = e_with_ratio(delta ** 2 * c * (1 - 1e-9))
        assert mn.check_extrapolation_condition(below, m_prev, m_cur, delta, lam)
        # between delta^2 c and delta c: within a bound of delta, not of delta^2
        between = e_with_ratio(0.5 * (delta ** 2 + delta) * c)
        assert not mn.check_extrapolation_condition(between, m_prev, m_cur, delta, lam)


class TestMbirStep:
    def test_stationary_feasible_point(self):
        f = zero_datafit(2)
        z = np.array([0.5, 0.25])
        obj = mn.MbirObjective(f, 1.0, mn.FeasibleSet.box(0, 1))
        # gradient vanishes at x = z and z is feasible
        assert np.allclose(mn.mbir_step(z, z, obj), z, atol=1e-14)

    def test_exact_proximity_step(self):
        f = zero_datafit(2)
        # the metric is M_f + gamma, and the zero fit's M_f is its 1e-8 floor,
        # which rounds away next to gamma = 2^27 (half an ulp is 1.5e-8)
        obj = mn.MbirObjective(f, 2.0 ** 27, mn.FeasibleSet.all())
        out = mn.mbir_step(np.array([2.0, -2.0]), np.zeros(2), obj)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_projection_clamps(self):
        f = zero_datafit(2)
        obj = mn.MbirObjective(f, 1.0, mn.FeasibleSet.nonneg())
        out = mn.mbir_step(np.array([-1.0, 3.0]), np.array([-1.0, 3.0]), obj)
        assert np.array_equal(out, [0.0, 3.0])


class TestRunMomentumNet:
    def test_degenerate_problem_constant_sequence(self):
        n = 4
        x0 = mn.ImageVector(np.array([0.3, -0.1, 0.7, 0.2]), (2, 2))
        cfg = mn.MomentumNetConfig(n_iter=6, rho=0.5, gamma=2.0, extrapolate=False)
        trace = mn.run_momentum_net(cfg, [mn.IdentityRefiner()], zero_datafit(n),
                                    mn.FeasibleSet.all(), x0)
        for rec in trace.records[1:]:
            assert np.allclose(rec.x, x0.data, atol=1e-12)
            assert np.allclose(rec.z, x0.data, atol=1e-12)

    def test_zero_iterations(self, deblur_problem):
        cfg = mn.MomentumNetConfig(n_iter=0, gamma=0.1)
        trace = mn.run_momentum_net(cfg, [mn.IdentityRefiner()], deblur_problem["datafit"],
                                    deblur_problem["feasible"], deblur_problem["x0"])
        assert len(trace) == 1
        assert np.array_equal(trace.records[0].x, deblur_problem["x0"].data)

    def test_record_count_matches_iterations(self, deblur_problem):
        cfg = mn.MomentumNetConfig(n_iter=7, gamma=0.1, record_fixed_point=False)
        trace = mn.run_momentum_net(cfg, [mn.IdentityRefiner()], deblur_problem["datafit"],
                                    deblur_problem["feasible"], deblur_problem["x0"])
        assert len(trace) == 8

    def test_nonfinite_aborts_with_diagnostic(self):
        n = 4
        x0 = mn.ImageVector(np.ones(n), (2, 2))
        explode = lambda u: u * 1e200
        cfg = mn.MomentumNetConfig(n_iter=10, rho=0.5, gamma=1.0)
        trace = mn.run_momentum_net(cfg, [explode], zero_datafit(n), mn.FeasibleSet.all(), x0)
        assert trace.aborted
        assert 1 < len(trace) < cfg.n_iter + 1
        # the final record, and only it, holds the non-finite iterate
        assert not np.all(np.isfinite(trace.final.x)) and math.isnan(trace.final.objective)
        assert all(np.all(np.isfinite(rec.x)) for rec in trace.records[:-1])

    def test_refiner_list_repeats_last(self, deblur_problem):
        cfg = mn.MomentumNetConfig(n_iter=4, gamma=0.1, record_fixed_point=False)
        bank = mn.make_tf_filterbank(4)
        refiners = [mn.TiedCaolRefiner(bank, np.full(4, 1e-3))]
        trace = mn.run_momentum_net(cfg, refiners, deblur_problem["datafit"],
                                    deblur_problem["feasible"], deblur_problem["x0"])
        assert len(trace) == 5 and not trace.aborted

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mn.MomentumNetConfig(n_iter=5, rho=1.5, gamma=1.0)
        with pytest.raises(ValueError):
            mn.MomentumNetConfig(n_iter=5, gamma=1.0, chi=2.0)
        # lam = 1 is convex mode and lam > 1 nonconvex; below 1 or non-finite is neither
        for lam in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lam must be finite and >= 1"):
                mn.MomentumNetConfig(n_iter=5, gamma=1.0, lam=lam)

    # delta enters as delta ** 2, which overflows (OverflowError) at -1e300
    @pytest.mark.parametrize("delta", [-1e300, -0.5, float("nan"), 1.0])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            mn.MomentumNetConfig(n_iter=5, gamma=1.0, delta=delta)


class TestMetric:
    @staticmethod
    def _identity_fit():
        return mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(4)), np.full(4, 2.0),
                                   np.zeros(4))

    def test_chi_wires_majorizer(self):
        cfg = mn.MomentumNetConfig(n_iter=1, chi=4.0, lam=1.5)
        obj = cfg.objective(self._identity_fit(), mn.FeasibleSet.all())
        gamma, m_big = obj.gamma, obj.metric
        # identity operator: majorizer = weights, zero spread, fallback max/chi
        assert gamma == pytest.approx(0.5)
        assert np.allclose(m_big.diag, 3.75)
        # lam * (M_f + gamma I), in that order of operations
        f_diag = mn.diag_majorizer(self._identity_fit()).diag
        assert m_big.diag.tobytes() == (1.5 * (f_diag + gamma)).tobytes()

    def test_explicit_gamma_skips_selection(self):
        obj = mn.MomentumNetConfig(n_iter=1, gamma=0.25).objective(self._identity_fit(),
                                                                   mn.FeasibleSet.all())
        gamma, m_big = obj.gamma, obj.metric
        assert gamma == 0.25
        assert np.array_equal(m_big.diag, np.full(4, 2.25))

    def test_gamma_positive(self):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            mn.MomentumNetConfig(n_iter=1, gamma=0.0)


class TestFixedPointResidual:
    def test_degenerate_self_reproduction(self):
        n = 4
        f = zero_datafit(n)
        x0 = mn.ImageVector(np.array([0.3, -0.1, 0.7, 0.2]), (2, 2))
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.5, gamma=2.0)
        r = mn.fixed_point_residual(x0, mn.IdentityRefiner(), cfg,
                                    cfg.objective(f, mn.FeasibleSet.all()))
        assert r <= 1e-14

    def test_infeasible_point_positive(self):
        n = 4
        f = zero_datafit(n)
        x = mn.ImageVector(np.array([-1.0, -1.0, -1.0, -1.0]), (2, 2))
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.5, gamma=2.0)
        r = mn.fixed_point_residual(x, mn.IdentityRefiner(), cfg,
                                    cfg.objective(f, mn.FeasibleSet.nonneg()))
        assert r > 0.0

    def test_identity_refiner_any_feasible_point(self, rng):
        n = 9
        f = zero_datafit(n)
        x = mn.ImageVector(np.abs(rng.standard_normal(n)), (3, 3))
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.7, gamma=1.3)
        r = mn.fixed_point_residual(x, mn.IdentityRefiner(), cfg,
                                    cfg.objective(f, mn.FeasibleSet.nonneg()))
        assert r <= 1e-14


class TestApgSolve:
    def test_average_of_two_anchors(self):
        n = 4
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(n)), np.ones(n), np.full(n, 2.0))
        obj = mn.MbirObjective(f, 1.0, mn.FeasibleSet.all())
        out = mn.apg_solve(obj, np.full(n, 2.0), np.zeros(n), 200)
        assert np.allclose(out, 2.0, atol=1e-8)

    def test_fixed_point_stays(self):
        n = 3
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(n)), np.ones(n), np.ones(n))
        obj = mn.MbirObjective(f, 1.0, mn.FeasibleSet.all())
        out = mn.apg_solve(obj, np.ones(n), np.ones(n), 1)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_iters_validation(self):
        n = 2
        f = zero_datafit(n)
        obj = mn.MbirObjective(f, 1.0, mn.FeasibleSet.all())
        with pytest.raises(ValueError):
            mn.apg_solve(obj, np.zeros(n), np.zeros(n), 0)

    def test_matches_hand_written_accelerated_loop(self, rng):
        # projected gradient steps in M_f + gamma with momentum from
        # `momentum_update`; the momentum weight is 0 until the third step
        n = 16
        op = mn.build_blur(mn.binomial_kernel(0.3), (4, 4))
        f = mn.QuadraticDataFit(op, rng.uniform(0.5, 2.0, n), rng.uniform(-0.5, 1.5, n))
        z = rng.uniform(0, 1, n)
        obj = mn.MbirObjective(f, 0.3, mn.FeasibleSet.box(0, 1))
        x0 = rng.uniform(0, 1, n)
        md = mn.diag_majorizer(f).diag + 0.3
        x = x0.copy()
        v = x.copy()
        state = mn.MomentumState()
        for iters in range(1, 6):
            u = obj.feasible.project(v - mn.mbir_gradient(obj, v, z) / md)
            state = mn.momentum_update(state)
            v = u + state.m * (u - x)
            x = u
            assert mn.apg_solve(obj, z, x0, iters).tobytes() == x.tobytes()

    def test_box_constrained_matches_grid(self, rng):
        # small version of the acceptance oracle
        a = mn.SparseMatrixOperator(rng.uniform(-1, 1, (3, 2)))
        f = mn.QuadraticDataFit(a, rng.uniform(0.1, 2.0, 3), rng.uniform(-1, 1, 3))
        z = rng.uniform(-1, 1, 2)
        obj = mn.MbirObjective(f, 0.8, mn.FeasibleSet.box(0, 1))
        xa = np.asarray(mn.apg_solve(obj, z, np.full(2, 0.5), 500))
        grid = np.linspace(0.0, 1.0, 401)
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        residual = pts @ a.matrix.toarray().T - f.measurements
        vals = 0.5 * np.sum(f.weights * residual ** 2, axis=1) \
            + 0.5 * obj.gamma * np.sum((pts - z) ** 2, axis=1)
        xg = pts[np.argmin(vals)]
        assert np.max(np.abs(xa - xg)) <= 1.0 / 400 + 1e-9


class TestRunBcdNet:
    def test_zero_datafit_projects_refined(self, rng):
        n = 4
        x0 = mn.ImageVector(np.array([0.5, 0.1, 0.9, 0.4]), (2, 2))
        shift = lambda u: u - 0.6
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.5, gamma=1.0)
        trace = mn.run_bcd_net(cfg, [shift], zero_datafit(n), mn.FeasibleSet.nonneg(),
                               x0, inner_iters=1)
        expected = np.maximum(x0.data - 0.6, 0.0)
        assert np.allclose(trace.final.x, expected, atol=1e-6)

    def test_zero_iterations(self):
        n = 4
        x0 = mn.ImageVector(np.zeros(n), (2, 2))
        cfg = mn.MomentumNetConfig(n_iter=0, gamma=1.0)
        trace = mn.run_bcd_net(cfg, [mn.IdentityRefiner()], zero_datafit(n),
                               mn.FeasibleSet.all(), x0, inner_iters=3)
        assert len(trace) == 1

    def test_inner_solver_matches_direct_solve(self, rng):
        # 10 inner iterations on a well-conditioned 256-dim quadratic must get
        # the objective within 1e-8 of a dense direct-solve oracle
        n = 16
        op = mn.build_blur(mn.binomial_kernel(0.3), (n, n))
        y = rng.standard_normal(n * n)
        f = mn.QuadraticDataFit(op, np.ones(n * n), y)
        gamma = 5.0
        z = rng.standard_normal(n * n)
        obj = mn.MbirObjective(f, gamma, mn.FeasibleSet.all())
        mat = op.matrix.toarray()
        h = mat.T @ mat + gamma * np.eye(n * n)
        x_star = np.linalg.solve(h, mat.T @ y + gamma * z)
        x_apg = mn.apg_solve(obj, z, np.zeros(n * n), 10)
        assert obj.value(x_apg, z) - obj.value(x_star, z) <= 1e-8

    def test_inner_iters_validation(self, deblur_problem):
        cfg = mn.MomentumNetConfig(n_iter=1, gamma=1.0)
        with pytest.raises(ValueError):
            mn.run_bcd_net(cfg, [mn.IdentityRefiner()], deblur_problem["datafit"],
                           deblur_problem["feasible"], deblur_problem["x0"], inner_iters=0)


class TestNoExtrapolationBitwise:
    def test_matches_direct_loop(self, deblur_problem):
        """extrapolate=False must be bitwise equal to a plain refine+step loop."""
        datafit = deblur_problem["datafit"]
        feasible = deblur_problem["feasible"]
        x0 = deblur_problem["x0"]
        shape = x0.shape
        bank = mn.make_tf_filterbank(4)
        refiner = mn.TiedCaolRefiner(bank, np.full(4, 1e-3))
        gamma = 0.05
        rho = 0.5
        cfg = mn.MomentumNetConfig(n_iter=20, rho=rho, gamma=gamma, extrapolate=False,
                                   record_fixed_point=False)
        trace = mn.run_momentum_net(cfg, [refiner], datafit, feasible, x0)

        obj = mn.MbirObjective(datafit, gamma, feasible)
        x = x0.data.copy()
        for i in range(20):
            z = (1.0 - rho) * x + rho * refiner(x.reshape(shape)).ravel()
            x = np.asarray(mn.mbir_step(x, z, obj))
            assert np.array_equal(x, trace.records[i + 1].x)


class TestExtrapolationBitwise:
    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_matches_direct_loop(self, deblur_problem, lam):
        """extrapolate=True must be bitwise equal to a plain refine, extrapolate
        and step loop in the metric from `MomentumNetConfig.objective`."""
        datafit = deblur_problem["datafit"]
        feasible = deblur_problem["feasible"]
        x0 = deblur_problem["x0"]
        shape = x0.shape
        refiner = mn.TiedCaolRefiner(mn.make_tf_filterbank(4), np.full(4, 1e-3))
        gamma = 0.05
        rho = 0.5
        n_iter = 20
        cfg = mn.MomentumNetConfig(n_iter=n_iter, rho=rho, gamma=gamma, lam=lam,
                                   record_fixed_point=False)
        trace = mn.run_momentum_net(cfg, [refiner], datafit, feasible, x0)

        obj = cfg.objective(datafit, feasible)
        m = obj.metric
        state = mn.MomentumState()
        x = x0.data.copy()
        x_prev = x
        for i in range(n_iter):
            z = (1.0 - rho) * x + rho * refiner(x.reshape(shape)).ravel()
            x_acute = x + mn.extrapolation_matrix(m, m, state, cfg.delta, lam) * (x - x_prev)
            x_prev, x = x, np.asarray(mn.mbir_step(x_acute, z, obj))
            state = mn.momentum_update(state)
            assert trace.records[i + 1].x.tobytes() == x.tobytes()
            assert trace.records[i + 1].z.tobytes() == z.tobytes()

    @pytest.mark.parametrize("b", [1, 3])
    def test_step_extrapolates_with_the_config_delta(self, rng, b):
        """`momentum_net_step` takes delta from its config, not from the state,
        and steps each sample of the stack with that sample's own data fit."""
        op = mn.SparseMatrixOperator(rng.uniform(-1, 1, (6, 4)))
        fits = [mn.QuadraticDataFit(op, rng.uniform(0.5, 2.0, 6), rng.uniform(-1, 1, 6))
                for _ in range(b)]
        feasible = mn.FeasibleSet.nonneg()
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.3, gamma=0.3, delta=0.5)
        objs = [cfg.objective(fit, feasible) for fit in fits]
        state = mn.momentum_update(mn.momentum_update(mn.MomentumState()))
        assert state.m > 0.28
        x, x_prev, refined = rng.uniform(0, 1, (3, b, 2, 2))
        x_new, z = momentum_net_step(x, x_prev, state, refined, objs, cfg)
        assert x_new.shape == z.shape == (b, 2, 2)
        for j, obj in enumerate(objs):
            want_z = 0.7 * x[j].ravel() + 0.3 * refined[j].ravel()
            x_acute = x[j].ravel() + 0.5 ** 2 * state.m * (x[j].ravel() - x_prev[j].ravel())
            want = mn.mbir_step(x_acute, want_z, obj)
            assert z[j].tobytes() == want_z.tobytes()
            assert x_new[j].tobytes() == want.tobytes()


class TestReductionsOffBlas:
    """The solver loop sums its trace values with numpy (`linops._dot`), never
    with a BLAS reduction, and they equal the np.dot-based values."""

    @pytest.fixture(scope="class")
    def ct_problem(self):
        n = 24
        rng = np.random.default_rng(5)
        op = mn.build_radon(mn.CtGeometry(n, 8))
        y, w = mn.simulate_ct(mn.random_ellipse_phantom(n, rng), op, 1e4, 25.0, seed=3)
        fit = mn.QuadraticDataFit(op, w, y)
        return fit, mn.backprojection_init(fit, (n, n))

    # at rho = 0.5 the fixed-point record cannot tell rho from 1 - rho; 0.3 can
    @pytest.mark.parametrize("solver, rho", [
        pytest.param(solver, rho, id=solver if rho == 0.5 else f"{solver}, rho {rho}")
        for solver, rho in [("momentum", 0.5), ("no extrapolation", 0.5), ("bcd", 0.5),
                            ("momentum", 0.3), ("no extrapolation", 0.3)]])
    def test_trace_values_equal_a_blas_recomputation(self, monkeypatch, ct_problem, solver,
                                                     rho):
        fit, x0 = ct_problem
        feasible = mn.FeasibleSet.nonneg()
        refiner = mn.TiedCaolRefiner(mn.make_tf_filterbank(9), np.full(9, 0.02))
        cfg = mn.MomentumNetConfig(n_iter=4, rho=rho, chi=0.1,
                                   extrapolate=solver != "no extrapolation")

        def refuse(*args, **kwargs):
            raise AssertionError("a BLAS reduction ran in the solver loop")

        with monkeypatch.context() as patched:
            for module, name in ((np, "dot"), (np, "vdot"), (np, "inner"),
                                 (np.linalg, "norm")):
                patched.setattr(module, name, refuse)
            if solver == "bcd":
                trace = mn.run_bcd_net(cfg, [refiner], fit, feasible, x0, inner_iters=3)
            else:
                trace = mn.run_momentum_net(cfg, [refiner], fit, feasible, x0)
            relative = trace.relative_step_residuals()
        assert not trace.aborted and len(trace) == 5

        obj = cfg.objective(fit, feasible)
        gamma = obj.gamma

        def objective(x, z):
            r = fit.op.forward(x) - fit.measurements
            return 0.5 * np.dot(fit.weights * r, r) + 0.5 * gamma * np.dot(x - z, x - z)

        assert trace.records[0].objective == pytest.approx(objective(x0.data, x0.data),
                                                           rel=1e-13)
        for prev, rec, rel in zip(trace.records, trace.records[1:], relative):
            step = np.linalg.norm(rec.x - prev.x)
            assert rec.objective == pytest.approx(objective(rec.x, rec.z), rel=1e-13)
            assert rec.step_residual == pytest.approx(step, rel=1e-13)
            assert rel == pytest.approx(step / max(1.0, np.linalg.norm(prev.x)), rel=1e-13)
            if solver == "bcd":
                assert math.isnan(rec.fixed_point_residual)
                continue
            z_bar = (1 - cfg.rho) * rec.x + cfg.rho * refiner(rec.x.reshape(x0.shape)).ravel()
            x_next = mn.mbir_step(rec.x, z_bar, obj)
            fp = np.linalg.norm(rec.x - x_next) / max(1.0, np.linalg.norm(rec.x))
            assert rec.fixed_point_residual == pytest.approx(fp, rel=1e-13)


class TestCaolBpegm:
    def test_zero_thresholds_monotone_objective(self, deblur_problem):
        trace = mn.run_caol_bpegm(deblur_problem["datafit"], mn.make_tf_filterbank(4),
                                  np.zeros(4), 0.05, deblur_problem["feasible"],
                                  deblur_problem["x0"], 40)
        obj = trace.objectives()
        # z-step is the identity at beta=0, so descent holds up to extrapolation slack
        assert np.all(np.diff(obj) <= 1e-10 * np.maximum(1.0, np.abs(obj[:-1])))

    def test_zero_iterations(self, deblur_problem):
        trace = mn.run_caol_bpegm(deblur_problem["datafit"], mn.make_tf_filterbank(4),
                                  np.zeros(4), 0.05, deblur_problem["feasible"],
                                  deblur_problem["x0"], 0)
        assert len(trace) == 1

    def test_runs_without_scipy_fft(self, deblur_problem, monkeypatch):
        # the oracle keeps numpy.fft, so it shares no FFT library with the
        # refiners it checks
        import scipy.fft

        def no_fft(*args, **kwargs):
            raise AssertionError("the oracle ran a scipy.fft transform")

        monkeypatch.setattr(scipy.fft, "rfft2", no_fft)
        monkeypatch.setattr(scipy.fft, "irfft2", no_fft)
        trace = mn.run_caol_bpegm(deblur_problem["datafit"], mn.make_tf_filterbank(4),
                                  np.full(4, 1e-3), 0.05, deblur_problem["feasible"],
                                  deblur_problem["x0"], 2)
        assert len(trace) == 3

    def test_refuses_non_tight_bank(self, deblur_problem, rng):
        with pytest.raises(ValueError):
            mn.run_caol_bpegm(deblur_problem["datafit"], rng.standard_normal((4, 2, 2)),
                              np.zeros(4), 0.05, deblur_problem["feasible"],
                              deblur_problem["x0"], 5)

    def test_equivalence_with_momentum_net(self, deblur_problem):
        bank = mn.make_tf_filterbank(4)
        beta = 3e-4
        gamma = mn.select_gamma(mn.diag_majorizer(deblur_problem["datafit"]), 50.0)
        refiner = mn.TiedCaolRefiner(bank, np.full(4, beta))
        cfg = mn.MomentumNetConfig(n_iter=25, rho=1 - 1e-9, gamma=gamma,
                                   record_fixed_point=False)
        t_net = mn.run_momentum_net(cfg, [refiner], deblur_problem["datafit"],
                                    deblur_problem["feasible"], deblur_problem["x0"])
        t_orc = mn.run_caol_bpegm(deblur_problem["datafit"], bank, np.full(4, beta),
                                  gamma, deblur_problem["feasible"],
                                  deblur_problem["x0"], 25)
        for a, b in zip(t_net.iterates()[1:], t_orc.iterates()[1:]):
            assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(b))


class TestTraceExport:
    def test_csv_columns(self, tmp_path, deblur_problem):
        cfg = mn.MomentumNetConfig(n_iter=3, gamma=0.1)
        trace = mn.run_momentum_net(cfg, [mn.IdentityRefiner()], deblur_problem["datafit"],
                                    deblur_problem["feasible"], deblur_problem["x0"])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "iter,objective,step_residual,fixed_point_residual,wall_ms"
        assert len(path.read_text().splitlines()) == 5

    @staticmethod
    def _loss_table(tmp_path, monkeypatch, history):
        """`mbirnet train`'s loss_000.csv for one stage with this loss history."""
        (tmp_path / "blur.yaml").write_text("schema: 1\nproblem: {kind: blur, n: 16}\n")
        assert main(["simulate", "--config", str(tmp_path / "blur.yaml"),
                     "--out", str(tmp_path)]) == 0
        (tmp_path / "manifest.yaml").write_text(
            "schema: 1\ngamma: 1.0\nsamples:\n  - {truth: truth.pgm, measurements: y.csv, "
            "weights: weights.csv, operator: operator.txt}\n")
        refiner = mn.ScnnRefiner.init_random(1, 1, np.random.default_rng(0))
        monkeypatch.setattr("mbirnet.cli.greedy_train", lambda *args: ([refiner], [history]))
        assert main(["train", "--config", str(tmp_path / "manifest.yaml"),
                     "--out", str(tmp_path)]) == 0
        return tmp_path / "loss_000.csv"

    @pytest.mark.parametrize("table", ["trace", "loss"])
    def test_values_round_trip_exactly(self, tmp_path, monkeypatch, table):
        import csv

        values = [0.1, -0.0, 5e-324, -1e300, math.inf, -math.inf, math.nan, -math.nan]
        if table == "trace":
            trace = mn.IterateTrace((1, 1))
            for i, v in enumerate(values):
                trace.records.append(mn.IterateRecord(
                    objective=v, step_residual=values[-1 - i], x=np.zeros(1), z=np.zeros(1),
                    fixed_point_residual=v, wall_ms=1.0 / 3.0))
            path = tmp_path / "trace.csv"
            trace.to_csv(path)
            wanted = [(rec.objective, rec.step_residual, rec.fixed_point_residual, rec.wall_ms)
                      for rec in trace.records]
        else:
            path = self._loss_table(tmp_path, monkeypatch, values)
            wanted = [(v,) for v in values]
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(r[0]) for r in rows] == list(range(len(values)))
        assert [r[1] for r in rows[4:]] == ["inf", "-inf", "nan", "nan"]
        for r, cells in zip(rows, wanted):
            assert len(r) == 1 + len(cells)
            for cell, want in zip(r[1:], cells):
                if math.isnan(want):
                    assert cell == "nan"
                else:
                    assert np.float64(cell).tobytes() == np.float64(want).tobytes()
