import math

import numpy as np
import pytest

import mbirnet as mn

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
        state = mn.MomentumState(theta=2.0, m=0.5, delta=0.9)
        e = mn.extrapolation_matrix(m, m, state, lam=1.0, convex=True)
        assert np.allclose(e, 0.405)

    def test_zero_momentum_gives_zero(self):
        m = mn.DiagonalMajorizer(np.array([1.0, 4.0]))
        e = mn.extrapolation_matrix(m, m, mn.MomentumState(m=0.0, delta=0.9), 1.0, True)
        assert np.array_equal(e, np.zeros(2))

    def test_nonconvex_factor(self):
        m = mn.DiagonalMajorizer(np.array([2.0, 8.0]))
        state = mn.MomentumState(theta=2.0, m=0.5, delta=0.9)
        e = mn.extrapolation_matrix(m, m, state, lam=3.0, convex=False)
        assert np.allclose(e, 0.405 * 0.25)

    def test_lam_one_nonconvex_degenerates_to_zero(self):
        m = mn.DiagonalMajorizer(np.ones(3))
        e = mn.extrapolation_matrix(m, m, mn.MomentumState(m=0.9, delta=0.9), 1.0, False)
        assert np.array_equal(e, np.zeros(3))

    def test_unequal_majorizers_use_sqrt_ratio(self):
        m_prev = mn.DiagonalMajorizer(np.array([4.0]))
        m_cur = mn.DiagonalMajorizer(np.array([1.0]))
        e = mn.extrapolation_matrix(m_prev, m_cur, mn.MomentumState(m=0.5, delta=0.9), 1.0, True)
        assert np.allclose(e, 0.405 * 2.0)


class TestExtrapolationCondition:
    def test_designed_matrices_pass(self, rng):
        for _ in range(50):
            m_prev = mn.DiagonalMajorizer(rng.uniform(0.1, 10.0, 4))
            m_cur = mn.DiagonalMajorizer(rng.uniform(0.1, 10.0, 4))
            for convex, lam in ((True, 1.0), (False, 1.5)):
                state = mn.MomentumState(theta=3.0, m=rng.uniform(0, 1), delta=0.97)
                e = mn.extrapolation_matrix(m_prev, m_cur, state, lam, convex)
                assert mn.check_extrapolation_condition(e, m_prev, m_cur, 0.97, lam, convex)

    def test_oversized_matrix_fails(self):
        m = mn.DiagonalMajorizer(np.ones(2))
        e = np.full(2, 2.0 / 0.9)
        assert not mn.check_extrapolation_condition(e, m, m, 0.9, 1.0, True)

    def test_zero_matrix_passes(self):
        m = mn.DiagonalMajorizer(np.array([3.0, 5.0]))
        assert mn.check_extrapolation_condition(np.zeros(2), m, m, 0.5, 1.0, True)


class TestMbirStep:
    def test_stationary_feasible_point(self):
        f = zero_datafit(2)
        z = np.array([0.5, 0.25])
        obj = mn.MbirObjective(f, 1.0, z, mn.FeasibleSet.box(0, 1))
        m = mn.DiagonalMajorizer(np.ones(2) * 1.0)
        # gradient vanishes at x = z and z is feasible
        assert np.allclose(mn.mbir_step(z, obj, m), z, atol=1e-14)

    def test_exact_proximity_step(self):
        f = zero_datafit(2)
        obj = mn.MbirObjective(f, 1.0, np.zeros(2), mn.FeasibleSet.all())
        m = mn.DiagonalMajorizer(np.ones(2))
        out = mn.mbir_step(np.array([2.0, -2.0]), obj, m)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_projection_clamps(self):
        f = zero_datafit(2)
        obj = mn.MbirObjective(f, 1.0, np.array([-1.0, 3.0]), mn.FeasibleSet.nonneg())
        m = mn.DiagonalMajorizer(np.ones(2))
        out = mn.mbir_step(np.array([-1.0, 3.0]), obj, m)
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
        assert trace.abort_iteration is not None
        assert len(trace) == trace.abort_iteration + 1

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
        with pytest.raises(ValueError):
            mn.MomentumNetConfig(n_iter=5, gamma=1.0, lam=2.0)  # convex wants lam=1
        with pytest.raises(ValueError):
            mn.MomentumNetConfig(n_iter=5, gamma=1.0, convex=False, lam=1.0)

    # delta enters as delta ** 2, which overflows (OverflowError) at -1e300
    @pytest.mark.parametrize("delta", [-1e300, -0.5, float("nan"), 1.0])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            mn.MomentumNetConfig(n_iter=5, gamma=1.0, delta=delta)
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
            mn.MomentumState(delta=delta)


class TestFixedPointResidual:
    def test_degenerate_self_reproduction(self):
        n = 4
        f = zero_datafit(n)
        x0 = mn.ImageVector(np.array([0.3, -0.1, 0.7, 0.2]), (2, 2))
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.5, gamma=2.0)
        m = mn.diag_majorizer(f).shifted(2.0)
        r = mn.fixed_point_residual(x0, mn.IdentityRefiner(), cfg, f,
                                    mn.FeasibleSet.all(), m, gamma=2.0)
        assert r <= 1e-14

    def test_infeasible_point_positive(self):
        n = 4
        f = zero_datafit(n)
        x = mn.ImageVector(np.array([-1.0, -1.0, -1.0, -1.0]), (2, 2))
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.5, gamma=2.0)
        m = mn.diag_majorizer(f).shifted(2.0)
        r = mn.fixed_point_residual(x, mn.IdentityRefiner(), cfg, f,
                                    mn.FeasibleSet.nonneg(), m, gamma=2.0)
        assert r > 0.0

    def test_identity_refiner_any_feasible_point(self, rng):
        n = 9
        f = zero_datafit(n)
        x = mn.ImageVector(np.abs(rng.standard_normal(n)), (3, 3))
        cfg = mn.MomentumNetConfig(n_iter=1, rho=0.7, gamma=1.3)
        m = mn.diag_majorizer(f).shifted(1.3)
        r = mn.fixed_point_residual(x, mn.IdentityRefiner(), cfg, f,
                                    mn.FeasibleSet.nonneg(), m, gamma=1.3)
        assert r <= 1e-14


class TestApgSolve:
    def test_average_of_two_anchors(self):
        n = 4
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(n)), np.ones(n), np.full(n, 2.0))
        obj = mn.MbirObjective(f, 1.0, np.full(n, 2.0), mn.FeasibleSet.all())
        out = mn.apg_solve(obj, np.zeros(n), 200)
        assert np.allclose(out, 2.0, atol=1e-8)

    def test_fixed_point_stays(self):
        n = 3
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(n)), np.ones(n), np.ones(n))
        obj = mn.MbirObjective(f, 1.0, np.ones(n), mn.FeasibleSet.all())
        out = mn.apg_solve(obj, np.ones(n), 1)
        assert np.allclose(out, 1.0, atol=1e-14)

    def test_iters_validation(self):
        n = 2
        f = zero_datafit(n)
        obj = mn.MbirObjective(f, 1.0, np.zeros(n), mn.FeasibleSet.all())
        with pytest.raises(ValueError):
            mn.apg_solve(obj, np.zeros(n), 0)

    def test_box_constrained_matches_grid(self, rng):
        # small version of the acceptance oracle
        a = mn.SparseMatrixOperator(rng.uniform(-1, 1, (3, 2)))
        f = mn.QuadraticDataFit(a, rng.uniform(0.1, 2.0, 3), rng.uniform(-1, 1, 3))
        obj = mn.MbirObjective(f, 0.8, rng.uniform(-1, 1, 2), mn.FeasibleSet.box(0, 1))
        xa = np.asarray(mn.apg_solve(obj, np.full(2, 0.5), 500))
        grid = np.linspace(0.0, 1.0, 401)
        gx, gy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        residual = pts @ a.matrix.toarray().T - f.measurements
        vals = 0.5 * np.sum(f.weights * residual ** 2, axis=1) \
            + 0.5 * obj.gamma * np.sum((pts - obj.anchor) ** 2, axis=1)
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
        obj = mn.MbirObjective(f, gamma, z, mn.FeasibleSet.all())
        mat = op.matrix.toarray()
        h = mat.T @ mat + gamma * np.eye(n * n)
        x_star = np.linalg.solve(h, mat.T @ y + gamma * z)
        x_apg = mn.apg_solve(obj, np.zeros(n * n), 10)
        assert obj.value(x_apg) - obj.value(x_star) <= 1e-8

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

        m_tilde = mn.diag_majorizer(datafit).shifted(gamma)
        x = x0.data.copy()
        for i in range(20):
            z = (1.0 - rho) * x + rho * refiner(x.reshape(shape)).ravel()
            obj = mn.MbirObjective(datafit, gamma, z, feasible)
            x = np.asarray(mn.mbir_step(x, obj, m_tilde))
            assert np.array_equal(x, trace.records[i + 1].x)


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
