import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mbirnet as mn


class TestSoftThreshold:
    def test_mixed_signs(self):
        out = mn.soft_threshold(np.array([2.5, -0.5, 1.0]), 1.0)
        assert np.array_equal(out, [1.5, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        u = np.array([0.3, -2.0, 0.0])
        assert np.array_equal(mn.soft_threshold(u, 0.0), u)

    def test_negative_branch(self):
        assert mn.soft_threshold(np.array([-3.0]), 1.0) == np.array([-2.0])

    def test_tie_maps_to_zero(self):
        assert mn.soft_threshold(np.array([1.0, -1.0]), 1.0) == pytest.approx([0.0, 0.0])

    @pytest.mark.parametrize("case", ["scalar", "per-entry", "wider-than-u"])
    def test_bits_equal_the_where_formula(self, rng, case):
        special = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, -np.nan]
        u = np.concatenate([3.0 * rng.standard_normal(250), special])
        if case == "scalar":
            alpha = 1.5  # ties at +-1.5
        elif case == "per-entry":
            alpha = rng.uniform(0.0, 2.0, u.size)
            alpha[:250:2] = np.abs(u[:250:2])  # ties
            alpha[-4:] = [np.inf, 0.0, 0.0, np.inf]
        else:
            alpha = np.array([[0.0], [1.5], [np.inf]])  # broadcasts u to (3, 258)
        with np.errstate(invalid="ignore"):  # inf - inf in lanes that end up 0
            want = np.where(np.abs(u) > alpha, u - alpha * np.sign(u), 0.0)
            got = mn.soft_threshold(u, alpha)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            mn.soft_threshold(np.array([1.0]), -0.1)

    @pytest.mark.parametrize("alpha", ["scalar", "per-row"])
    def test_out_gives_the_allocating_bits(self, rng, alpha):
        special = [0.0, -0.0, 1.5, -1.5, np.nan, -np.nan, -0.2, -7.0]
        u = np.concatenate([3.0 * rng.standard_normal(248), special]).reshape(4, 64)
        a = 1.5 if alpha == "scalar" else np.array([[1.5], [0.0], [0.2], [7.0]])  # ties
        out = np.full(u.shape, 99.0)
        got = mn.soft_threshold(u, a, out=out)
        assert got is out
        assert out.tobytes() == mn.soft_threshold(u, a).tobytes()

    @pytest.mark.parametrize("view", ["same", "row", "reversed"])
    def test_out_sharing_memory_with_u_rejected(self, rng, view):
        # |u| written into out first would overwrite the signs copysign reads
        u = rng.standard_normal((3, 5))
        before = u.copy()
        out = {"same": u, "row": u.reshape(-1)[:15].reshape(3, 5),
               "reversed": u[::-1]}[view]
        with pytest.raises(ValueError, match="share memory"):
            mn.soft_threshold(u, 0.5, out=out)
        assert np.array_equal(u, before)

    def test_out_of_another_shape_rejected(self, rng):
        with pytest.raises(ValueError, match="shape"):
            mn.soft_threshold(rng.standard_normal(5), 0.5, out=np.empty((2, 5)))

    @settings(max_examples=50, deadline=None)
    @given(u=st.floats(-5, 5), alpha=st.floats(0, 3))
    def test_scalar_minimizer(self, u, alpha):
        # T_alpha(u) is the unique minimizer of 1/2 (t-u)^2 + alpha |t|
        t_star = float(mn.soft_threshold(np.array([u]), alpha)[0])
        obj = lambda t: 0.5 * (t - u) ** 2 + alpha * abs(t)
        grid = np.linspace(-6, 6, 24001)
        best = grid[np.argmin([obj(t) for t in grid])]
        assert abs(t_star - best) <= 6e-4  # one grid cell


class TestProxL1Metric:
    def test_identity_metric_reduces_to_soft_threshold(self):
        m = mn.DiagonalMajorizer(np.ones(1))
        assert mn.prox_l1_metric(np.array([2.5]), m, 1.0) == pytest.approx([1.5])

    def test_scaled_metric(self):
        m = mn.DiagonalMajorizer(np.array([2.0]))
        assert mn.prox_l1_metric(np.array([2.5]), m, 1.0) == pytest.approx([2.0])

    def test_zero_beta(self):
        z = np.array([0.4, -1.2])
        m = mn.DiagonalMajorizer(np.array([2.0, 5.0]))
        assert np.array_equal(mn.prox_l1_metric(z, m, 0.0), z)

    def test_matches_grid_minimizer(self, rng):
        # per-coordinate oracle: 1/2 M (u - z)^2 + beta |u| over a fine grid
        for _ in range(100):
            z = rng.uniform(-2, 2)
            md = rng.uniform(0.2, 4.0)
            beta = rng.uniform(0.0, 2.0)
            out = float(mn.prox_l1_metric(np.array([z]), mn.DiagonalMajorizer(np.array([md])),
                                          beta)[0])
            grid = np.arange(-2.5, 2.5, 1e-4)
            vals = 0.5 * md * (grid - z) ** 2 + beta * np.abs(grid)
            assert abs(out - grid[np.argmin(vals)]) <= 1e-4 + 1e-12

