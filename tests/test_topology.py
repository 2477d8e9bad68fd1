import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topowalk import NumericalError, momentum_unitary, phase_diagram, topology, winding_number
from topowalk.topology import GAP_THRESHOLD, PLANARITY_TOL
from oracles import (
    axis_from_eigendecomposition,
    reference_momentum_unitary,
    reference_phase_grids,
)

ANCHOR_WINDING_1 = (-np.pi / 2, np.pi / 4)
ANCHOR_WINDING_0 = (-np.pi / 2, 3 * np.pi / 4)

# frozen from the 64x64 grid reference run at 256 k-points
DIAGRAM_COUNTS_64 = {-1: 126, 0: 1985, 1: 1985}

angle_st = st.floats(-np.pi, np.pi, allow_nan=False)


class TestMomentumUnitary:
    def test_identity_at_zero(self):
        assert_allclose(momentum_unitary(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)

    def test_hand_product_at_k_zero(self):
        # at k = 0 the shifts drop out and the two rotations compose:
        # R(pi/4) R(-pi/2) = R(-pi/4)
        u = momentum_unitary(*ANCHOR_WINDING_1, 0.0)
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        assert_allclose(u, np.array([[c, s], [-s, c]]), atol=1e-14)

    def test_unitarity_random_sample(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            t1, t2, k = rng.uniform(-np.pi, np.pi, 3)
            u = momentum_unitary(t1, t2, k)
            worst = max(worst, float(np.abs(u.conj().T @ u - np.eye(2)).max()))
        assert worst < 1e-12

    def test_batched_k(self):
        k = np.linspace(-np.pi, np.pi, 17)
        u = momentum_unitary(0.3, -0.7, k)
        assert u.shape == (17, 2, 2)
        assert_allclose(u[3], momentum_unitary(0.3, -0.7, float(k[3])), atol=1e-15)

    def test_equals_the_einsum_reference(self):
        # the written-out 2x2 product gives the generic einsum's values exactly
        rng = np.random.default_rng(7)
        k = -np.pi + 2 * np.pi * np.arange(256) / 256
        for t1, t2 in rng.uniform(-2 * np.pi, 2 * np.pi, (200, 2)):
            assert np.array_equal(momentum_unitary(t1, t2, k), reference_momentum_unitary(t1, t2, k))


class TestWindingNumber:
    def test_anchor_winding_one(self):
        assert winding_number(*ANCHOR_WINDING_1).winding == 1

    def test_anchor_winding_zero(self):
        assert winding_number(*ANCHOR_WINDING_0).winding == 0

    def test_grid_refinement_invariance(self):
        for point in (ANCHOR_WINDING_1, ANCHOR_WINDING_0):
            verdicts = {winding_number(*point, k).winding for k in (256, 1024)}
            assert len(verdicts) == 1

    def test_gapless_parameters_have_no_winding(self):
        verdict = winding_number(0.0, 0.0)
        assert verdict.winding is None
        assert verdict.gap <= GAP_THRESHOLD

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            winding_number(0.1, 0.2, k_points=32)

    def test_gap_value(self):
        # cos E = cos(t1/2) cos(t2/2) cos k - sin(t1/2) sin(t2/2), extremal at cos k = +-1
        t1, t2 = ANCHOR_WINDING_1
        verdict = winding_number(t1, t2)
        c = np.cos(t1 / 2) * np.cos(t2 / 2)
        s = np.sin(t1 / 2) * np.sin(t2 / 2)
        expected_gap = min(np.arccos(min(abs(c) + abs(s), 1.0)), np.pi - np.arccos(max(-abs(c) - abs(s), -1.0)))
        assert_allclose(verdict.gap, expected_gap, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("angles", [(float("nan"), 0.0), (float("inf"), 0.3), (0.2, -float("inf"))])
    def test_non_finite_angle_is_numerical_error(self, angles):
        with pytest.raises(NumericalError, match="gap is nan"):
            winding_number(*angles)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])  # a NaN comparison fails the guard
    def test_axes_off_a_common_plane_are_numerical_error(self, monkeypatch, tol):
        monkeypatch.setattr(topology, "PLANARITY_TOL", tol)
        with pytest.raises(NumericalError, match="common plane"):
            winding_number(*ANCHOR_WINDING_1)

    def test_zone_phase_is_shared_and_read_only(self):
        phase = topology._zone_phase(1024)
        assert topology._zone_phase(1024) is phase
        with pytest.raises(ValueError):
            phase[0] = 1.0

    @given(angle_st, angle_st)
    @settings(max_examples=40, deadline=None)
    def test_integer_stability_under_refinement(self, t1, t2):
        coarse = winding_number(t1, t2, 256)
        if coarse.winding is None or coarse.gap < 1e-3:
            return
        fine = winding_number(t1, t2, 1024)
        assert fine.winding == coarse.winding

    def test_shifted_grid_origin_gives_same_verdict(self):
        # recompute the axis walk from eigendecomposition axes on a rigidly shifted grid
        for t1, t2, expected in (ANCHOR_WINDING_1 + (1,), ANCHOR_WINDING_0 + (0,)):
            shift = np.pi / 7
            k = -np.pi + shift + 2 * np.pi * np.arange(257) / 257
            axes = np.array([axis_from_eigendecomposition(momentum_unitary(t1, t2, kk)) for kk in k])
            _, eigvecs = np.linalg.eigh(axes.T @ axes)
            normal = eigvecs[:, 0]
            e1 = axes[0]
            e2 = np.cross(normal, e1)
            phi = np.arctan2(axes @ e2, axes @ e1)
            steps = np.diff(phi, append=phi[:1])
            steps = (steps + np.pi) % (2 * np.pi) - np.pi
            assert round(abs(steps.sum()) / (2 * np.pi)) == expected

    @given(angle_st, angle_st)
    @settings(max_examples=40, deadline=None)
    def test_axes_coplanar_when_gapped(self, t1, t2):
        # the verdict's gap covers the same 128 k-points, so every axis is defined
        verdict = winding_number(t1, t2, 128)
        if verdict.winding is None or verdict.gap < 1e-3:
            return
        k = -np.pi + 2 * np.pi * np.arange(128) / 128
        u = momentum_unitary(t1, t2, k)
        axes = np.array([axis_from_eigendecomposition(u[i]) for i in range(128)])
        _, eigvecs = np.linalg.eigh(axes.T @ axes)
        assert np.abs(axes @ eigvecs[:, 0]).max() < PLANARITY_TOL


@pytest.fixture(scope="module")
def diagram64():
    return phase_diagram(64, 256)


class TestPhaseDiagram:
    def test_contains_anchor_verdicts(self):
        pd = phase_diagram(16, 256)
        t = pd.theta1_values
        i1 = int(np.argmin(np.abs(t - ANCHOR_WINDING_1[0])))
        j1 = int(np.argmin(np.abs(t - ANCHOR_WINDING_1[1])))
        j0 = int(np.argmin(np.abs(t - ANCHOR_WINDING_0[1])))
        assert abs(t[i1] - ANCHOR_WINDING_1[0]) < 1e-12  # anchors lie on the grid
        assert pd.winding[i1, j1] == 1
        assert pd.winding[i1, j0] == 0

    def test_counts_regression(self, diagram64):
        vals, counts = np.unique(diagram64.winding, return_counts=True)
        assert {int(v): int(c) for v, c in zip(vals, counts)} == DIAGRAM_COUNTS_64

    def test_swap_complements_winding(self, diagram64):
        # empirical symmetry of the reference run: exchanging the two angles
        # flips the verdict wherever both cells are gapped
        w = diagram64.winding
        defined = (w >= 0) & (w.T >= 0)
        assert np.array_equal(w.T[defined], 1 - w[defined])

    def test_negating_both_angles_preserves_winding(self, diagram64):
        w = diagram64.winding
        n = w.shape[0]
        idx = (-np.arange(n)) % n
        flipped = w[np.ix_(idx, idx)]
        defined = (w >= 0) & (flipped >= 0)
        assert np.array_equal(flipped[defined], w[defined])

    def test_boundary_cells_separate_phases(self, diagram64):
        w = diagram64.winding
        n = w.shape[0]
        for di, dj in ((1, 0), (0, 1)):
            a = w[: n - di, : n - dj]
            b = w[di:, dj:]
            both = (a >= 0) & (b >= 0)
            assert np.all(a[both] == b[both])

    def test_gap_marks_boundary(self, diagram64):
        boundary = diagram64.winding < 0
        assert np.all(diagram64.gap[boundary] <= GAP_THRESHOLD)
        assert np.all(diagram64.gap[~boundary] > GAP_THRESHOLD)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            phase_diagram(8)

    def test_equals_the_per_point_reference(self):
        # same verdicts and the same gap bytes as the einsum / np.cross arithmetic
        pd = phase_diagram(24, 1024)
        winding, gap = reference_phase_grids(24, 1024)
        assert np.array_equal(pd.winding, winding)
        assert pd.gap.tobytes() == gap.tobytes()

    def test_peak_memory_stays_flat(self):
        # one grid point at a time peaks at ~0.3 MiB; 16-point batches take ~5 MiB
        phase_diagram(16, 1024)
        tracemalloc.start()
        try:
            phase_diagram(16, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
