import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topowalk import (
    DisorderSpec,
    LatticeWindow,
    NumericalError,
    coin_coefficients,
    load_config,
    make_single_state,
    pair_coin_density_from_singles,
    phase_diagram,
    run,
    sample_angle_field,
    split_coins,
    topology,
    trajectory,
    von_neumann_entropy,
    winding_number,
)
from topowalk.topology import GAP_THRESHOLD
from oracles import (
    PLANARITY_TOL,
    axis_from_eigendecomposition,
    momentum_walk,
    per_point_diagonal,
    per_point_verdict,
    reference_momentum_unitary,
    reference_phase_grids,
    reference_winding_number,
    walker_amps,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

ANCHOR_WINDING_1 = (-np.pi / 2, np.pi / 4)
ANCHOR_WINDING_0 = (-np.pi / 2, 3 * np.pi / 4)

# frozen from the 64x64 grid reference run at 256 k-points
DIAGRAM_COUNTS_64 = {-1: 126, 0: 1985, 1: 1985}

angle_st = st.floats(-np.pi, np.pi, allow_nan=False)
wide_angle_st = st.floats(-2 * np.pi, 2 * np.pi, exclude_max=True)
even_k_st = st.sampled_from([64, 100, 256, 1024])
# 1e-6 to 1e-2 in size, log-uniform, either sign
offset_st = st.builds(lambda e, sign: sign * 10.0**e, st.floats(-6, -2), st.sampled_from([-1, 1]))


def diagonal(theta1, theta2, k):
    """U(k)'s two diagonal entries, (..., 2) over k, as the per-point gap reference builds them."""
    k = np.asarray(k, dtype=float)  # raveled, as numpy's scalar math rounds unlike its array loops
    entries = per_point_diagonal(theta1, theta2, np.exp(1j * k.ravel()))
    return np.stack(entries, -1).reshape(k.shape + (2,))


class TestMomentumUnitary:
    def test_identity_at_zero(self):
        assert_allclose(reference_momentum_unitary(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)

    def test_hand_product_at_k_zero(self):
        # at k = 0 the shifts drop out and the two rotations compose:
        # R(pi/4) R(-pi/2) = R(-pi/4)
        u = reference_momentum_unitary(*ANCHOR_WINDING_1, 0.0)
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        assert_allclose(u, np.array([[c, s], [-s, c]]), atol=1e-14)

    def test_unitarity_random_sample(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            t1, t2, k = rng.uniform(-np.pi, np.pi, 3)
            u = reference_momentum_unitary(t1, t2, k)
            worst = max(worst, float(np.abs(u.conj().T @ u - np.eye(2)).max()))
        assert worst < 1e-12

    def test_batched_k(self):
        k = np.linspace(-np.pi, np.pi, 17)
        u = reference_momentum_unitary(0.3, -0.7, k)
        assert u.shape == (17, 2, 2)
        assert_allclose(u[3], reference_momentum_unitary(0.3, -0.7, float(k[3])), atol=1e-15)

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (257,), (2, 3)])
    def test_equals_the_einsum_reference_for_any_k_shape(self, shape):
        # lengths off a multiple of the SIMD width run the vector loops' tails
        rng = np.random.default_rng(11)
        k = rng.uniform(-np.pi, np.pi, shape)
        for t1, t2 in rng.uniform(-2 * np.pi, 2 * np.pi, (20, 2)):
            u = diagonal(t1, t2, k)
            assert u.shape == shape + (2,)
            assert np.array_equal(u, np.diagonal(reference_momentum_unitary(t1, t2, k), axis1=-2, axis2=-1))

    def test_equals_the_einsum_reference(self):
        # the written-out 2x2 product gives the generic einsum's values exactly
        rng = np.random.default_rng(7)
        k = -np.pi + 2 * np.pi * np.arange(256) / 256
        for t1, t2 in rng.uniform(-2 * np.pi, 2 * np.pi, (200, 2)):
            reference = np.diagonal(reference_momentum_unitary(t1, t2, k), axis1=-2, axis2=-1)
            assert np.array_equal(diagonal(t1, t2, k), reference)


class TestMomentumWalk:
    """U(k), the operator behind the phase diagram, is the Fourier transform of the walk under split_coins."""

    @given(
        wide_angle_st,
        wide_angle_st,
        st.floats(0, np.pi / 2),
        st.floats(-np.pi, np.pi),
        st.integers(-5, 5),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_stepped_walk(self, t1, t2, mix, relative_phase, x0, steps):
        coin = (np.cos(mix), np.exp(1j * relative_phase) * np.sin(mix))
        window = LatticeWindow(steps + 1 + abs(x0))  # the auto window: the walker never reaches an edge
        field = sample_angle_field((t1, t2), DisorderSpec(), steps, window, "a", 0)
        *_, block = trajectory(make_single_state(window, x0, coin), split_coins(field))
        amps = block[-1]
        assert_allclose(momentum_walk(t1, t2, window, x0, coin, steps), amps, rtol=0, atol=1e-12)

    def test_clean_pair_entropies_equal_run(self):
        # the pair route's entropies at every step, from lone walkers stepped in momentum space
        config = load_config(CONFIG_DIR / "fig3a_4a_tptpw_clean.json")
        artifacts = run(config)
        window = LatticeWindow(int(artifacts.positions.max()))
        coefficients = coin_coefficients(config.initial_state)
        entropies = []
        for steps in range(config.steps + 1):
            walkers = [
                walker_amps(*(momentum_walk(*config.angles[p], window, x, c, steps) for c in ((1, 0), (0, 1))))
                for p, x in zip("ab", config.initial_state.positions)
            ]
            # real starts under real coins walk real; the transforms leave rounding in the imaginary parts
            walkers = np.stack(walkers, -1).real
            entropies.append(von_neumann_entropy(pair_coin_density_from_singles(walkers, coefficients)))
        assert_allclose(entropies, artifacts.entropy, rtol=0, atol=1e-9)


class TestWindingNumber:
    def test_anchor_winding_one(self):
        assert winding_number(*ANCHOR_WINDING_1).winding == 1

    def test_anchor_winding_zero(self):
        assert winding_number(*ANCHOR_WINDING_0).winding == 0

    @staticmethod
    def assert_refinement_only_narrows_the_gap(t1, t2, k_points):
        # the K grid is a bit-exact subset of the 4K grid, so the finer gap is a minimum over
        # more of the same values, and a verdict, which reads only the gap, cannot change
        coarse, fine = winding_number(t1, t2, k_points), winding_number(t1, t2, 4 * k_points)
        assert fine.gap <= coarse.gap
        assert fine.winding == coarse.winding

    @pytest.mark.parametrize("k_points", [64, 256])
    def test_grid_refinement_invariance(self, k_points):
        assert np.array_equal(topology._zone_phase(4 * k_points)[::4], topology._zone_phase(k_points))
        for point in (ANCHOR_WINDING_1, ANCHOR_WINDING_0, (0.3, 0.3 + 2e-6), (0.0, 0.0)):
            self.assert_refinement_only_narrows_the_gap(*point, k_points)

    def test_gapless_parameters_have_no_winding(self):
        verdict = winding_number(0.0, 0.0)
        assert verdict.winding is None
        assert verdict.gap <= GAP_THRESHOLD

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            winding_number(0.1, 0.2, k_points=32)

    @pytest.mark.parametrize("k_points", [100.5, True, "100"])
    def test_rejects_a_k_points_that_is_not_an_integer(self, k_points):
        # 100.5 points spaced 2 pi / 100.5 would not close the zone
        with pytest.raises(ValueError, match="k_points must be an integer"):
            winding_number(*ANCHOR_WINDING_1, k_points)

    @pytest.mark.parametrize("k_points", [100.0, np.int32(100), np.uint64(100)])
    def test_integral_k_points_of_any_type_match_the_int(self, k_points):
        assert winding_number(*ANCHOR_WINDING_1, k_points) == winding_number(*ANCHOR_WINDING_1, 100)

    def test_gap_value(self):
        # cos E = cos(t1/2) cos(t2/2) cos k - sin(t1/2) sin(t2/2), extremal at cos k = +-1
        t1, t2 = ANCHOR_WINDING_1
        verdict = winding_number(t1, t2)
        c = np.cos(t1 / 2) * np.cos(t2 / 2)
        s = np.sin(t1 / 2) * np.sin(t2 / 2)
        expected_gap = min(np.arccos(min(abs(c) + abs(s), 1.0)), np.pi - np.arccos(max(-abs(c) - abs(s), -1.0)))
        assert_allclose(verdict.gap, expected_gap, atol=1e-6)

    @pytest.mark.parametrize(
        "angles",
        [
            (float("nan"), 0.0),
            (float("inf"), 0.3),
            (0.2, -float("inf")),
            (float("nan"), float("nan")),
            (-float("inf"), float("inf")),
        ],
    )
    def test_non_finite_angle_is_numerical_error(self, angles):
        # checked before the coins are built: math.cos(inf) raises ValueError
        with pytest.raises(NumericalError, match="gap is nan"):
            winding_number(*angles)

    @pytest.mark.parametrize("angle_type", [int, np.float64, np.float32])
    def test_angle_types_match_the_float(self, angle_type):
        # the float32 values are exact in float64, so the float they convert to is the reference
        for t1, t2 in (ANCHOR_WINDING_1, ANCHOR_WINDING_0, (3.0, -1.0), (0.0, 2.0), (-3.0, 3.0), (1.0, 1.0)):
            a1, a2 = angle_type(t1), angle_type(t2)
            verdict, expected = winding_number(a1, a2, 256), winding_number(float(a1), float(a2), 256)
            assert verdict.winding == expected.winding
            assert np.float64(verdict.gap).tobytes() == np.float64(expected.gap).tobytes()

    @pytest.mark.parametrize("k_points", [65, 257, 1023])
    def test_rejects_an_odd_k_points(self, k_points):
        # an odd grid skips k = 0, where the gap closes on theta1 = -theta2
        with pytest.raises(ValueError, match="k_points must be even"):
            winding_number(*ANCHOR_WINDING_1, k_points)

    def test_zone_phase_is_shared_and_read_only(self):
        phase = topology._zone_phase(1024)
        assert topology._zone_phase(1024) is phase
        assert topology._phases(1024) is topology._phases(1024)
        for array in (phase, *(array for pair in topology._phases(1024) for array in pair)):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @given(angle_st, angle_st, st.sampled_from([64, 256]))
    @settings(max_examples=40, deadline=None)
    def test_integer_stability_under_refinement(self, t1, t2, k_points):
        self.assert_refinement_only_narrows_the_gap(t1, t2, k_points)

    def test_shifted_grid_origin_gives_same_verdict(self):
        # recompute the axis walk from eigendecomposition axes on a rigidly shifted grid
        for t1, t2, expected in (ANCHOR_WINDING_1 + (1,), ANCHOR_WINDING_0 + (0,)):
            shift = np.pi / 7
            k = -np.pi + shift + 2 * np.pi * np.arange(257) / 257
            axes = np.array([axis_from_eigendecomposition(reference_momentum_unitary(t1, t2, kk)) for kk in k])
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
        u = reference_momentum_unitary(t1, t2, k)
        axes = np.array([axis_from_eigendecomposition(u[i]) for i in range(128)])
        _, eigvecs = np.linalg.eigh(axes.T @ axes)
        assert np.abs(axes @ eigvecs[:, 0]).max() < PLANARITY_TOL


class TestClosedFormVerdict:
    """The closed-form verdict against the numerical turning-angle count of the oracle."""

    @staticmethod
    def assert_matches_the_oracle(t1, t2, k_points):
        verdict = winding_number(t1, t2, k_points)
        winding, gap = reference_winding_number(t1, t2, k_points)
        assert verdict.winding == winding
        assert np.float64(verdict.gap).tobytes() == np.float64(gap).tobytes()

    @given(wide_angle_st, wide_angle_st, even_k_st)
    @settings(max_examples=150, deadline=None)
    def test_random_angles(self, t1, t2, k_points):
        self.assert_matches_the_oracle(t1, t2, k_points)

    @given(
        wide_angle_st,
        st.sampled_from([1, -1]),
        st.sampled_from([-2 * np.pi, 0.0, 2 * np.pi]),
        offset_st,
        even_k_st,
    )
    @settings(max_examples=150, deadline=None)
    def test_near_the_phase_boundaries(self, t1, sign, shift, offset, k_points):
        # the gap closes on theta2 = +-theta1 and theta2 = +-theta1 +- 2 pi
        self.assert_matches_the_oracle(t1, sign * t1 + shift + offset, k_points)

    @given(
        st.sampled_from([(0.0, 0.0), (np.pi, np.pi), (np.pi, -np.pi), (-np.pi, np.pi), (-np.pi, -np.pi)]),
        offset_st,
        offset_st,
        even_k_st,
    )
    @settings(max_examples=150, deadline=None)
    def test_near_the_corners_where_the_boundaries_cross(self, corner, d1, d2, k_points):
        self.assert_matches_the_oracle(corner[0] + d1, corner[1] + d2, k_points)


@pytest.fixture(scope="module")
def diagram64():
    return phase_diagram(64, 256)


class TestPhaseDiagram:
    def test_contains_anchor_verdicts(self):
        pd = phase_diagram(16, 256)
        t = pd.thetas
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

    @pytest.mark.parametrize("grid_n,k_points", [(16, 64), (24, 1024)])
    def test_every_cell_equals_winding_number(self, grid_n, k_points):
        # winding_number is the kernel's 1x1 grid; at 1,024 k-points the theta = -pi row's 24 points
        # take three chunks of 8 columns
        pd = phase_diagram(grid_n, k_points)
        for i, j in np.ndindex(grid_n, grid_n):
            verdict = winding_number(float(pd.thetas[i]), float(pd.thetas[j]), k_points)
            assert pd.winding[i, j] == (-1 if verdict.winding is None else verdict.winding)
            assert pd.gap[i, j].tobytes() == np.float64(verdict.gap).tobytes()

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            phase_diagram(8)

    @pytest.mark.parametrize("grid_n", [16.5, False, "16"])
    def test_rejects_a_grid_n_that_is_not_an_integer(self, grid_n):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            phase_diagram(grid_n, 64)

    def test_rejects_a_fractional_k_points(self):
        with pytest.raises(ValueError, match="k_points must be an integer"):
            phase_diagram(16, 64.5)

    def test_rejects_an_odd_k_points(self):
        # at 257 k-points the theta1 = -theta2 cells (1, 15), (5, 11) and (13, 3) look gapped
        with pytest.raises(ValueError, match="k_points must be even"):
            phase_diagram(16, 257)

    def test_integral_grid_n_of_any_type_matches_the_int(self):
        expected = phase_diagram(16, 64)
        for grid_n in (16.0, np.int64(16)):
            pd = phase_diagram(grid_n, 64)
            assert np.array_equal(pd.winding, expected.winding)
            assert pd.gap.tobytes() == expected.gap.tobytes()

    def test_equals_the_per_point_reference(self):
        # same verdicts and the same gap bytes as the einsum / np.cross arithmetic
        pd = phase_diagram(24, 1024)
        winding, gap = reference_phase_grids(24, 1024)
        assert np.array_equal(pd.winding, winding)
        assert pd.gap.tobytes() == gap.tobytes()

    @pytest.mark.parametrize("grid_n,k_points", [(16, 64), (20, 258), (16, 1000)])
    def test_ragged_k_grids_equal_the_per_point_reference(self, grid_n, k_points):
        # k counts off a multiple of the SIMD width run the vector loops' tails
        pd = phase_diagram(grid_n, k_points)
        winding, gap = reference_phase_grids(grid_n, k_points)
        assert np.array_equal(pd.winding, winding)
        assert pd.gap.tobytes() == gap.tobytes()

    def test_peak_memory_stays_flat(self):
        # the theta = -pi row's chunks take every k: u00 and u11 of 2**13 amplitudes and their real sums,
        # 0.31 MiB of the 0.57 MiB peak; a prototype of 16-point batches took ~5 MiB
        phase_diagram(16, 1024)
        tracemalloc.start()
        try:
            phase_diagram(16, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_work_arrays_are_capped(self):
        # the capped work arrays of the theta = -pi row and column take 0.31 MiB, and the k rows, the
        # grids and numpy's iteration buffers the rest of the 0.51 MiB peak; uncapped (theta2, k) work
        # arrays take 10 MiB
        phase_diagram(64, 4096)
        tracemalloc.start()
        try:
            phase_diagram(64, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2**20


FLOOR = topology._COIN_FLOOR
# the bound on the rounding of cos E that the column rule's comment in topology.py states
ROUNDING_BOUND = 2.0**-48


def near_floor(ratio, sign, turn):
    """An angle near sign * pi whose |cos(theta/2)| is ratio times the coin floor."""
    return sign * (2 * math.acos(ratio * FLOOR) - turn)


# angles on both sides of the coin floor: +-pi, +-pi off by 1e-6 to 1e-2, and |cos(theta/2)| just
# above and just below the floor
edge_angle_st = st.one_of(
    wide_angle_st,
    st.sampled_from([np.pi, -np.pi]),
    st.builds(lambda sign, offset: sign * np.pi + offset, st.sampled_from([1, -1]), offset_st),
    st.builds(
        near_floor, st.sampled_from([1 - 1e-9, 1 + 1e-9]), st.sampled_from([1, -1]), st.sampled_from([0, 2 * np.pi])
    ),
)

# angle lists that hold theta1 = theta2 and theta1 = -theta2 cells, where the gap closes
angle_lists_st = st.lists(edge_angle_st, min_size=1, max_size=20).flatmap(
    lambda angles: st.tuples(
        st.just(angles),
        st.lists(st.sampled_from(angles), min_size=1, max_size=8).flatmap(
            lambda same: st.lists(edge_angle_st, max_size=12).map(lambda other: same + [-t for t in same] + other)
        ),
    )
)


class TestGapGrid:
    """The grid kernel against the per-point gap reference, byte for byte."""

    @given(angle_lists_st, st.sampled_from([64, 66, 256, 1024, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_point_reference(self, angle_lists, k_points):
        thetas1, thetas2 = angle_lists
        gap = topology._gap_grid(thetas1, thetas2, k_points)
        assert gap.shape == (len(thetas1), len(thetas2))
        for i, j in np.ndindex(gap.shape):
            winding, expected = per_point_verdict(thetas1[i], thetas2[j], k_points)
            verdict = winding_number(thetas1[i], thetas2[j], k_points)
            assert gap[i, j].tobytes() == np.float64(expected).tobytes()
            assert (verdict.winding, np.float64(verdict.gap).tobytes()) == (winding, gap[i, j].tobytes())

    @pytest.mark.parametrize("ratio,below", [(1 - 1e-9, True), (1 + 1e-9, False)])
    @pytest.mark.parametrize("k_points", [64, 1024, 4096])
    def test_angles_across_the_floor_equal_the_per_point_reference(self, ratio, below, k_points):
        thetas = [near_floor(ratio, sign, turn) for sign in (1, -1) for turn in (0, 2 * np.pi)]
        assert all((abs(math.cos(t / 2)) < FLOOR) == below for t in thetas)
        others = thetas + [np.pi, -np.pi, 0.0, 1.0, -2.5, np.pi - 1e-3]
        gap = topology._gap_grid(thetas, others, k_points)
        for i, j in np.ndindex(gap.shape):
            assert gap[i, j].tobytes() == np.float64(per_point_verdict(thetas[i], others[j], k_points)[1]).tobytes()

    @pytest.mark.parametrize("grid_n,k_points", [(20, 1024), (17, 4096), (16, 66), (16, 1024), (24, 1024), (64, 1024)])
    def test_phase_diagram_equals_the_per_point_reference(self, grid_n, k_points):
        # 1,024 and 4,096 k-points chunk the theta = -pi row's 20 and 17 columns unevenly, as 8 + 8 + 4
        # and 8 * 2 + 1; 16, 20 and 24 points a side are the benchmark's grids and 64 is fig2's
        pd = phase_diagram(grid_n, k_points)
        for i, j in np.ndindex(grid_n, grid_n):
            winding, gap = per_point_verdict(float(pd.thetas[i]), float(pd.thetas[j]), k_points)
            assert pd.winding[i, j] == (-1 if winding is None else winding)
            assert pd.gap[i, j].tobytes() == np.float64(gap).tobytes()


class TestColumnRule:
    """The facts the column rule in topology.py rests on."""

    @given(edge_angle_st, edge_angle_st, st.sampled_from([64, 1024]))
    @settings(max_examples=40, deadline=None)
    def test_cos_e_lies_within_the_stated_rounding_bound(self, t1, t2, k_points):
        # cos E as the kernel computes it, against A Re(e^{ik}) - B in exact rationals
        phase = topology._zone_phase(k_points)
        u00, u11 = per_point_diagonal(t1, t2, phase)
        cos_e = (u00.real + u11.real) * 0.5
        c1, s1, c2, s2 = (Fraction(f(t / 2)) for t in (t1, t2) for f in (math.cos, math.sin))
        a, b = c1 * c2, s1 * s2
        worst = max(abs(Fraction(v) - (a * Fraction(r) - b)) for r, v in zip(phase.real.tolist(), cos_e.tolist()))
        assert worst <= ROUNDING_BOUND
        assert ROUNDING_BOUND < topology._MARGIN

    @pytest.mark.parametrize("k_points", [64, 66, 100, 1000, 1024, 4096, 8190, 8192, 16384])
    def test_keeps_k_zero_and_minus_pi_alone_up_to_8192_points(self, k_points):
        # Re e^{ik} is exactly -1 at k = -pi and 1 at k = 0; beyond 8,192 points the columns next to
        # them lie within the slack as well
        phase = topology._zone_phase(k_points)
        (every, every_conj), (extreme, extreme_conj) = topology._phases(k_points)
        assert np.array_equal(every, phase) and np.array_equal(every_conj, phase.conj())
        assert np.array_equal(extreme_conj, extreme.conj())
        assert phase[0].real == -1.0 and phase[k_points // 2].real == 1.0
        half = k_points // 2
        kept = [0, half] if k_points <= 8192 else [0, 1, half - 1, half, half + 1, k_points - 1]
        assert np.array_equal(extreme, phase[kept])

    def test_points_that_clear_the_floor_skip_the_full_k_work(self):
        # no angle of this half-step-shifted grid lies within 2**-7 of pi, so every point takes two
        # k-points: a 0.28 MiB peak, where the same grid over every k peaks at 0.51 MiB
        thetas = (-np.pi + 2 * np.pi * (np.arange(64) + 0.5) / 64).tolist()
        assert min(abs(math.cos(t / 2)) for t in thetas) >= FLOOR
        topology._gap_grid(thetas, thetas, 4096)
        tracemalloc.start()
        try:
            topology._gap_grid(thetas, thetas, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**17
