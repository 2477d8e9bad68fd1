import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topowalk import (
    DisorderSpec,
    InitialPairState,
    LatticeWindow,
    STRONG_HALF_WIDTH,
    WEAK_HALF_WIDTH,
    coin_coefficients,
    iter_product_walkers,
    joint_distribution_interference,
    make_single_state,
    pair_coin_density_from_singles,
    position_distribution,
    sample_angle_field,
    split_coins,
    trajectory,
    von_neumann_entropy,
)
from topowalk import pair
from topowalk.errors import NumericalError, WindowOverflowError
from topowalk.experiments import ANGLES_WINDING_1, ANGLES_WINDING_0
from oracles import (
    JointDistribution,
    complex_joint_distribution,
    evolve_pair,
    iter_pair_trajectory,
    joint_distribution_direct,
    make_pair_state,
    marginals,
    pair_entropy_series,
    pair_walkers,
    pair_split_step,
    reduce_pair_to_coin,
    split_step,
    tensor_pair,
    two_gram_coin_density,
    walker_amps,
)

# frozen from the reference run of the clean two-phase pair walk
# (walker A at (-pi/2, pi/4), walker B at (-pi/2, 3pi/4), psi+, 100 steps)
TPTPW_S_FINAL = 1.9078984289940009
TPTPW_S_LONGMEAN = 1.907904301773915
TPTPW_JOINT_P00 = 2.198861177021983e-06
TPTPW_QUADRANTS = (0.2483782301898173, 0.2475932461044761, 0.2475932461044761, 0.24837823018981733)
TPTPW_MAX_CELL = (-68, 36, 0.004823980903377774)

# coin coefficient matrices of the (|01> +- |10>)/sqrt(2) pairs, by sign
PSI = {+1: coin_coefficients(InitialPairState("psi+")), -1: coin_coefficients(InitialPairState("psi-"))}


def run_single(window, coin, field, n_steps):
    s = make_single_state(window, 0, coin)
    for step in range(n_steps):
        s = split_step(s, field, step)
    return s


def clean_fields(window, n_steps, angles_a=ANGLES_WINDING_1, angles_b=ANGLES_WINDING_0):
    fa = sample_angle_field(angles_a, DisorderSpec(), n_steps, window, "a", 0)
    fb = sample_angle_field(angles_b, DisorderSpec(), n_steps, window, "b", 0)
    return fa, fb


class TestMakePairState:
    def test_separable(self):
        win = LatticeWindow(4)
        pair = make_pair_state(InitialPairState("sep"), win)
        i0 = win.index(0)
        assert pair.amps[i0, 0, i0, 1] == 1.0
        assert np.count_nonzero(pair.amps) == 1

    def test_psi_plus(self):
        win = LatticeWindow(4)
        pair = make_pair_state(InitialPairState("psi+"), win)
        i0 = win.index(0)
        assert_allclose(pair.amps[i0, 0, i0, 1], 1 / np.sqrt(2))
        assert_allclose(pair.amps[i0, 1, i0, 0], 1 / np.sqrt(2))

    def test_psi_minus_relative_sign(self):
        win = LatticeWindow(4)
        pair = make_pair_state(InitialPairState("psi-"), win)
        i0 = win.index(0)
        assert_allclose(pair.amps[i0, 1, i0, 0], -pair.amps[i0, 0, i0, 1])

    def test_positions_respected(self):
        win = LatticeWindow(6)
        pair = make_pair_state(InitialPairState("sep", (2, -3)), win)
        assert pair.amps[win.index(2), 0, win.index(-3), 1] == 1.0

    def test_rejects_positions_at_edge(self):
        with pytest.raises(ValueError):
            make_pair_state(InitialPairState("sep", (6, 0)), LatticeWindow(6))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialPairState("bell")

    @pytest.mark.parametrize(
        "positions",
        [(1.5, True), (True, 0), (0, 2.5), (0, "1"), (np.bool_(1), 0), (1, 2, 3), (1,), 5, None],
    )
    def test_rejects_positions_that_are_not_two_integers(self, positions):
        with pytest.raises(ValueError, match="positions must be two integers"):
            InitialPairState("sep", positions)

    def test_keeps_integral_positions(self):
        assert InitialPairState("sep", (np.int64(2), np.int32(-3))).positions == (2, -3)
        assert InitialPairState("sep", (2.0, -1)).positions == (2, -1)


class TestEvolvePair:
    def test_zero_steps(self):
        win = LatticeWindow(4)
        pair = make_pair_state(InitialPairState("psi+"), win)
        final, _ = evolve_pair(pair, *clean_fields(win, 0), 0)
        assert final is pair

    def test_product_input_equals_tensor_of_singles(self):
        n = 12
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        prod = tensor_pair(make_single_state(win, 0, (1, 0)), make_single_state(win, 0, (0, 1)))
        final, _ = evolve_pair(prod, fa, fb, n)
        ref = tensor_pair(run_single(win, (1, 0), fa, n), run_single(win, (0, 1), fb, n))
        assert np.abs(final.amps - ref.amps).max() < 1e-12

    def test_norm_preserved(self):
        n = 20
        win = LatticeWindow(n + 1)
        dis = DisorderSpec("uniform", STRONG_HALF_WIDTH, "both")
        fa = sample_angle_field(ANGLES_WINDING_1, dis, n, win, "a", 3)
        fb = sample_angle_field(ANGLES_WINDING_0, dis, n, win, "b", 3)
        pair = make_pair_state(InitialPairState("psi+"), win)
        final, _ = evolve_pair(pair, fa, fb, n)
        assert abs(final.norm() - 1.0) < 1e-12

    def test_each_particle_sees_its_own_field(self):
        # zero angles transport A's coin-0 right and B's coin-1 left
        win = LatticeWindow(3)
        zeros = np.zeros((2, win.size, 1))
        pair = make_pair_state(InitialPairState("sep"), win)
        out = pair_split_step(pair, zeros, zeros, 0)
        assert out.amps[win.index(1), 0, win.index(-1), 1] == 1.0


class TestJointDistributionDirect:
    def test_unevolved_psi_plus_is_origin_delta(self):
        win = LatticeWindow(4)
        pair = make_pair_state(InitialPairState("psi+"), win)
        joint = joint_distribution_direct(pair)
        assert_allclose(joint.values[win.index(0), win.index(0)], 1.0, atol=1e-12)
        assert_allclose(joint.values.sum(), 1.0, atol=1e-12)

    def test_product_state_factorizes(self):
        n = 8
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        a = run_single(win, (1, 0), fa, n)
        b = run_single(win, (0, 1), fb, n)
        joint = joint_distribution_direct(tensor_pair(a, b))
        expected = np.outer(position_distribution(a), position_distribution(b))
        assert np.abs(joint.values - expected).max() < 1e-12

    def test_separable_factorizes_at_every_step(self):
        n = 10
        win = LatticeWindow(n + 1)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "both")
        fa = sample_angle_field(ANGLES_WINDING_1, dis, n, win, "a", 5)
        fb = sample_angle_field(ANGLES_WINDING_0, dis, n, win, "b", 5)
        pair = make_pair_state(InitialPairState("sep"), win)
        for state in iter_pair_trajectory(pair, fa, fb, n):
            joint = joint_distribution_direct(state)
            pa, pb = marginals(joint)
            assert np.abs(joint.values - np.outer(pa, pb)).max() < 1e-10


class TestJointDistributionInterference:
    def test_unevolved_origin_delta(self):
        win = LatticeWindow(4)
        c0 = make_single_state(win, 0, (1, 0))
        c1 = make_single_state(win, 0, (0, 1))
        walkers = pair_walkers(walker_amps(c0, c1), walker_amps(c0, c1))
        joint = joint_distribution_interference(walkers, PSI[+1])
        assert_allclose(joint[win.index(0), win.index(0)], 1.0, atol=1e-14)

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("n_steps", [1, 2, 5, 10, 20])
    def test_matches_direct_tensor_evolution(self, sign, n_steps):
        win = LatticeWindow(n_steps + 1)
        fa, fb = clean_fields(win, n_steps)
        kind = "psi+" if sign > 0 else "psi-"
        pair = make_pair_state(InitialPairState(kind), win)
        final, _ = evolve_pair(pair, fa, fb, n_steps)
        direct = joint_distribution_direct(final)
        walkers = pair_walkers(
            walker_amps(run_single(win, (1, 0), fa, n_steps), run_single(win, (0, 1), fa, n_steps)),
            walker_amps(run_single(win, (1, 0), fb, n_steps), run_single(win, (0, 1), fb, n_steps)),
        )
        interf = joint_distribution_interference(walkers, PSI[sign])
        assert np.abs(direct.values - interf).max() < 1e-10
        assert abs(interf.sum() - 1.0) < 1e-10

    def test_normalized_for_any_fields(self):
        n = 7
        win = LatticeWindow(n + 1)
        dis = DisorderSpec("uniform", STRONG_HALF_WIDTH, "both")
        fa = sample_angle_field((0.2, 1.3), dis, n, win, "a", 9)
        fb = sample_angle_field((-1.0, 0.4), dis, n, win, "b", 9)
        walkers = pair_walkers(
            walker_amps(run_single(win, (1, 0), fa, n), run_single(win, (0, 1), fa, n)),
            walker_amps(run_single(win, (1, 0), fb, n), run_single(win, (0, 1), fb, n)),
        )
        joint = joint_distribution_interference(walkers, PSI[-1])
        assert abs(joint.sum() - 1.0) < 1e-10
        assert joint.min() >= 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([+1, -1]))
    @settings(max_examples=15, deadline=None)
    def test_matches_direct_for_arbitrary_fields(self, seed, n_steps, sign):
        rng = np.random.default_rng(seed)
        win = LatticeWindow(n_steps + 1)
        shape = (win.size, n_steps)
        fa = np.stack([rng.uniform(-np.pi, np.pi, shape), rng.uniform(-np.pi, np.pi, shape)])
        fb = np.stack([rng.uniform(-np.pi, np.pi, shape), rng.uniform(-np.pi, np.pi, shape)])
        kind = "psi+" if sign > 0 else "psi-"
        final, _ = evolve_pair(make_pair_state(InitialPairState(kind), win), fa, fb, n_steps)
        direct = joint_distribution_direct(final).values
        walkers = pair_walkers(
            walker_amps(run_single(win, (1, 0), fa, n_steps), run_single(win, (0, 1), fa, n_steps)),
            walker_amps(run_single(win, (1, 0), fb, n_steps), run_single(win, (0, 1), fb, n_steps)),
        )
        interf = joint_distribution_interference(walkers, PSI[sign])
        assert np.abs(direct - interf).max() < 1e-10

    @pytest.mark.parametrize("kind", ["sep", "psi+", "psi-"])
    def test_coin_coefficients_match_direct(self, kind):
        n = 9
        win = LatticeWindow(n + 1)
        dis = DisorderSpec("uniform", STRONG_HALF_WIDTH, "both")
        fa = sample_angle_field((0.4, -0.9), dis, n, win, "a", 13)
        fb = sample_angle_field((-1.7, 1.1), dis, n, win, "b", 13)
        init = InitialPairState(kind)
        final, _ = evolve_pair(make_pair_state(init, win), fa, fb, n)
        walkers = pair_walkers(
            walker_amps(run_single(win, (1, 0), fa, n), run_single(win, (0, 1), fa, n)),
            walker_amps(run_single(win, (1, 0), fb, n), run_single(win, (0, 1), fb, n)),
        )
        interf = joint_distribution_interference(walkers, coin_coefficients(init))
        assert np.abs(joint_distribution_direct(final).values - interf).max() < 1e-12

    def test_separable_terms_give_the_product_of_marginals(self):
        n = 6
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        c0_a, c1_a = run_single(win, (1, 0), fa, n), run_single(win, (0, 1), fa, n)
        c0_b, c1_b = run_single(win, (1, 0), fb, n), run_single(win, (0, 1), fb, n)
        walkers = pair_walkers(walker_amps(c0_a, c1_a), walker_amps(c0_b, c1_b))
        joint = joint_distribution_interference(walkers, coin_coefficients(InitialPairState("sep")))
        expected = np.outer(position_distribution(c0_a), position_distribution(c1_b))
        assert np.abs(joint - expected).max() < 1e-15

    def test_nan_input_fails_the_guards(self):
        win = LatticeWindow(3)
        c0 = make_single_state(win, 0, (1, 0))
        c1 = make_single_state(win, 0, (0, 1))
        c1[win.index(0), 1] = np.nan
        walkers = pair_walkers(walker_amps(c0, c1), walker_amps(c0, c1))
        with pytest.raises(NumericalError):
            joint_distribution_interference(walkers, PSI[+1])

    @pytest.mark.parametrize(
        "shape",
        [
            (7, 2, 2),  # one particle's walkers
            (7, 2, 2, 3),  # three particles
            (7, 2, 2, 3, 2),  # a cell axis: the joint distribution is one cell's
            (7, 2, 1, 2),  # one start coin
            (7, 1, 2, 2),  # one coin
            (2, 2, 2),  # no site axis
        ],
    )
    def test_rejects_walkers_of_any_other_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"walkers must have axes (site, 2, 2, 2), got shape {shape}")):
            joint_distribution_interference(np.zeros(shape), PSI[+1])

    @pytest.mark.parametrize("dtype", [complex, np.complex64, np.float32])
    def test_rejects_walkers_other_than_float64(self, dtype):
        # complex walkers took the complex route before; it is the tests' oracle now
        win = LatticeWindow(3)
        walkers = walker_amps(make_single_state(win, 0, (1, 0)), make_single_state(win, 0, (0, 1)))
        walkers = pair_walkers(walkers, walkers).astype(dtype)
        with pytest.raises(ValueError, match=f"walkers must be float64, got dtype {np.dtype(dtype)}$"):
            joint_distribution_interference(walkers, PSI[+1])

    def test_inconsistent_inputs_fail_normalization(self):
        # walkers evolved for different durations are physically inconsistent
        win = LatticeWindow(7)
        fa, fb = clean_fields(win, 6)
        walkers = walker_amps(run_single(win, (1, 0), fa, 6), run_single(win, (0, 1), fa, 4))
        with pytest.raises(NumericalError):
            joint_distribution_interference(pair_walkers(walkers, walkers), PSI[+1])


class TestCorrelations:
    @pytest.mark.parametrize("sign,kind", [(+1, "psi+"), (-1, "psi-")])
    def test_entangled_pairs_are_correlated(self, sign, kind):
        # the joint distribution must not factorize into its marginals
        n = 6
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        pair = make_pair_state(InitialPairState(kind), win)
        final, _ = evolve_pair(pair, fa, fb, n)
        joint = joint_distribution_direct(final)
        pa, pb = marginals(joint)
        assert np.abs(joint.values - np.outer(pa, pb)).max() > 1e-4

    @pytest.mark.parametrize("kind", ["psi+", "psi-"])
    def test_exchange_symmetry_identical_fields(self, kind):
        n = 15
        win = LatticeWindow(n + 1)
        field = sample_angle_field(ANGLES_WINDING_1, DisorderSpec(), n, win, "a", 0)
        pair = make_pair_state(InitialPairState(kind), win)
        final, _ = evolve_pair(pair, field, field, n)
        joint = joint_distribution_direct(final)
        assert np.abs(joint.values - joint.values.T).max() < 1e-12


class TestMarginals:
    def test_delta_joint(self):
        win = LatticeWindow(4)
        pair = make_pair_state(InitialPairState("psi+"), win)
        pa, pb = marginals(joint_distribution_direct(pair))
        assert_allclose(pa[win.index(0)], 1.0, atol=1e-12)
        assert_allclose(pb[win.index(0)], 1.0, atol=1e-12)

    def test_product_distribution_recovers_factors(self):
        win = LatticeWindow(3)
        rng = np.random.default_rng(4)
        pa = rng.random(win.size)
        pa /= pa.sum()
        pb = rng.random(win.size)
        pb /= pb.sum()
        joint = JointDistribution(win, np.outer(pa, pb))
        got_a, got_b = marginals(joint)
        assert np.abs(got_a - pa).max() < 1e-14
        assert np.abs(got_b - pb).max() < 1e-14

    def test_marginals_sum_to_one(self):
        n = 8
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        pair = make_pair_state(InitialPairState("psi+"), win)
        final, _ = evolve_pair(pair, fa, fb, n)
        pa, pb = marginals(joint_distribution_direct(final))
        assert abs(pa.sum() - 1.0) < 1e-10
        assert abs(pb.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("kind,sign", [("psi+", +1), ("psi-", -1)])
    def test_entangled_marginals_are_coin_mixtures(self, kind, sign):
        # each walker's marginal is the 50/50 mixture of its coin-0/coin-1 runs
        n = 12
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        pair = make_pair_state(InitialPairState(kind), win)
        final, _ = evolve_pair(pair, fa, fb, n)
        pa, pb = marginals(joint_distribution_direct(final))
        mix_a = 0.5 * (
            position_distribution(run_single(win, (1, 0), fa, n))
            + position_distribution(run_single(win, (0, 1), fa, n))
        )
        mix_b = 0.5 * (
            position_distribution(run_single(win, (1, 0), fb, n))
            + position_distribution(run_single(win, (0, 1), fb, n))
        )
        assert np.abs(pa - mix_a).max() < 1e-10
        assert np.abs(pb - mix_b).max() < 1e-10


class TestPairEntropy:
    def test_unevolved_separable_zero(self):
        win = LatticeWindow(4)
        series = pair_entropy_series([make_pair_state(InitialPairState("sep"), win)])
        assert len(series) == 1  # step 0 only
        assert series[0] < 1e-10

    def test_unevolved_psi_plus_zero(self):
        win = LatticeWindow(4)
        series = pair_entropy_series([make_pair_state(InitialPairState("psi+"), win)])
        assert series[0] < 1e-10

    def test_series_within_bounds(self):
        n = 12
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        pair = make_pair_state(InitialPairState("psi+"), win)
        series = pair_entropy_series(iter_pair_trajectory(pair, fa, fb, n))
        assert len(series) == n + 1  # steps 0..n
        assert all(0.0 <= s <= 2.0 + 1e-12 for s in series)

    def test_clean_two_phase_regression(self):
        # reference run: final entropy, long-time mean, and late fluctuation envelope
        n = 100
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        pair = make_pair_state(InitialPairState("psi+"), win)
        _, records = evolve_pair(
            pair, fa, fb, n,
            {"entropy": lambda s: von_neumann_entropy(reduce_pair_to_coin(s))},
        )
        ent = np.array(records["entropy"])
        assert_allclose(ent[-1], TPTPW_S_FINAL, atol=1e-9)
        assert_allclose(ent[-25:].mean(), TPTPW_S_LONGMEAN, atol=1e-9)
        assert np.abs(np.diff(ent[50:])).max() < 0.01

    def test_joint_regression_two_phase_walk(self):
        # frozen features of the 100-step clean two-phase joint distribution
        n = 100
        win = LatticeWindow(n + 1)
        fa, fb = clean_fields(win, n)
        pair = make_pair_state(InitialPairState("psi+"), win)
        final, _ = evolve_pair(pair, fa, fb, n)
        joint = joint_distribution_direct(final).values
        i0 = win.index(0)
        assert_allclose(joint[i0, i0], TPTPW_JOINT_P00, atol=1e-12)
        quadrants = (
            joint[:i0, :i0].sum(),
            joint[:i0, i0 + 1 :].sum(),
            joint[i0 + 1 :, :i0].sum(),
            joint[i0 + 1 :, i0 + 1 :].sum(),
        )
        assert_allclose(quadrants, TPTPW_QUADRANTS, atol=1e-9)
        am = np.unravel_index(np.argmax(joint), joint.shape)
        x = win.positions()
        assert (int(x[am[0]]), int(x[am[1]])) == TPTPW_MAX_CELL[:2]
        assert_allclose(joint.max(), TPTPW_MAX_CELL[2], atol=1e-12)


class TestProductDecomposition:
    def test_walkers_equal_lone_split_steps(self):
        # the trailing-axis kernel call gives each walker the exact bits of its own split_step run
        n = 11
        win = LatticeWindow(n + 3)
        dis = DisorderSpec("uniform", STRONG_HALF_WIDTH, "both")
        fa = sample_angle_field((0.3, -1.1), dis, n, win, "a", 17)
        fb = sample_angle_field((-2.0, 0.7), dis, n, win, "b", 17)
        init = InitialPairState("psi+", (2, -1))
        blocks = iter_product_walkers(init, win, (fa, fb))
        trajectory = list(chain.from_iterable(blocks))
        assert len(trajectory) == n + 1
        for particle, field, x0 in ((0, fa, 2), (1, fb, -1)):
            for c, coin in enumerate(((1, 0), (0, 1))):
                state = make_single_state(win, x0, coin)
                for step, walkers in enumerate(trajectory):
                    assert np.array_equal(walkers[:, :, c, particle], state)
                    if step < n:
                        state = split_step(state, field, step)

    @pytest.mark.parametrize("scale", [1.001, np.nan])
    def test_walker_norm_drift_raises(self, monkeypatch, scale):
        import topowalk.pair as pair_module

        split_coins = pair_module.split_coins

        def drifting_coins(*args):  # a writeable copy of the coins, scaled at the second step
            coins = np.array(split_coins(*args))
            coins[:, :, 1] *= scale
            return coins

        monkeypatch.setattr(pair_module, "split_coins", drifting_coins)
        win = LatticeWindow(4)
        fields = clean_fields(win, 2)
        with pytest.raises(NumericalError, match="at step 2$"):
            list(iter_product_walkers(InitialPairState("psi+"), win, fields))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_steps_are_the_fields_steps(self, n):
        win = LatticeWindow(4)
        fields = clean_fields(win, n)
        assert sum(len(block) for block in iter_product_walkers(InitialPairState("psi+"), win, fields)) == n + 1

    def test_walker_reaching_the_edge_raises(self):
        win = LatticeWindow(3)
        fields = clean_fields(win, 6)
        with pytest.raises(WindowOverflowError):
            list(iter_product_walkers(InitialPairState("psi+"), win, fields))

    @pytest.mark.parametrize("form", ["stacked", "leading", "single", "three"])
    def test_rejects_an_array_of_fields(self, form):
        # an array is no pair of fields, even one whose rows have equal shapes: a stacked
        # (2, site, step, particle) array iterates as its two angle planes
        win = LatticeWindow(4)
        fa, fb = clean_fields(win, 2)
        arrays = {
            "stacked": np.stack([fa, fb], axis=-1),
            "leading": np.stack([fa, fb]),
            "single": fa,
            "three": np.stack([fa, fb, fa], axis=-1),
        }
        field = arrays[form]
        with pytest.raises(ValueError, match=re.escape(f"an array of shape {field.shape}")):
            iter_product_walkers(InitialPairState("psi+"), win, field)

    def test_a_generator_of_fields_steps_as_a_list(self):
        # the fields are read once, so a generator steps the same walkers as a list of them
        n = 6
        win = LatticeWindow(n + 2)
        dis = DisorderSpec("uniform", STRONG_HALF_WIDTH, "both")
        fa = sample_angle_field((0.3, -1.1), dis, n, win, "a", 5)
        fb = sample_angle_field((-2.0, 0.7), dis, n, win, "b", 5)
        init = InitialPairState("psi+", (1, -1))
        for pair in ((fa, fb), (fa, fa)):
            listed = list(iter_product_walkers(init, win, list(pair)))
            generated = list(iter_product_walkers(init, win, (f for f in pair)))
            assert [block.shape for block in generated] == [block.shape for block in listed]
            assert all(g.tobytes() == e.tobytes() for g, e in zip(generated, listed, strict=True))

    def test_rejects_fields_of_different_shapes(self):
        win = LatticeWindow(4)
        fa, _ = clean_fields(win, 2)
        _, fb = clean_fields(win, 3)
        with pytest.raises(ValueError, match=re.escape(f"got shapes {[fa.shape, fb.shape]}")):
            iter_product_walkers(InitialPairState("psi+"), win, [fa, fb])

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_other_than_two_fields(self, count):
        win = LatticeWindow(4)
        fields = list(clean_fields(win, 2)) * 2
        with pytest.raises(ValueError, match="two particles' .* fields, got shapes"):
            iter_product_walkers(InitialPairState("psi+"), win, fields[:count])

    def test_rejects_start_at_edge(self):
        win = LatticeWindow(3)
        fields = clean_fields(win, 1)
        with pytest.raises(ValueError):
            next(iter_product_walkers(InitialPairState("sep", (0, 3)), win, fields))

    @pytest.mark.parametrize("kind", ["psi+", "psi-", "sep"])
    def test_coin_density_matches_direct_reduction(self, kind):
        n = 15
        win = LatticeWindow(n + 1)
        dis = DisorderSpec("uniform", STRONG_HALF_WIDTH, "both")
        fa = sample_angle_field((0.3, -1.1), dis, n, win, "a", 11)
        fb = sample_angle_field((-2.0, 0.7), dis, n, win, "b", 11)
        init = InitialPairState(kind)
        pair = make_pair_state(init, win)
        final, _ = evolve_pair(pair, fa, fb, n)
        walkers_a = walker_amps(run_single(win, (1, 0), fa, n), run_single(win, (0, 1), fa, n))
        walkers_b = walker_amps(run_single(win, (1, 0), fb, n), run_single(win, (0, 1), fb, n))
        walkers = np.stack([walkers_a, walkers_b], axis=-1)
        assert not walkers.imag.any()  # real starts under real coins
        rho = pair_coin_density_from_singles(walkers.real, coin_coefficients(init))
        assert np.abs(rho - reduce_pair_to_coin(final)).max() < 1e-12

    @pytest.mark.parametrize("cells", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("kind", ["psi+", "psi-", "sep"])
    def test_real_walkers_give_the_complex_routes_real_part(self, kind, cells):
        # one Gram einsum for both particles and a float combine over the nonzero weights, in the
        # einsum's order: its sums keep the bits of the complex two-Gram route's real parts
        rng = np.random.default_rng(len(cells))
        shape = (2, 2, *cells, 2, 9)  # (coin, start coin, *cells, particle, site), as the kernel leaves it
        site_last = np.moveaxis(rng.standard_normal(shape), -1, 0)
        coefficients = coin_coefficients(InitialPairState(kind))
        for walkers in (site_last, np.ascontiguousarray(site_last)):  # stepped walkers, and a site-first start
            rho = pair_coin_density_from_singles(walkers, coefficients)
            complex_walkers = walkers.astype(complex)
            expected = two_gram_coin_density(complex_walkers[..., 0], complex_walkers[..., 1], coefficients)
            assert rho.shape == (*cells, 4, 4)
            assert rho.dtype == float and expected.dtype == complex and not expected.imag.any()
            assert rho.tobytes() == np.ascontiguousarray(expected.real).tobytes()

    @pytest.mark.parametrize("seed", range(30))
    def test_float_grams_keep_the_complex_einsums_bits(self, seed):
        # the float Gram einsum sums each entry in site order, as the complex einsum does: real walkers
        # of 1 to 299 sites, 0 to 2 cell axes, magnitudes 1e-200 to 1e50 and runs of +0 and -0
        rng = np.random.default_rng(seed)
        cells = tuple(int(x) for x in rng.integers(1, 4, int(rng.integers(0, 3))))
        sites = int(rng.integers(1, 300))
        mem = rng.standard_normal((2, 2, *cells, 2, sites)) * 10.0 ** rng.uniform(-200, 50, (2, 2, *cells, 2, 1))
        plus, minus = np.sort(rng.integers(0, sites + 1, 2)), np.sort(rng.integers(0, sites + 1, 2))
        mem[..., slice(*plus)], mem[..., slice(*minus)] = 0.0, -0.0
        walkers = np.moveaxis(mem, -1, 0)  # (site, coin, start coin, *cells, particle), site-last memory
        complex_walkers = walkers.astype(complex)
        for kind in ("psi+", "psi-", "sep"):
            coefficients = coin_coefficients(InitialPairState(kind))
            rho = pair_coin_density_from_singles(walkers, coefficients)
            expected = two_gram_coin_density(complex_walkers[..., 0], complex_walkers[..., 1], coefficients)
            assert rho.dtype == float and rho.tobytes() == np.ascontiguousarray(expected.real).tobytes()

    @pytest.mark.parametrize("kind", ["psi+", "psi-", "sep"])
    def test_real_walks_give_the_complex_walks_observables(self, kind):
        # a pair's walkers step real, and its coin densities and joint distribution keep the bits of
        # the same walk stepped complex; the walkers' zeros, whose signs may differ, change no sum
        n, coefficients = 12, coin_coefficients(InitialPairState(kind))
        win = LatticeWindow(n + 3)
        field = np.random.default_rng(5).uniform(-np.pi, np.pi, (2, win.size, n, 3, 2))
        fields = (field[..., 0], field[..., 1])
        real = list(chain.from_iterable(iter_product_walkers(InitialPairState(kind, (1, -2)), win, fields)))
        stepped = list(chain.from_iterable(trajectory(real[0].astype(complex), split_coins(field))))
        assert len(real) == len(stepped) == n + 1
        for walkers, complex_walkers in zip(real, stepped):
            assert walkers.dtype == float
            rho = pair_coin_density_from_singles(walkers, coefficients)
            expected = two_gram_coin_density(complex_walkers[..., 0], complex_walkers[..., 1], coefficients)
            assert rho.tobytes() == np.ascontiguousarray(expected.real).tobytes()
        for c in range(3):
            joint = joint_distribution_interference(walkers[..., c, :], coefficients)
            expected = complex_joint_distribution(complex_walkers[..., c, 0], complex_walkers[..., c, 1], coefficients)
            assert joint.tobytes() == expected.tobytes()

    def test_complex_weights_raise(self):
        # a pair state with a complex coefficient has complex weights C conj(C), which the float combine cannot take
        coefficients = np.array([[0.0, 1.0], [1j, 0.0]]) / np.sqrt(2.0)
        walkers = np.moveaxis(np.random.default_rng(3).standard_normal((2, 2, 2, 9)), -1, 0)
        with pytest.raises(ValueError, match="weights C conj\\(C\\) that are not real"):
            pair_coin_density_from_singles(walkers, coefficients)

    @pytest.mark.parametrize("dtype", [complex, np.complex64, np.float32])
    def test_walkers_other_than_float64_raise(self, dtype):
        walkers = np.moveaxis(np.random.default_rng(3).standard_normal((2, 2, 2, 9)), -1, 0).astype(dtype)
        with pytest.raises(ValueError, match=f"walkers must be float64, got dtype {np.dtype(dtype)}$"):
            pair_coin_density_from_singles(walkers, PSI[+1])

    @pytest.mark.parametrize("size", [1, 5, 203])
    def test_joint_combine_path_is_the_one_einsum_finds(self, size):
        o = np.ones((size, 2, 2), complex)
        fresh = np.einsum_path(pair._COMBINE, PSI[+1], PSI[+1].conj(), o, o, optimize=True)[0]
        assert list(pair._combine_path(size)) == fresh

    @pytest.mark.parametrize("shape", [(5, 2, 2), (5, 2, 2, 3), (5, 2, 1, 2), (5, 1, 2, 2)])
    def test_coin_density_rejects_walkers_without_both_particles(self, shape):
        with pytest.raises(ValueError, match="walkers must have axes"):
            pair_coin_density_from_singles(np.zeros(shape, dtype=complex), PSI[+1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_coin_density_random_angles(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        win = LatticeWindow(n + 1)
        fa = np.stack(
            [rng.uniform(-np.pi, np.pi, (win.size, n)), rng.uniform(-np.pi, np.pi, (win.size, n))]
        )
        fb = np.stack(
            [rng.uniform(-np.pi, np.pi, (win.size, n)), rng.uniform(-np.pi, np.pi, (win.size, n))]
        )
        init = InitialPairState("psi+")
        final, _ = evolve_pair(make_pair_state(init, win), fa, fb, n)
        walkers_a = walker_amps(run_single(win, (1, 0), fa, n), run_single(win, (0, 1), fa, n))
        walkers_b = walker_amps(run_single(win, (1, 0), fb, n), run_single(win, (0, 1), fb, n))
        walkers = np.stack([walkers_a, walkers_b], axis=-1)
        assert not walkers.imag.any()  # real starts under real coins
        rho = pair_coin_density_from_singles(walkers.real, coin_coefficients(init))
        assert np.abs(rho - reduce_pair_to_coin(final)).max() < 1e-12
