import re
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topowalk import (
    BoundarySpec,
    DisorderSpec,
    LatticeWindow,
    NumericalError,
    STRONG_HALF_WIDTH,
    WEAK_HALF_WIDTH,
    WindowOverflowError,
    hadamard_coins,
    make_single_state,
    position_distribution,
    randomize_field,
    sample_angle_field,
    split_coins,
    trajectory,
    von_neumann_entropy,
)
from topowalk.experiments import ANGLES_WINDING_1, derive_seed
from topowalk.walk import _BLOCK_AMPLITUDES, HADAMARD
from conftest import random_single_state
from oracles import (
    dense_hadamard_unitary,
    dense_split_unitary,
    full_coin_rows,
    full_table_stepper,
    hadamard_reachable,
    hadamard_reference_step,
    reduce_to_coin,
    rotation_coin,
    split_reachable,
    split_step,
    stepped,
)

MASTER_SEED = 20250809

H = HADAMARD.astype(complex)  # the Hadamard coin as a complex matrix

# frozen from a reference run at seed derive_seed(20250809, 0), base angles
# (-pi/2, pi/4), disorder on the walker's own field
SINGLE_WALKER_ENTROPY = {
    "clean": {25: 0.9160378528526318, 50: 0.8613599567215814, 100: 0.8702919567392824},
    "weak": {25: 0.9609488238007313, 50: 0.9609937086331075, 100: 0.9950284766388621},
    "strong": {25: 0.7841193585379871, 50: 0.7589514202636614, 100: 0.9445052685150732},
}


def coin_entropy(amps):
    return von_neumann_entropy(reduce_to_coin(amps))


def constant_field(theta1, theta2, n_steps, window):
    return sample_angle_field((theta1, theta2), DisorderSpec(), n_steps, window, "a", 0)


def normalized(walkers):
    """walkers with each (site, coin) walker scaled to norm 1, as trajectory's norm check expects."""
    return walkers / np.sqrt((abs(walkers) ** 2).sum(axis=(0, 1)))


class TestCoins:
    def test_hadamard_on_coin_zero(self):
        out = H @ np.array([1, 0])
        assert_allclose(out, np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_hadamard_involutory(self):
        assert_allclose(H @ H, np.eye(2), atol=1e-15)

    def test_hadamard_determinant(self):
        assert_allclose(np.linalg.det(H), -1.0, atol=1e-15)

    def test_rotation_zero_is_identity(self):
        assert_allclose(rotation_coin(0.0), np.eye(2), atol=1e-15)

    def test_rotation_two_pi_is_minus_identity(self):
        assert_allclose(rotation_coin(2 * np.pi), -np.eye(2), atol=1e-15)

    def test_rotation_half_pi(self):
        expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        assert_allclose(rotation_coin(np.pi / 2), expected, atol=1e-15)

    def test_rotation_vectorized_shape(self):
        thetas = np.linspace(-3, 3, 7)
        assert rotation_coin(thetas).shape == (7, 2, 2)

    def test_unitarity_random_sample(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-4 * np.pi, 4 * np.pi, 1000):
            c = rotation_coin(theta)
            assert np.abs(c.conj().T @ c - np.eye(2)).max() < 1e-14
        assert np.abs(H.conj().T @ H - np.eye(2)).max() < 1e-14


class TestHadamardStep:
    def test_single_step_distribution(self):
        win = LatticeWindow(3)
        s = stepped(make_single_state(win, 0, (1, 0)), hadamard_coins(win.size, 1))
        dist = position_distribution(s)
        assert_allclose(dist[win.index(1)], 0.5, atol=1e-14)
        assert_allclose(dist[win.index(-1)], 0.5, atol=1e-14)

    def test_two_step_parity(self):
        win = LatticeWindow(4)
        s = stepped(make_single_state(win, 0, (1, 0)), hadamard_coins(win.size, 2))
        dist = position_distribution(s)
        x = win.positions()
        assert dist[np.abs(x) % 2 == 1].max() == 0.0

    def test_reachability_small_n(self):
        for coin in (0, 1):
            win = LatticeWindow(6)
            s = stepped(make_single_state(win, 0, (1, 0) if coin == 0 else (0, 1)), hadamard_coins(win.size, 4))
            reachable = hadamard_reachable(4, coin)
            for i, x in enumerate(win.positions()):
                for c in (0, 1):
                    if (x, c) not in reachable:
                        assert s[i, c] == 0.0

    def test_stacked_walkers_step_independently(self):
        # a trailing walker axis gives each walker the exact bits of its own step
        win = LatticeWindow(6)
        walkers = np.stack([random_single_state(win, seed) for seed in (1, 2, 3)], axis=-1)
        walkers[:2] = walkers[-2:] = 0.0
        walkers, coins = normalized(walkers), hadamard_coins(win.size, 1)
        out = stepped(walkers, coins)
        for w in range(3):
            assert np.array_equal(out[:, :, w], stepped(walkers[:, :, w], coins))

    def test_particle_axis_steps_each_walker_as_a_lone_walker(self):
        win = LatticeWindow(6)
        walkers, coins = pair_shaped_walkers(win), hadamard_coins(win.size, 1)
        out = stepped(walkers, coins)
        for s in range(2):
            for p in range(2):
                assert np.array_equal(out[:, :, s, p], stepped(walkers[:, :, s, p], coins))
        assert out.strides[0] == out.itemsize  # the site axis has unit stride

    def test_hundred_step_peak_matches_dense_oracle(self):
        # the 100-step walk from coin |0> is asymmetric with its ballistic peak
        # near |x| = 70; the peak location is pinned by the dense-matrix run
        win = LatticeWindow(101)
        s = stepped(make_single_state(win, 0, (1, 0)), hadamard_coins(win.size, 100))
        dist = position_distribution(s)
        x = win.positions()

        u = dense_hadamard_unitary(win.size)
        vec = np.zeros(2 * win.size, dtype=complex)
        vec[2 * win.index(0)] = 1.0
        for _ in range(100):
            vec = u @ vec
        ref = (np.abs(vec.reshape(win.size, 2)) ** 2).sum(axis=1)

        assert np.abs(dist - ref).max() < 1e-12
        peak = int(x[np.argmax(dist)])
        assert peak == int(x[np.argmax(ref)])
        assert 60 <= abs(peak) <= 75
        assert dist[win.index(peak)] > 4 * dist[win.index(-peak)]  # asymmetry


def pair_shaped_walkers(win):
    """(site, coin, start, particle) walkers of random normalized states, zero near both edges."""
    walkers = np.stack(
        [np.stack([random_single_state(win, 10 * p + s) for s in range(2)], axis=-1) for p in range(2)],
        axis=-1,
    )
    walkers[:3] = walkers[-3:] = 0.0
    return normalized(walkers)


class TestSplitStep:
    def test_particle_field_axis_steps_each_walker_as_a_lone_walker(self):
        # a (2, site, step, particle) field steps walker [..., s, p] under field[..., p]
        win = LatticeWindow(7)
        field = np.random.default_rng(5).uniform(-np.pi, np.pi, (2, win.size, 3, 2))
        walkers = pair_shaped_walkers(win)
        lone = {(s, p): walkers[:, :, s, p] for s in range(2) for p in range(2)}
        for step in range(3):
            walkers = split_step(walkers, field, step)
            # walkers keep their (site, coin, *walkers) axes over site-last memory
            assert walkers.strides[0] == walkers.itemsize
            for (s, p), amps in lone.items():
                lone[s, p] = split_step(amps, field[..., p], step)
                assert np.array_equal(walkers[:, :, s, p], lone[s, p])

    def test_trajectory_equals_split_steps(self):
        # a walk under the whole coin table takes the steps of one-step slices of it, and one per step
        win = LatticeWindow(7)
        field = np.random.default_rng(6).uniform(-np.pi, np.pi, (2, win.size, 3))
        walkers = random_single_state(win, 4)
        walkers[:3] = walkers[-3:] = 0.0
        expected = walkers = normalized(walkers)
        steps = list(chain.from_iterable(trajectory(walkers, split_coins(field))))
        assert len(steps) == 4
        for step, amps in enumerate(steps):
            assert np.array_equal(amps, expected)
            if step < 3:
                expected = split_step(expected, field, step)

    @pytest.mark.parametrize("n_steps", [3, 0])
    @pytest.mark.parametrize("walkers", [(2, 3), (3,), (), (1,)])
    def test_walker_axes_must_end_in_the_batch_axes(self, walkers, n_steps):
        # (2, 3) walkers count a multiple of the two batch entries, yet pair with them by their last axis;
        # the walk checks them before it yields its first block, even a walk of no steps
        win = LatticeWindow(10)
        field = np.random.default_rng(9).uniform(-np.pi, np.pi, (2, win.size, n_steps, 2))
        start = started_at(win, [0], walkers, 10)
        message = r"walker axes .* do not end in the angle field's batch axes \(2,\)"
        with pytest.raises(ValueError, match=message):
            next(trajectory(start, split_coins(field)))

    @pytest.mark.parametrize("batch, walkers", [((2, 1), (2, 3)), ((1,), (2, 3)), ((1, 3), (2, 3))])
    def test_unit_batch_axes_broadcast(self, batch, walkers):
        # a batch axis of 1 holds the angles of every walker along that axis
        win, n = LatticeWindow(10), 3
        field = np.random.default_rng(11).uniform(-np.pi, np.pi, (2, win.size, n, *batch))
        full = np.broadcast_to(field, (2, win.size, n, *walkers[len(walkers) - len(batch) :]))
        start = started_at(win, [-1, 2], walkers, 12)
        amps, expected = start, start
        for step in range(n):
            amps, expected = split_step(amps, field, step), split_step(expected, full, step)
            assert amps.tobytes() == expected.tobytes()
        walk = chain.from_iterable(trajectory(start, split_coins(field)))
        for amps, expected in zip(walk, chain.from_iterable(trajectory(start, split_coins(full)))):
            assert amps.tobytes() == expected.tobytes()

    def test_steady_entries_equal_the_full_coin_table(self):
        # entries whose angles never change with the step, beside entries whose angles do, keep the
        # bits of a table computed at every step, NaN and signed zeros included
        n, win = 3, LatticeWindow(12)
        strong = DisorderSpec("uniform", STRONG_HALF_WIDTH, "a")
        boundary = BoundarySpec((0.3, 1.2), (-np.pi / 2, 0.8))
        steady_nan = sample_angle_field((-2.0, 0.7), DisorderSpec(), n, win, "b", 0)
        steady_nan[0, win.index(1)] = np.nan  # NaN at one site, at every step
        signed_zero = sample_angle_field((0.0, 0.4), DisorderSpec(), n, win, "a", 0)
        signed_zero[0, :, 1:] = -0.0  # equal values, but not equal bits
        step_nan = sample_angle_field((1.1, -0.6), DisorderSpec(), n, win, "b", 0)
        step_nan[1, win.index(-1), 2] = np.nan  # NaN at one site and step
        disordered = sample_angle_field((0.3, -1.1), strong, n, win, "a", 7)
        clean = sample_angle_field((-2.0, 0.7), strong, n, win, "b", 7)  # the disorder targets particle a
        cells = [
            (disordered, clean),
            (sample_angle_field(boundary, DisorderSpec(), n, win, "a", 0), steady_nan),
            (signed_zero, step_nan),
        ]
        # a (2, site, step, cell, particle) field
        field = np.stack([np.stack(cell, axis=-1) for cell in cells], axis=-2)
        coins, rows = split_coins(field), full_coin_rows(field)
        for k in range(2):  # column k of each coin is the rows (1 - k, 2 - k) of its half angles
            for c in range(2):
                assert coins[k, c, :, :, 0].tobytes() == rows[1 - k + c].tobytes()
        rng = np.random.default_rng(8)
        shape = (win.size, 2, 2, 3, 2)  # (site, coin, start coin, cell, particle)
        walkers = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        walkers[:4] = walkers[-4:] = 0.0
        walkers[::2, 0] = -0.0  # signed zeros in the coin-0 plane carry the sign of sin(+-0)
        walkers = normalized(walkers)
        # the cell without NaN keeps the reference kernel's bits, at two walker ranks (two shapes of
        # coin views); NaN coins make NaN walkers, which fail the norm check at the first step
        for amps in (walkers[..., :1, :], walkers[:, :, 1, :1]):
            assert_cone_steps(amps, split_coins(field[..., :1, :]), full_table_stepper(field[..., :1, :]))
        with pytest.raises(NumericalError, match="at step 1$"):
            list(trajectory(walkers, coins))

    def test_broadcast_step_axis_equals_the_full_coin_table(self):
        # a field whose step axis is a broadcast view stores one step; its coins keep the bits of a
        # table computed at every step of a materialised copy, NaN and signed zeros included
        n, win = 6, LatticeWindow(30)
        one = np.stack(
            [sample_angle_field(angles, DisorderSpec(), 1, win, "a", 0) for angles in ((-2.0, 0.7), (0.0, 0.4))],
            axis=-1,
        )  # (2, site, 1, particle)
        one[0, win.index(20), :, 0] = np.nan  # NaN at one site, outside the light cone of the starts
        one[0, : win.index(0), :, 1] = -0.0  # equal values, but not equal bits
        field = np.broadcast_to(one, (2, win.size, n, 2))
        assert field.strides[2] == 0
        full = field.copy()
        coins, rows = split_coins(field), full_coin_rows(full)
        assert coins.shape[2] == n and coins.strides[2] == 0  # one stored step, read at every step
        for k in range(2):
            for c in range(2):
                assert coins[k, c, :, :, 0].tobytes() == rows[1 - k + c].tobytes()
        rng = np.random.default_rng(14)
        shape = (win.size, 2, 2, 2)  # (site, coin, start coin, particle)
        walkers = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        walkers[:8] = walkers[-8:] = 0.0
        walkers[::2, 0] = -0.0  # signed zeros in the coin-0 plane carry the sign of sin(+-0)
        with pytest.raises(NumericalError, match="at step 1$"):  # walkers across the NaN site
            list(trajectory(normalized(walkers), coins))
        start = started_at(win, [-3, 2], (2, 2), 15)
        assert_cone_steps(start, coins, full_table_stepper(full))

    def test_broadcast_step_axis_builds_one_step_of_coins(self):
        # 10**5 broadcast steps take the memory of one: the rows (-s, c, s) of both angles at 11 sites
        win, n = LatticeWindow(5), 10**5
        one = sample_angle_field((0.3, -1.1), DisorderSpec(), 1, win, "a", 0)
        field = np.broadcast_to(one, (2, win.size, n))
        tracemalloc.start()
        try:
            coins = split_coins(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 * win.size * 8 + 2**12  # the 528-byte table and numpy's small objects
        amps = make_single_state(win, 0, (1, 0))
        assert stepped(amps, coins[:, :, n - 1 :]).tobytes() == stepped(amps, split_coins(one)).tobytes()

    def test_zero_angles_transport_coin0(self):
        win = LatticeWindow(3)
        field = constant_field(0.0, 0.0, 1, win)
        s = split_step(make_single_state(win, 0, (1, 0)), field, 0)
        assert s[win.index(1), 0] == 1.0

    def test_zero_angles_transport_coin1(self):
        win = LatticeWindow(3)
        field = constant_field(0.0, 0.0, 1, win)
        s = split_step(make_single_state(win, 0, (0, 1)), field, 0)
        assert s[win.index(-1), 1] == 1.0

    def test_matches_dense_unitary_small_lattice(self):
        # site-dependent angles: the step must equal one application of the
        # dense operator, entrywise (support stays off the edge so wraparound
        # is inert)
        win = LatticeWindow(8)
        rng = np.random.default_rng(17)
        th1 = rng.uniform(-np.pi, np.pi, win.size)
        th2 = rng.uniform(-np.pi, np.pi, win.size)
        field = np.stack([np.repeat(th1[:, None], 3, 1), np.repeat(th2[:, None], 3, 1)])
        u = dense_split_unitary(th1, th2)
        s = random_single_state(win, 23)
        s[:2] = 0.0
        s[-2:] = 0.0
        s /= np.sqrt(np.vdot(s, s).real)
        vec = s.reshape(-1)
        out = split_step(s, field, 0)
        assert np.abs(out.reshape(-1) - u @ vec).max() < 1e-12

    def test_operator_entrywise_equality_constant_angles(self):
        # assemble the step operator column by column from basis states and
        # compare with the dense matrix; interior columns must agree entrywise
        # (edge columns differ only by the oracle's wraparound convention)
        win = LatticeWindow(8)
        theta1, theta2 = 0.9, -2.1
        field = constant_field(theta1, theta2, 1, win)
        dense = dense_split_unitary(np.full(win.size, theta1), np.full(win.size, theta2))
        dim = 2 * win.size
        built = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            amps = np.zeros((win.size, 2), dtype=complex)
            amps[col // 2, col % 2] = 1.0
            if col // 2 in (0, win.size - 1):
                continue
            out = split_step(amps, field, 0)
            built[:, col] = out.reshape(-1)
        interior = slice(2, dim - 2)
        assert np.abs(built[:, interior] - dense[:, interior]).max() < 1e-12

    def test_fifty_steps_match_dense_oracle(self):
        n_steps = 50
        win = LatticeWindow(n_steps + 1)
        theta1, theta2 = ANGLES_WINDING_1
        field = constant_field(theta1, theta2, n_steps, win)
        s = make_single_state(win, 0, (1, 0))
        for step in range(n_steps):
            s = split_step(s, field, step)
        u = dense_split_unitary(
            np.full(win.size, theta1), np.full(win.size, theta2)
        )
        vec = np.zeros(2 * win.size, dtype=complex)
        vec[2 * win.index(0)] = 1.0
        for _ in range(n_steps):
            vec = u @ vec
        ref = np.abs(vec.reshape(win.size, 2)) ** 2
        assert np.abs(position_distribution(s) - ref.sum(axis=1)).max() < 1e-10
        assert np.abs(s.reshape(-1) - vec).max() < 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_reachability_random_angles(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        win = LatticeWindow(n_steps + 1)
        field = np.stack([
            rng.uniform(-np.pi, np.pi, (win.size, n_steps)),
            rng.uniform(-np.pi, np.pi, (win.size, n_steps)),
        ])
        s = make_single_state(win, 0, (1, 0))
        for step in range(n_steps):
            s = split_step(s, field, step)
        reachable = split_reachable(n_steps, 0)
        for i, x in enumerate(win.positions()):
            for c in (0, 1):
                if (x, c) not in reachable:
                    assert s[i, c] == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        win = LatticeWindow(12)
        field = np.stack([
            rng.uniform(-np.pi, np.pi, (win.size, 10)),
            rng.uniform(-np.pi, np.pi, (win.size, 10)),
        ])
        s = make_single_state(win, 0, (1 / np.sqrt(2), -1j / np.sqrt(2)))
        for step in range(10):
            s = split_step(s, field, step)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-13


class TestAngleFields:
    def test_zero_width_is_constant(self):
        win = LatticeWindow(4)
        dis = DisorderSpec("uniform", 0.0, "a")
        field = sample_angle_field((0.3, 0.7), dis, 6, win, "a", 5)
        assert np.all(field[0] == 0.3)
        assert np.all(field[1] == 0.7)

    def test_same_seed_bit_identical(self):
        win = LatticeWindow(4)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "a")
        f1 = sample_angle_field((0.3, 0.7), dis, 6, win, "a", 42)
        f2 = sample_angle_field((0.3, 0.7), dis, 6, win, "a", 42)
        assert np.array_equal(f1[0], f2[0])
        assert np.array_equal(f1[1], f2[1])

    def test_weak_disorder_interval(self):
        win = LatticeWindow(40)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "a")
        field = sample_angle_field((0.3, 0.7), dis, 50, win, "a", 7)
        assert field[0].min() >= 0.3 - WEAK_HALF_WIDTH
        assert field[0].max() <= 0.3 + WEAK_HALF_WIDTH
        assert field[1].min() >= 0.7 - WEAK_HALF_WIDTH
        assert field[1].max() <= 0.7 + WEAK_HALF_WIDTH
        # both bounds are actually approached
        assert field[0].max() > 0.3 + 0.9 * WEAK_HALF_WIDTH
        assert field[0].min() < 0.3 - 0.9 * WEAK_HALF_WIDTH

    def test_theta_components_independent(self):
        win = LatticeWindow(10)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "a")
        field = sample_angle_field((0.0, 0.0), dis, 10, win, "a", 7)
        assert not np.array_equal(field[0], field[1])

    def test_target_selects_particle(self):
        win = LatticeWindow(4)
        base = constant_field(0.1, 0.2, 5, win)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "a")
        assert not np.array_equal(randomize_field(base, dis, "a", 3)[0], base[0])
        assert np.array_equal(randomize_field(base, dis, "b", 3)[0], base[0])
        both = DisorderSpec("uniform", WEAK_HALF_WIDTH, "both")
        assert not np.array_equal(randomize_field(base, both, "b", 3)[0], base[0])

    def test_particle_streams_differ(self):
        win = LatticeWindow(4)
        base = constant_field(0.0, 0.0, 5, win)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "both")
        fa = randomize_field(base, dis, "a", 3)
        fb = randomize_field(base, dis, "b", 3)
        assert not np.array_equal(fa[0], fb[0])

    def test_boundary_field_convention(self):
        win = LatticeWindow(4)
        spec = BoundarySpec((0.1, 0.2), (0.3, 0.4))
        field = sample_angle_field(spec, DisorderSpec(), 3, win, "a", 0)
        assert field.shape == (2, win.size, 3)
        assert field[0, win.index(-1), 0] == 0.1
        assert field[0, win.index(0), 0] == 0.3
        assert field[1, win.index(-1), 2] == 0.2
        assert field[1, win.index(0), 2] == 0.4

    def test_degenerate_boundary_is_constant(self):
        win = LatticeWindow(4)
        spec = BoundarySpec((0.5, 0.6), (0.5, 0.6))
        field = sample_angle_field(spec, DisorderSpec(), 3, win, "a", 0)
        assert np.all(field[0] == 0.5)
        assert np.all(field[1] == 0.6)
        # a plain pair is the boundary with equal sides
        assert np.array_equal(field, constant_field(0.5, 0.6, 3, win))

    def test_noise_planes_follow_the_seeded_streams(self):
        # each (site, step) plane draws from the stream (seed, particle index, angle index)
        win = LatticeWindow(3)
        dis = DisorderSpec("uniform", WEAK_HALF_WIDTH, "b")
        field = sample_angle_field((0.1, 0.2), dis, 4, win, "b", 9)
        for index, base in enumerate((0.1, 0.2)):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(1, index)))
            expected = base + rng.uniform(-WEAK_HALF_WIDTH, WEAK_HALF_WIDTH, (win.size, 4))
            assert np.array_equal(field[index], expected)

    @pytest.mark.parametrize("half_width", [float("nan"), float("inf"), float("-inf")])
    def test_disorder_spec_rejects_a_non_finite_width(self, half_width):
        # a NaN width would pass as "no disorder" and draw a clean field
        with pytest.raises(ValueError, match="half_width must be"):
            DisorderSpec("uniform", half_width, "a")

    def test_disorder_spec_validation(self):
        with pytest.raises(ValueError):
            DisorderSpec("gaussian", 0.1, "a")
        with pytest.raises(ValueError):
            DisorderSpec("uniform", -0.1, "a")
        with pytest.raises(ValueError):
            DisorderSpec("uniform", 0.1, "c")

    @pytest.mark.parametrize("disorder", [DisorderSpec("uniform", 0.1, "both"), DisorderSpec()])
    def test_unknown_particle_is_rejected(self, disorder):
        # the walkers are a and b, whether or not the disorder draws for them
        with pytest.raises(ValueError, match="unknown particle 'c'"):
            sample_angle_field((0.1, 0.2), disorder, 3, LatticeWindow(3), "c", 1)

    @pytest.mark.parametrize("kind, half_width, target", [("none", 0.0, "b"), ("uniform", 0.0, "both")])
    def test_disorder_spec_that_draws_nothing_targets_a(self, kind, half_width, target):
        # no walker would be disordered, so a target other than the default a says nothing true
        with pytest.raises(ValueError, match=f"draws no angles has no target '{target}'"):
            DisorderSpec(kind, half_width, target)
        assert not DisorderSpec(kind, half_width, "a").applies_to("a")


class TestTrajectory:
    def test_zero_steps_returns_input(self):
        s = make_single_state(LatticeWindow(3), 0, (1, 0))
        blocks = list(trajectory(s, hadamard_coins(s.shape[0], 0)))
        assert len(blocks) == 1 and blocks[0].shape == (1, *s.shape)
        assert blocks[0][0].tobytes() == s.tobytes()
        assert [np.linalg.norm(a) for a in blocks[0]] == [1.0]

    def test_steps_are_the_coins_steps(self):
        # the walk takes one step per step of its coin table, a slice of it included
        win = LatticeWindow(4)
        s = make_single_state(win, 0, (1, 0))
        coins = split_coins(constant_field(0.3, -1.1, 3, win))
        for n in range(4):
            assert sum(len(block) for block in trajectory(s, coins[:, :, :n])) == n + 1

    @pytest.mark.parametrize("n_steps", [3, 0])
    def test_rejects_coins_of_another_window(self, n_steps):
        # checked before the first block, even for a walk of no steps
        s = make_single_state(LatticeWindow(2), 0, (1, 0))
        for coins in (split_coins(constant_field(0.0, 0.0, n_steps, LatticeWindow(3))), hadamard_coins(7, n_steps)):
            with pytest.raises(ValueError, match="coins for 7 sites do not match the 5-site window"):
                next(trajectory(s, coins))

    def test_observer_series_length(self):
        s = make_single_state(LatticeWindow(12), 0, (1, 0))
        entropy = [coin_entropy(a) for a in chain.from_iterable(trajectory(s, hadamard_coins(s.shape[0], 10)))]
        assert len(entropy) == 11

    def test_hadamard_entropy_asymptote(self):
        s = make_single_state(LatticeWindow(101), 0, (1, 0))
        entropy = [coin_entropy(a) for a in chain.from_iterable(trajectory(s, hadamard_coins(s.shape[0], 100)))]
        assert abs(entropy[100] - 0.87) < 0.02

    def test_norm_violation_raises(self):
        s = make_single_state(LatticeWindow(3), 0, (1, 0))
        coins = np.array(hadamard_coins(s.shape[0], 3))
        coins[:, :, 1] *= 1.001  # both coins of the second step

        with pytest.raises(NumericalError, match="at step 2$"):
            list(trajectory(s, coins))

    def test_nan_state_fails_the_norm_check(self):
        s = make_single_state(LatticeWindow(3), 0, (1, 0))
        coins = np.array(hadamard_coins(s.shape[0], 3))
        coins[:, :, 1] = np.nan

        with pytest.raises(NumericalError, match="drifted by nan at step 2$"):
            list(trajectory(s, coins))

    def test_blocks_hold_a_fixed_number_of_amplitudes(self):
        s = make_single_state(LatticeWindow(100), 0, (1, 0))  # 40 steps a block: two fit the window
        length = _BLOCK_AMPLITUDES // s.size
        blocks = list(trajectory(s, hadamard_coins(s.shape[0], 2 * length)))
        assert [len(b) for b in blocks] == [length, length, 1]
        assert all(b.shape[1:] == s.shape for b in blocks)
        # more amplitudes than a block holds: one step per block
        wide = np.broadcast_to(s[..., None], (*s.shape, length + 1))
        assert [len(b) for b in trajectory(wide, hadamard_coins(s.shape[0], 3))] == [1, 1, 1, 1]

    @pytest.mark.parametrize("where", ["first", "inside", "last", "next first"])
    def test_drift_is_named_before_a_later_error(self, where):
        # the walk drifts at step s and overflows at s + 1: the drift at s is the error reported,
        # whether s + 1 falls in the same block as s or in the next one
        win = LatticeWindow(100)
        length = _BLOCK_AMPLITUDES // (2 * win.size)
        drift_at = {"first": 1, "inside": 5, "last": length - 1, "next first": length}[where]
        # coin-0 amplitude reaches the right edge after drift_at steps and leaves the window on the next
        s = make_single_state(win, win.half_width - drift_at, (1, 0))
        coins = np.array(hadamard_coins(win.size, 2 * length))
        coins[:, :, drift_at - 1, 1] *= 1.001  # the identity coin of the step that makes step drift_at
        with pytest.raises(WindowOverflowError, match=f"at step {drift_at + 1};"):
            list(trajectory(s, hadamard_coins(win.size, 2 * length)))
        with pytest.raises(NumericalError, match=rf"^walker norm drifted by 1\.000e-03 at step {drift_at}$"):
            list(trajectory(s, coins))

    def test_overflow_without_drift_is_raised(self):
        win = LatticeWindow(12)
        s = make_single_state(win, win.half_width - 5, (1, 0))
        message = r"^coin-0 amplitude at the right edge at step 6; window too small$"
        with pytest.raises(WindowOverflowError, match=message):
            list(trajectory(s, hadamard_coins(win.size, 10)))

    def test_nan_angle_fails_the_edge_check(self):
        # a NaN coin angle turns the edge amplitude into NaN, which must not pass as zero; a start
        # beside the edge puts the edge in the first step's light cone
        win = LatticeWindow(3)
        field = constant_field(np.nan, 0.5, 1, win)
        with pytest.raises(WindowOverflowError, match="right edge at step 1"):
            split_step(make_single_state(win, 2, (1, 0)), field, 0)

    @pytest.mark.parametrize("kind", ["clean", "weak", "strong"])
    def test_disordered_entropy_regression(self, kind):
        # seeded reference series; also pins that disorder changes the dynamics
        win = LatticeWindow(101)
        if kind == "clean":
            field = constant_field(*ANGLES_WINDING_1, 100, win)
        else:
            half_width = WEAK_HALF_WIDTH if kind == "weak" else STRONG_HALF_WIDTH
            dis = DisorderSpec("uniform", half_width, "a")
            field = sample_angle_field(ANGLES_WINDING_1, dis, 100, win, "a", derive_seed(MASTER_SEED, 0))
        s = make_single_state(win, 0, (1, 0))
        states = trajectory(s, split_coins(field))
        entropy = [coin_entropy(a) for a in chain.from_iterable(states)]
        for step, expected in SINGLE_WALKER_ENTROPY[kind].items():
            assert_allclose(entropy[step], expected, atol=1e-9)


def assert_cone_steps(start, coins, reference):
    """trajectory's steps of start under coins hold the reference's bits inside the light cone, and
    0.0 outside it.

    A start on sites [a, b] has, after t >= 1 steps, coin-0 amplitude on [a - t + 1, b + t] only and
    coin-1 amplitude on [a - t, b + t - 1] only: a coin's zeros past its own edge may differ in sign.
    """
    size = start.shape[0]
    a, b = np.flatnonzero(start.reshape(size, -1).any(axis=1))[[0, -1]]
    expected = start
    for t, amps in enumerate(chain.from_iterable(trajectory(start, coins))):
        if t:
            expected = reference(expected, t - 1)
        moved = min(t, 1)
        for c in (0, 1):
            lo, hi = max(a - t + moved * (1 - c), 0), min(b + t + 1 - moved * c, size)
            assert amps[lo:hi, c].tobytes() == expected[lo:hi, c].tobytes()
            assert np.all(amps[:lo, c] == 0.0) and np.all(amps[hi:, c] == 0.0)
    assert t == coins.shape[2]


def started_at(win, sites, walkers, seed):
    """A (site, coin, *walkers) array with random complex coins at the given sites, each walker normalized."""
    rng = np.random.default_rng(seed)
    amps = np.zeros((win.size, 2, *walkers), complex)
    for x in sites:
        amps[win.index(x)] = rng.standard_normal((2, *walkers)) + 1j * rng.standard_normal((2, *walkers))
    return amps / np.sqrt((abs(amps) ** 2).sum(axis=(0, 1)))


class TestLightCone:
    """trajectory steps only the light cone of its start; every step keeps the bits of the whole-window
    reference kernel (oracles.step_amps) inside the cone and is exactly zero outside it."""

    def test_two_starts_far_apart(self):
        # particle a starts at -30 and b at 25: the cone spans both, and the sites between them too
        win, n = LatticeWindow(40), 9
        field = np.random.default_rng(1).uniform(-np.pi, np.pi, (2, win.size, n, 2))
        start = np.zeros((win.size, 2, 2, 2), complex)  # (site, coin, start coin, particle)
        start[..., 0] = started_at(win, [-30], (2,), 2)
        start[..., 1] = started_at(win, [25], (2,), 3)
        assert_cone_steps(start, split_coins(field), full_table_stepper(field))

    @pytest.mark.parametrize("cells", [3, 20])
    def test_cell_axis(self, cells):
        # 20 cells hold more walker rows than a range is stepped for once the cone spans half the window
        win, n = LatticeWindow(12), 11
        rng = np.random.default_rng(cells)
        field = rng.uniform(-np.pi, np.pi, (2, win.size, n, cells, 2))
        field[:, :, :, 0] = field[:, :, :1, 0]  # one cell no disorder touches: steady coins
        start = started_at(win, [-1, 0], (2, cells, 2), 4)  # (site, coin, start coin, cell, particle)
        assert_cone_steps(start, split_coins(field), full_table_stepper(field))

    def test_single_walker(self):
        win, n = LatticeWindow(30), 25
        strong = DisorderSpec("uniform", STRONG_HALF_WIDTH, "a")
        field = sample_angle_field(ANGLES_WINDING_1, strong, n, win, "a", 5)
        start = started_at(win, [3], (), 6)
        assert_cone_steps(start, split_coins(field), full_table_stepper(field))

    def test_hadamard_walk(self):
        start = make_single_state(LatticeWindow(30), -4, (1, 0))
        assert_cone_steps(start, hadamard_coins(start.shape[0], 25), hadamard_reference_step)

    def test_explicit_window_the_cone_reaches(self):
        # after 4 steps the cone spans the half-width-4 window: its ranges are cut at both edges,
        # and the fifth step pushes coin-0 amplitude off the right edge
        win = LatticeWindow(4)
        weak = DisorderSpec("uniform", WEAK_HALF_WIDTH, "a")
        field = sample_angle_field(ANGLES_WINDING_1, weak, 5, win, "a", 7)
        start = started_at(win, [0], (), 8)
        assert_cone_steps(start, split_coins(field)[:, :, :4], full_table_stepper(field))
        message = r"^coin-0 amplitude at the right edge at step 5; window too small$"
        with pytest.raises(WindowOverflowError, match=message):
            list(trajectory(start, split_coins(field)))

    def test_overflow_names_its_step_and_edge(self):
        # zero angles make both coins the identity: coin 1 walks left one site a step, from -3 to the
        # edge at -5 in two steps, and leaves the window on the third
        win = LatticeWindow(5)
        start = make_single_state(win, -3, (0, 1))
        message = r"^coin-1 amplitude at the left edge at step 3; window too small$"
        with pytest.raises(WindowOverflowError, match=message):
            list(trajectory(start, split_coins(constant_field(0.0, 0.0, 4, win))))


class TestConeCoins:
    """Given the start's occupied sites (a, b), split_coins builds step t's coins on the sites
    [a - t, b + t + 1] that trajectory's step t reads, with the full table's bits, and zeros elsewhere;
    a field whose step axis is broadcast gets its one step's coins at every site and step."""

    @pytest.mark.parametrize("cells", [(), (3,)])
    def test_coins_equal_the_full_table_inside_the_cone_and_zero_outside(self, cells):
        win, n = LatticeWindow(20), 14
        field = np.random.default_rng(21).uniform(-2 * np.pi, 2 * np.pi, (2, win.size, n, *cells, 2))
        steady = np.broadcast_to(field[:, :, :1, ..., 1], field.shape[:-1])  # a walker b that draws nothing
        a, b = win.index(-3), win.index(2)
        stacked = np.stack([field[..., 0], steady], axis=-1)
        # (coins, full rows, whether each particle's coins are limited to the cone)
        tables = [
            (split_coins(field, (a, b)), full_coin_rows(field), (True, True)),
            (split_coins([field[..., 0], steady], (a, b)), full_coin_rows(stacked), (True, False)),
            (split_coins([steady] * 2, (a, b)), full_coin_rows(np.stack([steady] * 2, axis=-1)), (False, False)),
        ]
        for coins, rows, in_cone in tables:
            assert coins.shape == (2, 2, n, 2, 1, *cells, 2, win.size)
            for t in range(n):
                lo, hi = max(a - t, 0), min(b + t + 2, win.size)
                for k in range(2):
                    for c in range(2):
                        got, expected = coins[k, c, t, :, 0], rows[1 - k + c, t]
                        for p, limited in enumerate(in_cone):
                            if not limited:
                                assert got[..., p, :].tobytes() == expected[..., p, :].tobytes()
                                continue
                            assert got[..., p, lo:hi].tobytes() == expected[..., p, lo:hi].tobytes()
                            outside = np.concatenate([got[..., p, :lo], got[..., p, hi:]], axis=-1)
                            assert not outside.any() and not np.signbit(outside).any()
        assert tables[2][0].strides[2] == 0  # fields that all store one step give a one-step table

    @pytest.mark.parametrize("cells", [3, 20])
    def test_steps_equal_the_full_table_oracle(self, cells):
        # 3 cells (24 walker rows) step every range over the cone; 20 cells (160 rows) step the whole
        # window once the cone spans half of it, where the zero coins outside it meet zero amplitudes
        win, n = LatticeWindow(12), 11
        rng = np.random.default_rng(cells + 1)
        field = rng.uniform(-np.pi, np.pi, (2, win.size, n, cells, 2))
        start = started_at(win, [-1, 0], (2, cells, 2), 5)  # (site, coin, start coin, cell, particle)
        coins = split_coins(field, (win.index(-1), win.index(0)))
        assert_cone_steps(start, coins, full_table_stepper(field))
        assert_cone_steps(normalized(start.real), coins, full_table_stepper(field))  # a float walk too

    def test_an_angle_outside_the_cone_is_never_read(self):
        # step 3 of a start at the origin reads sites [-3, 4]: a NaN angle at site 4 still ends the walk
        # there, and an infinite one at site 5, whose cos would warn, is never taken
        win, n = LatticeWindow(15), 10
        field = np.random.default_rng(22).uniform(-np.pi, np.pi, (2, win.size, n))
        start, origin = make_single_state(win, 0, (1, 0)), (win.index(0),) * 2
        clean = stepped(start, split_coins(field, origin))
        inside, outside = field.copy(), field.copy()
        inside[1, win.index(4), 3] = np.nan
        outside[1, win.index(5), 3] = np.inf
        assert stepped(start, split_coins(outside, origin)).tobytes() == clean.tobytes()
        with pytest.raises(NumericalError, match="at step 4$"):
            stepped(start, split_coins(inside, origin))

    def test_a_narrower_cone_than_the_starts_fails(self):
        # coins built for a start at the origin leave a start that also holds site -1 with zero coins there
        win, n = LatticeWindow(10), 4
        field = np.random.default_rng(23).uniform(-np.pi, np.pi, (2, win.size, n))
        start = started_at(win, [-1, 0], (), 24)
        with pytest.raises(NumericalError, match="at step 1$"):
            stepped(start, split_coins(field, (win.index(0), win.index(0))))


class TestFieldShapes:
    """split_coins is the one reader of a walk's fields: the fields of a sequence must share one
    (2, site, step, *cells) shape, and a lone field needs a leading 2 and at least three axes."""

    @pytest.mark.parametrize(
        "shapes",
        [
            [(2, 7, 3), (2, 7, 4)],  # full fields of different step counts
            [(2, 7, 3), (2, 9, 3)],  # fields of different windows
            [(2, 7, 3, 2), (2, 7, 3, 3)],  # different cell axes
            [(2, 7, 3), (2, 7, 3, 1)],  # a cell axis beside none
            [(3, 7, 3), (3, 7, 3)],  # three angle planes
            [(2, 7), (2, 7)],  # no step axis
            [(2, 0, 3), (2, 0, 3)],  # no sites
            [],
        ],
    )
    def test_fields_of_a_sequence_share_one_shape(self, shapes):
        fields = [np.zeros(shape) for shape in shapes]
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shapes}")):
            split_coins(fields)

    @pytest.mark.parametrize("shape", [(2, 7), (3, 7, 3), (7,), (), (2, 0, 3), (2, 0, 0, 2)])
    def test_a_lone_field_has_two_planes_and_three_axes(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shapes {[shape]}")):
            split_coins(np.zeros(shape))

    @pytest.mark.parametrize(
        "field, message",
        [
            (np.zeros((2, 7, 3)).tolist(), "fields must be numpy arrays, got types ['list', 'list']"),
            ([np.zeros((2, 7, 3)), np.zeros((2, 7, 3)).tolist()], "got types ['ndarray', 'list']"),
            ([(np.zeros((7, 3)), np.zeros((7, 3)))], "got types ['tuple']"),
            (np.zeros((2, 7, 3), complex), "fields must be float64, got dtypes ['complex128']"),
            (np.zeros((2, 7, 3), np.float32), "got dtypes ['float32']"),
            (np.zeros((2, 7, 3), int), "got dtypes ['int64']"),
            ([np.zeros((2, 7, 3)), np.zeros((2, 7, 3), complex)], "got dtypes ['float64', 'complex128']"),
        ],
    )
    def test_fields_are_float64_arrays(self, field, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            split_coins(field)

    def test_a_field_of_no_steps_is_a_walk_of_none(self):
        assert split_coins(np.zeros((2, 7, 0))).shape == (2, 2, 0, 2, 1, 7)
        assert split_coins([np.zeros((2, 7, 0, 3))] * 2).shape == (2, 2, 0, 2, 1, 3, 2, 7)

    def test_a_broadcast_field_beside_a_full_one_shares_its_shape(self):
        # a field that stores one step is broadcast to the walk's steps, so its shape is the full one's
        win = LatticeWindow(4)
        full = np.random.default_rng(25).uniform(-np.pi, np.pi, (2, win.size, 5))
        steady = np.broadcast_to(full[:, :, :1], full.shape)
        coins = split_coins([full, steady])
        assert coins.shape == (2, 2, 5, 2, 1, 2, win.size)
        with pytest.raises(ValueError, match=re.escape(f"got shapes {[full.shape, (2, win.size, 1)]}")):
            split_coins([full, full[:, :, :1]])


def walk_outcome(start, coins):
    """The blocks trajectory yields for start under coins, and the error it then raises, if any."""
    blocks = []
    try:
        for block in trajectory(start, coins):
            blocks.append(block.copy())
    except (NumericalError, WindowOverflowError) as exc:
        return blocks, exc
    return blocks, None


def random_real_walk(seed):
    """A real start of 512 walkers on 2 random sites of a narrow window, so that some walks leave it,
    and coins of random angles, one of them NaN or infinite unless seed % 3 == 0. A step of 512
    walkers is a block of its own, so that a walk yields the steps before the one that fails."""
    rng = np.random.default_rng(seed)
    win, n, cells = LatticeWindow(int(rng.integers(4, 9))), int(rng.integers(1, 12)), 512
    field = rng.uniform(-2 * np.pi, 2 * np.pi, (2, win.size, n, cells))
    if seed % 3:
        field[tuple(rng.integers(field.shape))] = rng.choice([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):  # the cos and sin of an infinite angle are NaN
        coins = split_coins(field)
    start = np.zeros((win.size, 2, cells))
    start[rng.choice(win.size, 2, replace=False)] = rng.standard_normal((2, 2, cells))
    return start / np.sqrt((start**2).sum(axis=(0, 1))), coins


class TestRealArithmetic:
    """A real start steps in float64, a complex one in complex128; the coins and shifts are real,
    so the float walk holds the bits of the complex walk's real parts, up to the sign of a zero."""

    @pytest.mark.parametrize("seed", range(12))
    def test_real_start_steps_as_the_real_part_of_a_complex_start(self, seed):
        start, coins = random_real_walk(seed)
        real_blocks, real_error = walk_outcome(start, coins)
        complex_blocks, complex_error = walk_outcome(start.astype(complex), coins)
        assert len(real_blocks) == len(complex_blocks)
        for real, stepped in zip(real_blocks, complex_blocks):
            assert real.dtype == float and stepped.dtype == complex
            # equal values are equal bits, but for zeros: a complex product c * (0 + 0j) takes the sign of
            # its zero from the imaginary part's too, (c * 0) - (0 * (+-0)), and a float one from c * 0 alone
            assert np.array_equal(real, stepped.real) and not stepped.imag.any()
        assert type(real_error) is type(complex_error) and str(real_error) == str(complex_error)

    def test_the_random_walks_end_every_way(self):
        # the seeds above cover walks that finish, drift and leave the window
        outcomes = {type(walk_outcome(*random_real_walk(seed))[1]) for seed in range(12)}
        assert outcomes == {type(None), NumericalError, WindowOverflowError}

    def test_block_dtype_follows_the_start(self):
        win = LatticeWindow(6)
        coins = split_coins(constant_field(0.3, -1.1, 4, win))
        state = make_single_state(win, 0, (1, 0))  # a complex array
        for start in (state, state.real, state.real.astype(np.float32)):
            dtype = complex if np.iscomplexobj(start) else float
            assert {b.dtype for b in trajectory(start, coins)} == {np.dtype(dtype)}

    @pytest.mark.parametrize("scale, drift", [(1.001, r"2\.001e-03"), (np.nan, "nan")])
    def test_norm_check_catches_drift_in_float_blocks(self, scale, drift):
        # a float block's norms sum its sites once: its memory has no imaginary parts to interleave
        s = make_single_state(LatticeWindow(3), 0, (1, 0)).real
        coins = np.array(hadamard_coins(s.shape[0], 3))
        coins[:, :, 1] *= scale  # both coins of the second step: the norm grows by 1.001**2
        with pytest.raises(NumericalError, match=rf"^walker norm drifted by {drift} at step 2$"):
            list(trajectory(s, coins))
