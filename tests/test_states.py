import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topowalk import (
    LatticeWindow,
    NumericalError,
    hadamard_coins,
    make_single_state,
    position_distribution,
    von_neumann_entropy,
)
from topowalk.experiments import RunConfig, _resolved_window
from conftest import random_pair_state, random_single_state
from oracles import distribution_sigma, reduce_pair_to_coin, reduce_to_coin, stepped, tensor_pair


class TestLatticeWindow:
    def test_size_and_positions(self):
        win = LatticeWindow(3)
        assert win.size == 7
        assert list(win.positions()) == [-3, -2, -1, 0, 1, 2, 3]
        assert win.index(-3) == 0
        assert win.index(3) == 6

    def test_rejects_nonpositive_half_width(self):
        with pytest.raises(ValueError):
            LatticeWindow(0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            LatticeWindow(3).index(4)

    def test_auto_window_leaves_margin(self):
        # an origin walk's support grows one site per step, so the auto window is steps + 1
        assert _resolved_window(RunConfig(steps=100)).half_width == 101


class TestMakeSingleState:
    def test_basis_state(self):
        win = LatticeWindow(100)
        s = make_single_state(win, 0, (1, 0))
        assert s[win.index(0), 0] == 1.0
        assert np.count_nonzero(s) == 1

    def test_complex_coin_is_normalized(self):
        s = make_single_state(LatticeWindow(100), 0, (1 / np.sqrt(2), 1j / np.sqrt(2)))
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_rejects_unnormalized_coin(self):
        with pytest.raises(ValueError):
            make_single_state(LatticeWindow(100), 0, (1, 1))

    def test_rejects_nan_coin(self):
        with pytest.raises(ValueError):
            make_single_state(LatticeWindow(3), 0, (np.nan, 0))

    def test_rejects_position_at_edge(self):
        with pytest.raises(ValueError):
            make_single_state(LatticeWindow(5), 5, (1, 0))


class TestTensorPair:
    def test_basis_product(self):
        win = LatticeWindow(4)
        a = make_single_state(win, 0, (1, 0))
        b = make_single_state(win, 0, (0, 1))
        pair = tensor_pair(a, b)
        i0 = win.index(0)
        assert pair.amps[i0, 0, i0, 1] == 1.0
        assert np.count_nonzero(pair.amps) == 1

    def test_norm_multiplies(self):
        win = LatticeWindow(6)
        pair = tensor_pair(random_single_state(win, 1), random_single_state(win, 2))
        assert abs(pair.norm() - 1.0) < 1e-12

    def test_two_site_products_enumerated(self):
        # hand enumeration of all four products of two 2-component states
        win = LatticeWindow(2)
        a = make_single_state(win, 0, (0.6, 0.8j))
        b = make_single_state(win, 1, (0.8, -0.6))
        pair = tensor_pair(a, b)
        ia, ib = win.index(0), win.index(1)
        for ca in (0, 1):
            for cb in (0, 1):
                assert pair.amps[ia, ca, ib, cb] == a[ia, ca] * b[ib, cb]

    def test_rejects_mismatched_windows(self):
        a = make_single_state(LatticeWindow(3), 0, (1, 0))
        b = make_single_state(LatticeWindow(4), 0, (1, 0))
        with pytest.raises(ValueError):
            tensor_pair(a, b)


class TestPositionDistribution:
    def test_basis_state_is_delta(self):
        win = LatticeWindow(5)
        s = make_single_state(win, 0, (1, 0))
        dist = position_distribution(s)
        assert dist[win.index(0)] == 1.0
        assert dist.sum() == 1.0

    def test_one_hadamard_step_splits_evenly(self):
        win = LatticeWindow(5)
        s = stepped(make_single_state(win, 0, (1, 0)), hadamard_coins(win.size, 1))
        dist = position_distribution(s)
        assert_allclose(dist[win.index(1)], 0.5, atol=1e-12)
        assert_allclose(dist[win.index(-1)], 0.5, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_normalization(self, seed):
        s = random_single_state(LatticeWindow(7), seed)
        assert abs(position_distribution(s).sum() - 1.0) < 1e-10


class TestReduceToCoin:
    def test_basis_state_pure(self):
        s = make_single_state(LatticeWindow(5), 0, (1, 0))
        assert_allclose(reduce_to_coin(s), np.diag([1.0, 0.0]), atol=1e-15)

    def test_orthogonal_positions_kill_coherence(self):
        win = LatticeWindow(5)
        s = make_single_state(win, 0, (1, 0))
        amps = np.zeros_like(s)
        amps[win.index(1), 0] = 1 / np.sqrt(2)
        amps[win.index(-1), 1] = 1 / np.sqrt(2)
        assert_allclose(reduce_to_coin(amps), np.diag([0.5, 0.5]), atol=1e-15)

    def test_unevolved_entangled_pair(self):
        # (|01> + |10>)/sqrt(2) at one site: projector with 1/2 on the middle block
        from topowalk import InitialPairState
        from oracles import make_pair_state

        pair = make_pair_state(InitialPairState("psi+"), LatticeWindow(4))
        rho = reduce_pair_to_coin(pair)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
        assert_allclose(rho, expected, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_one(self, seed):
        win = LatticeWindow(5)
        for rho in (
            reduce_to_coin(random_single_state(win, seed)),
            reduce_pair_to_coin(random_pair_state(win, seed)),
        ):
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_product_state_reduces_to_kron(self, seed):
        win = LatticeWindow(6)
        a = random_single_state(win, seed)
        b = random_single_state(win, seed + 10**9)
        rho_pair = reduce_pair_to_coin(tensor_pair(a, b))
        rho_kron = np.kron(reduce_to_coin(a), reduce_to_coin(b))
        assert np.abs(rho_pair - rho_kron).max() < 1e-12


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_two(self):
        assert_allclose(von_neumann_entropy(np.diag([0.5, 0.5])), 1.0, atol=1e-12)

    def test_maximally_mixed_four(self):
        assert_allclose(von_neumann_entropy(np.diag([0.25] * 4)), 2.0, atol=1e-12)

    def test_clips_rounding_noise(self):
        rho = np.diag([1.0 + 5e-11, -5e-11])
        assert von_neumann_entropy(rho) < 1e-8

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NumericalError):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericalError):
            von_neumann_entropy(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        with pytest.raises(NumericalError):
            von_neumann_entropy(np.full((2, 2), bad))

    def test_stack_equals_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(31)
        stack = np.empty((200, 4, 4), dtype=complex)
        for k in range(200):
            if k % 20 == 0:  # exact pure states, whose entropy is -0.0
                stack[k] = np.diag(np.eye(4)[k % 4])
            else:  # mixed states of rank 1 to 4
                a = rng.standard_normal((4, 1 + k % 4)) + 1j * rng.standard_normal((4, 1 + k % 4))
                stack[k] = a @ a.conj().T / np.vdot(a, a).real
        singles = np.array([von_neumann_entropy(rho) for rho in stack])
        batched = von_neumann_entropy(stack)
        assert batched.shape == (200,)
        assert np.array_equal(batched, singles)
        assert np.array_equal(np.signbit(batched), np.signbit(singles))
        assert np.signbit(batched[::20]).all()
        assert np.array_equal(von_neumann_entropy(stack.reshape(10, 20, 4, 4)), batched.reshape(10, 20))

    @pytest.mark.parametrize(
        "bad",
        [
            np.full((4, 4), np.nan),
            np.triu(np.full((4, 4), 0.25)),  # not Hermitian
            np.diag([1.1, -0.1, 0.0, 0.0]),  # a negative eigenvalue
        ],
    )
    def test_stack_with_one_bad_matrix_raises(self, bad):
        stack = np.repeat(np.diag([0.25] * 4)[None], 9, axis=0).astype(complex)
        stack[4] = bad
        with pytest.raises(NumericalError, match=r"density matrix \(4,\)"):
            von_neumann_entropy(stack)

    @pytest.mark.parametrize("shape", [(3, 4), (5, 3, 4), (4,)])
    def test_rejects_non_square_or_one_dimensional_input(self, shape):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.zeros(shape))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        win = LatticeWindow(5)
        s1 = random_single_state(win, seed)
        s2 = random_pair_state(win, seed)
        assert 0.0 <= von_neumann_entropy(reduce_to_coin(s1)) <= 1.0 + 1e-12
        assert 0.0 <= von_neumann_entropy(reduce_pair_to_coin(s2)) <= 2.0 + 1e-12


def test_distribution_sigma_two_point():
    positions = np.array([-1, 0, 1])
    probs = np.array([0.5, 0.0, 0.5])
    assert_allclose(distribution_sigma(positions, probs), 1.0, atol=1e-14)
