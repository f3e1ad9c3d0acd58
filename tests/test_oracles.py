"""Slow reference oracles, cross-checked against brute force and the fast kernels."""

import itertools
import re
from functools import reduce

import numpy as np
import pytest

from dqc1sim.circuits import GATE_KINDS, Circuit, IsingInstance, PolyF2, ccz, cx, cz, h, mcx, rz, s, sdg, t, tdg, x, z
from dqc1sim.ensembles import random_circuit, random_poly
from dqc1sim.oracles import (
    circuit_unitary,
    density_matrix_dqc1,
    gap,
    ising_partition_function,
)
from dqc1sim.simulator import StateVector, apply_circuit, dqc1_distribution


def brute_force_gap(f: PolyF2) -> int:
    """Count-based gap via explicit iteration over all assignments."""
    even = 0
    for assignment in itertools.product((0, 1), repeat=f.n_vars):
        value = 0
        for monomial in f.monomials:
            term = 1
            for v in monomial:
                term &= assignment[v]
            value ^= term
        even += 1 - value
    return 2 * even - (1 << f.n_vars)


def brute_force_partition(m: IsingInstance) -> complex:
    total = 0.0j
    for spins in itertools.product((1, -1), repeat=m.n_spins):
        energy = 0.0
        for j, k, theta in m.couplings:
            energy += theta * spins[j] * spins[k]
        for j, theta in m.fields:
            energy += theta * spins[j]
        total += np.exp(1j * energy)
    return total


class TestGap:
    def test_frozen_values(self):
        assert gap(PolyF2(4)) == 16  # zero polynomial: every point even
        assert gap(PolyF2(1, ((0,),))) == 0  # balanced linear form
        assert gap(PolyF2(3, ((0, 1, 2),))) == 6  # one odd point out of 8
        assert gap(PolyF2(2, ((0,), (1,), (0, 1)))) == -2

    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            f = random_poly(n, int(rng.integers(0, 12)), rng)
            assert gap(f) == brute_force_gap(f)

    def test_parity_and_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            g = gap(random_poly(n, int(rng.integers(0, 15)), rng))
            assert -(1 << n) <= g <= (1 << n)
            assert g % 2 == 0

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            gap(PolyF2(25))


class TestIsingPartitionFunction:
    def test_frozen_values(self):
        assert ising_partition_function(IsingInstance(2)) == pytest.approx(4.0 + 0.0j)
        z = ising_partition_function(IsingInstance(2, ((0, 1, np.pi / 2),)))
        assert abs(z) < 1e-12
        z = ising_partition_function(IsingInstance(1, (), ((0, np.pi),)))
        assert z == pytest.approx(-2.0 + 0.0j, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_brute_force(self, seed):
        rng = np.random.default_rng(400 + seed)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            pairs = list(itertools.combinations(range(n), 2))
            rng.shuffle(pairs)
            couplings = tuple(
                (j, k, float(rng.uniform(-3, 3))) for j, k in pairs[: int(rng.integers(0, len(pairs) + 1))]
            )
            fields = tuple(
                (int(j), float(rng.uniform(-3, 3)))
                for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            )
            m = IsingInstance(n, couplings, fields)
            assert ising_partition_function(m) == pytest.approx(brute_force_partition(m), abs=1e-9)

    def test_negating_angles_conjugates(self):
        m = IsingInstance(3, ((0, 1, 0.7), (1, 2, -0.4)), ((0, 1.1),))
        flipped = IsingInstance(
            3,
            tuple((j, k, -t) for j, k, t in m.couplings),
            tuple((j, -t) for j, t in m.fields),
        )
        a = ising_partition_function(m)
        b = ising_partition_function(flipped)
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_magnitude_bound(self):
        m = IsingInstance(4, ((0, 3, 1.3),), ((2, 0.9),))
        assert abs(ising_partition_function(m)) <= 16 + 1e-9

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ising_partition_function(IsingInstance(21))


# Textbook matrices at width 3, where qubit 0 is the leading kron factor.
_I = np.eye(2)
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]])


def _kron(*factors) -> np.ndarray:
    return reduce(np.kron, factors)


def _permutation(image) -> np.ndarray:
    """The matrix sending basis column j to basis row image[j]."""
    return np.eye(len(image))[:, image]


_ONE_GATE = [
    (h(1), _kron(_I, _H, _I)),
    (x(2), _kron(_I, _I, _X)),
    (z(0), _kron(np.diag([1, -1]), _I, _I)),
    (s(1), _kron(_I, np.diag([1, 1j]), _I)),
    (sdg(2), _kron(_I, _I, np.diag([1, -1j]))),
    (t(0), _kron(np.diag([1, np.exp(1j * np.pi / 4)]), _I, _I)),
    (tdg(1), _kron(_I, np.diag([1, np.exp(-1j * np.pi / 4)]), _I)),
    # RZ(theta) = diag(exp(-i theta/2), exp(i theta/2)), the circuits.py convention.
    (rz(0.3, 2), _kron(_I, _I, np.diag([np.exp(-0.15j), np.exp(0.15j)]))),
    # Qubits 0 and 2 read 1 at rows 101 and 111.
    (cz(0, 2), np.diag([1, 1, 1, 1, 1, -1, 1, -1])),
    # Targets out of order: only row 111 reads 1 on all three.
    (ccz(2, 0, 1), np.diag([1, 1, 1, 1, 1, 1, 1, -1])),
    # Control qubit 2 (the low bit) flips target qubit 0: 001 <-> 101, 011 <-> 111.
    (cx(2, 0), _permutation([0, 5, 2, 7, 4, 1, 6, 3])),
    # Fires where qubit 0 reads 0 and qubit 2 reads 1, flipping qubit 1: 001 <-> 011.
    (mcx(1, (0, 2), (0, 1)), _permutation([0, 3, 2, 1, 4, 5, 6, 7])),
]


class TestCircuitUnitary:
    @pytest.mark.parametrize(("gate", "want"), _ONE_GATE, ids=[g.kind for g, _ in _ONE_GATE])
    def test_one_gate_against_its_textbook_matrix(self, gate, want):
        assert np.abs(circuit_unitary(Circuit(3, (gate,))) - want).max() <= 1e-15

    def test_every_kind_is_pinned(self):
        assert sorted(g.kind for g, _ in _ONE_GATE) == sorted(GATE_KINDS)

    def test_hadamard(self):
        mat = circuit_unitary(Circuit(1, (h(0),)))
        assert np.allclose(mat, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_cx_matrix(self):
        mat = circuit_unitary(Circuit(2, (cx(0, 1),)))
        want = np.zeros((4, 4))
        want[0, 0] = want[1, 1] = want[3, 2] = want[2, 3] = 1.0
        assert np.array_equal(mat.real, want)

    def test_unitary_and_matches_kernels(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            w = int(rng.integers(1, 6))
            c = random_circuit(w, int(rng.integers(1, 30)), rng)
            mat = circuit_unitary(c)
            dim = 1 << w
            assert np.abs(mat @ mat.conj().T - np.eye(dim)).max() < 1e-12
            for col in range(dim):
                fast = apply_circuit(StateVector.basis(w, col), c).amplitudes
                assert np.abs(mat[:, col] - fast).max() < 1e-12

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            circuit_unitary(Circuit(13))


class TestDensityMatrixRoute:
    def test_identity_single_mixed_qubit(self):
        d = density_matrix_dqc1(Circuit(2))
        assert np.allclose(d.probs, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_hadamard_on_clean(self):
        d = density_matrix_dqc1(Circuit(2, (h(0),)))
        assert np.allclose(d.probs, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_agrees_with_pure_state_route(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            u = random_circuit(n + 1, int(rng.integers(1, 40)), rng)
            slow = density_matrix_dqc1(u)
            fast = dqc1_distribution(u)
            assert np.abs(slow.probs - fast.probs).max() < 1e-10

    def test_entangling_case(self):
        u = Circuit(2, (h(0), cx(0, 1), s(0), x(1)))
        slow = density_matrix_dqc1(u)
        fast = dqc1_distribution(u)
        assert np.abs(slow.probs - fast.probs).max() < 1e-12

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            density_matrix_dqc1(Circuit(8))


class TestCaps:
    """Each brute-force route has one fixed cap: it runs at it and refuses one above."""

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: gap(PolyF2(25)), "n_vars=25 exceeds the cap of 24"),
            (lambda: ising_partition_function(IsingInstance(21)), "n_spins=21 exceeds the cap of 20"),
            (lambda: circuit_unitary(Circuit(11)), "width 11 exceeds the dense-matrix cap of 10"),
            (lambda: density_matrix_dqc1(Circuit(8)), "n=7 exceeds the density-matrix cap of 6"),
        ],
        ids=["gap", "ising", "unitary", "density"],
    )
    def test_one_above_the_cap(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_ising_at_the_cap(self):
        # One field on spin 0: the other 19 spins each contribute a factor 2.
        m = IsingInstance(20, (), ((0, 0.5),))
        assert ising_partition_function(m) == pytest.approx(2**20 * np.cos(0.5), rel=1e-12)

    def test_unitary_at_the_cap(self):
        mat = circuit_unitary(Circuit(10, (x(9),)))
        want = np.kron(np.eye(512), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(mat, want)

    def test_density_matrix_at_the_cap(self):
        # n = 6 makes a width-7 circuit, which the dense-matrix cap admits.
        u = Circuit(7, (h(0), cx(0, 6), s(3), h(3)))
        slow = density_matrix_dqc1(u)
        assert np.abs(slow.probs - dqc1_distribution(u).probs).max() < 1e-12
