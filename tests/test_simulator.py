"""State-vector kernels, the clean-qubit output distribution, and sampling."""

import numpy as np
import pytest

import dqc1sim.simulator as sim
from dqc1sim.circuits import GATE_KINDS, Circuit, Gate, cx, h, mcx, rz, s, t, x, z
from dqc1sim.ensembles import random_circuit
from dqc1sim.oracles import circuit_unitary, density_matrix_dqc1
from dqc1sim.simulator import (
    Distribution,
    StateVector,
    amplitude_zero,
    apply_circuit,
    bits_to_index,
    dqc1_distribution,
    f_value,
    index_to_bits,
    sample,
)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestIndexConvention:
    def test_qubit_zero_is_most_significant(self):
        # '10' means qubit 0 = 1, qubit 1 = 0, i.e. basis index 2 on two qubits.
        assert bits_to_index("10", 2) == 2
        assert bits_to_index("01", 2) == 1
        assert bits_to_index((1, 0, 1), 3) == 5

    def test_round_trip(self):
        for width in (1, 2, 5):
            for i in range(1 << width):
                assert bits_to_index(index_to_bits(i, width), width) == i

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            bits_to_index("012", 3)
        with pytest.raises(ValueError):
            bits_to_index("01", 3)
        with pytest.raises(ValueError):
            index_to_bits(4, 2)

    def test_basis_state(self):
        psi = StateVector.basis(2, "01")
        assert psi.amplitudes[1] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1


class TestSingleGates:
    def test_h_on_zero(self):
        out = apply_circuit(StateVector.zero(1), Circuit(1, (h(0),)))
        assert np.allclose(out.amplitudes, [_INV_SQRT2, _INV_SQRT2])

    def test_h_twice_is_identity(self):
        out = apply_circuit(StateVector.basis(1, 1), Circuit(1, (h(0), h(0))))
        assert np.allclose(out.amplitudes, [0.0, 1.0], atol=1e-15)

    def test_x_flips(self):
        out = apply_circuit(StateVector.zero(2), Circuit(2, (x(1),)))
        assert out.amplitudes[1] == 1.0

    def test_phase_family(self):
        # Z, S, T on |1> multiply by -1, i, exp(i pi/4).
        for gate, phase in ((z(0), -1.0), (s(0), 1j), (t(0), np.exp(1j * np.pi / 4))):
            out = apply_circuit(StateVector.basis(1, 1), Circuit(1, (gate,)))
            assert abs(out.amplitudes[1] - phase) < 1e-15

    def test_rz_phases(self):
        theta = 0.37
        c = Circuit(1, (rz(theta, 0),))
        lo = apply_circuit(StateVector.basis(1, 0), c).amplitudes[0]
        hi = apply_circuit(StateVector.basis(1, 1), c).amplitudes[1]
        assert abs(lo - np.exp(-0.5j * theta)) < 1e-15
        assert abs(hi - np.exp(+0.5j * theta)) < 1e-15

    def test_cx_truth_table(self):
        c = Circuit(2, (cx(0, 1),))
        for src, dst in ((0, 0), (1, 1), (2, 3), (3, 2)):
            out = apply_circuit(StateVector.basis(2, src), c)
            assert out.amplitudes[dst] == 1.0


class TestMcxPolarity:
    def test_anti_control_fires_on_zero(self):
        c = Circuit(2, (mcx(1, (0,), (0,)),))
        assert apply_circuit(StateVector.basis(2, "00"), c).amplitudes[bits_to_index("01", 2)] == 1.0
        assert apply_circuit(StateVector.basis(2, "10"), c).amplitudes[bits_to_index("10", 2)] == 1.0

    def test_plain_control_matches_cx(self):
        a = Circuit(2, (mcx(1, (0,), (1,)),))
        b = Circuit(2, (cx(0, 1),))
        for i in range(4):
            psi = StateVector.basis(2, i)
            assert np.array_equal(apply_circuit(psi, a).amplitudes, apply_circuit(psi, b).amplitudes)

    def test_mixed_polarities(self):
        # Fires only when control 1 is 0 and control 2 is 1.
        c = Circuit(3, (mcx(0, (1, 2), (0, 1)),))
        assert apply_circuit(StateVector.basis(3, "001"), c).amplitudes[bits_to_index("101", 3)] == 1.0
        assert apply_circuit(StateVector.basis(3, "011"), c).amplitudes[bits_to_index("011", 3)] == 1.0
        assert apply_circuit(StateVector.basis(3, "000"), c).amplitudes[bits_to_index("000", 3)] == 1.0


class TestAgainstDenseUnitary:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(15):
            w = int(rng.integers(1, 7))
            c = random_circuit(w, int(rng.integers(1, 40)), rng)
            mat = circuit_unitary(c)
            psi0 = rng.standard_normal(1 << w) + 1j * rng.standard_normal(1 << w)
            psi0 /= np.linalg.norm(psi0)
            fast = apply_circuit(StateVector(w, psi0.copy()), c).amplitudes
            assert np.abs(fast - mat @ psi0).max() < 1e-12

    def test_unitarity_at_width(self):
        rng = np.random.default_rng(7)
        c = random_circuit(12, 200, rng)
        psi = rng.standard_normal(1 << 12) + 1j * rng.standard_normal(1 << 12)
        psi /= np.linalg.norm(psi)
        out = apply_circuit(StateVector(12, psi), c)
        assert abs(out.norm() - 1.0) < 1e-10


class TestApplyCircuit:
    def test_pure(self):
        psi = StateVector.zero(1)
        before = psi.amplitudes.copy()
        apply_circuit(psi, Circuit(1, (h(0),)))
        assert np.array_equal(psi.amplitudes, before)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            apply_circuit(StateVector.zero(2), Circuit(3))

    def test_amplitudes_read_only(self):
        psi = StateVector.zero(1)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestFValue:
    def test_identity_circuit(self):
        u = Circuit(3)
        assert f_value(u, "000") == pytest.approx(1.0, abs=1e-15)
        assert f_value(u, "100") == pytest.approx(0.0, abs=1e-15)
        assert f_value(u, "010") == pytest.approx(1.0, abs=1e-15)

    def test_z_argument_forms(self):
        u = random_circuit(4, 30, np.random.default_rng(3))
        want = f_value(u, "0110")
        assert f_value(u, 6) == pytest.approx(want, abs=1e-15)
        assert f_value(u, (0, 1, 1, 0)) == pytest.approx(want, abs=1e-15)

    def test_z_out_of_range(self):
        with pytest.raises(ValueError):
            f_value(Circuit(2), 4)
        with pytest.raises(ValueError):
            f_value(Circuit(2), "011")

    def test_matches_distribution(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = random_circuit(4, 25, rng)
            d = dqc1_distribution(u)
            scale = float(1 << d.n)
            for idx in range(16):
                assert f_value(u, idx) == pytest.approx(scale * d.probs[idx], abs=5e-14)


class TestDqc1Distribution:
    def test_identity(self):
        d = dqc1_distribution(Circuit(3))
        want = np.zeros(8)
        want[:4] = 0.25
        assert np.abs(d.probs - want).max() < 1e-15

    def test_hadamard_on_clean(self):
        d = dqc1_distribution(Circuit(2, (h(0),)))
        assert np.abs(d.probs - 0.25).max() < 1e-15

    def test_normalized_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(1, 6))
            d = dqc1_distribution(random_circuit(n + 1, 30, rng))
            assert abs(d.probs.sum() - 1.0) < 1e-9
            assert d.probs.max() <= 2.0 ** (-n) + 1e-12

    def test_threads_give_identical_bytes(self):
        u = random_circuit(6, 40, np.random.default_rng(5))
        d1 = dqc1_distribution(u, threads=1)
        d4 = dqc1_distribution(u, threads=4)
        assert np.array_equal(d1.probs, d4.probs)

    def test_chunked_path_matches(self, monkeypatch):
        # Output bytes depend on neither the chunk size nor the thread count.
        for width, seed in ((7, 9), (11, 10)):
            u = random_circuit(width, 80, np.random.default_rng(seed), GATE_KINDS)
            whole = dqc1_distribution(u)
            for log_chunk in (8, 12, 16, 20):
                monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << log_chunk)
                for threads in (1, 2):
                    pieces = dqc1_distribution(u, threads=threads)
                    assert np.array_equal(whole.probs, pieces.probs), (width, log_chunk, threads)

    def test_width_cap(self):
        with pytest.raises(ValueError, match="mixed qubits"):
            dqc1_distribution(Circuit(6), max_n=4)

    def test_degenerate_no_mixed_qubits(self):
        # Width 1 is just the clean qubit: n=0, two outcomes.
        d = dqc1_distribution(Circuit(1, (h(0),)))
        assert np.allclose(d.probs, [0.5, 0.5])


def _columns_reference(u: Circuit) -> np.ndarray:
    """Average of |U|0 x>|**2 over x, one apply_circuit pass per column."""
    n = u.width - 1
    probs = np.zeros(1 << u.width)
    for col in range(1 << n):
        amps = apply_circuit(StateVector.basis(u.width, col), u).amplitudes
        probs += amps.real**2 + amps.imag**2
    return probs / (1 << n)


def _plan_cases():
    """Seeded circuits over all 12 kinds that stress the fused plan's edge cases."""
    rng = np.random.default_rng(2024)
    no_h = tuple(k for k in GATE_KINDS if k != "H")
    cases = []
    for width in range(1, 10):
        cases.append(random_circuit(width, int(rng.integers(0, 50)), rng, GATE_KINDS))
        cases.append(random_circuit(width, 30, rng, no_h))
        body = random_circuit(width, 20, rng, GATE_KINDS).gates
        ends = tuple(h(q) for q in rng.permutation(width))
        cases.append(Circuit(width, ends + body + ends))
        # H runs over every qubit, longer than the number of top slots.
        layer = tuple(h(q) for q in range(width))
        mid = random_circuit(width, 10, rng, no_h).gates
        cases.append(Circuit(width, layer + layer[::-1] + mid + layer + mid + layer))
    # Past the 512-butterfly rescale twice: unnormalised norms would overflow.
    gates = []
    for i in range(1101):
        gates.append(h(0))
        if i % 100 == 0:
            gates += [t(0), cx(0, 1), rz(0.3, 1)]
    cases.append(Circuit(2, tuple(gates)))
    return cases


class TestFusedPlan:
    @pytest.mark.parametrize("log_chunk", [6, 8, 20])
    def test_matches_gate_by_gate_columns(self, monkeypatch, log_chunk):
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << log_chunk)
        for u in _plan_cases():
            got = dqc1_distribution(u).probs
            assert np.abs(got - _columns_reference(u)).max() < 1e-13, u

    def test_matches_density_matrix_oracle(self):
        for u in _plan_cases():
            if u.width <= 6:
                want = density_matrix_dqc1(u).probs
                assert np.abs(dqc1_distribution(u).probs - want).max() < 1e-12, u

    def test_no_gate_by_gate_kernel(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("dqc1_distribution must run the compiled plan")

        monkeypatch.setattr(sim, "_run_gates", forbidden)
        monkeypatch.setattr(sim, "_apply_gate", forbidden)
        u = random_circuit(5, 40, np.random.default_rng(4), GATE_KINDS)
        assert dqc1_distribution(u).n == 4

    def test_non_finite_angle_fails_self_check(self):
        u = Circuit(2, (h(0), Gate("RZ", (1,), theta=float("nan")), h(1)))
        with pytest.raises(RuntimeError, match="sums to nan"):
            dqc1_distribution(u)


class TestDistributionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution(1, np.array([0.5, 0.5]))  # wrong length
        with pytest.raises(ValueError):
            Distribution(1, np.array([0.7, 0.5, 0.0, 0.0]))  # not normalized
        with pytest.raises(ValueError):
            Distribution(1, np.array([-0.1, 0.55, 0.55, 0.0]))  # negative
        with pytest.raises(ValueError):
            Distribution(1, np.array([np.nan] * 4))

    def test_outcome_bits(self):
        d = Distribution(1, np.array([0.25, 0.25, 0.25, 0.25]))
        assert [d.outcome_bits(i) for i in range(4)] == ["00", "01", "10", "11"]


class TestSample:
    def test_deterministic(self):
        d = dqc1_distribution(Circuit(2, (h(0), cx(0, 1))))
        assert sample(d, 50, seed=42) == sample(d, 50, seed=42)
        assert sample(d, 50, seed=42) != sample(d, 50, seed=43)

    def test_point_mass(self):
        probs = np.zeros(8)
        probs[:4] = [0.0, 1.0, 0.0, 0.0]
        d = Distribution(2, probs)
        assert sample(d, 20, seed=0) == ["001"] * 20

    def test_shape(self):
        d = dqc1_distribution(Circuit(3))
        draws = sample(d, 100, seed=1)
        assert len(draws) == 100
        assert all(len(b) == 3 and set(b) <= {"0", "1"} for b in draws)

    def test_frequencies_track_probs(self):
        d = dqc1_distribution(Circuit(2, (h(0),)))  # uniform on 4 outcomes
        draws = sample(d, 8000, seed=7)
        counts = np.bincount([int(b, 2) for b in draws], minlength=4)
        assert np.abs(counts / 8000 - 0.25).max() < 0.03

    def test_negative_count(self):
        d = dqc1_distribution(Circuit(2))
        with pytest.raises(ValueError):
            sample(d, -1, seed=0)
