"""State-vector kernels, the clean-qubit output distribution, and sampling."""

import hashlib
import itertools
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dqc1sim.simulator as sim
from dqc1sim.circuits import (
    GATE_KINDS,
    Circuit,
    Gate,
    adjoint,
    ccz,
    compile_iqp_from_poly,
    cx,
    cz,
    h,
    mcx,
    rz,
    s,
    sdg,
    shift_qubits,
    t,
    tdg,
    x,
    z,
)
from dqc1sim.ensembles import parse_ensemble_spec, random_circuit, random_poly
from dqc1sim.hardness import (
    ErrorBudget,
    SamplerModel,
    build_postselection_pair,
    build_worst_case_embedding,
    verify_chain,
)
from dqc1sim.oracles import circuit_unitary, density_matrix_dqc1, gap
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

    @pytest.mark.parametrize(
        ("index", "width", "message"),
        [(True, 2, "index must be an integer, got True"), (1.0, 2, "index must be an integer, got 1.0"),
         (-1, 2, "index -1 out of range for width 2"),
         (1, True, "width must be a nonnegative integer, got True")],
    )
    def test_index_to_bits_rejects_non_integers(self, index, width, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            index_to_bits(index, width)

    def test_basis_state(self):
        psi = StateVector.basis(2, "01")
        assert psi.amplitudes[1] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    @pytest.mark.parametrize(
        ("z", "needle"),
        [(True, "need a 2-bit string of 0/1, got True"), (-1, "index -1 out of range for width 2"),
         (4, "index 4 out of range for width 2"), ((1, 2), "need a 2-bit string of 0/1, got (1, 2)"),
         (2.0, "need a 2-bit string of 0/1, got 2.0")],
    )
    def test_basis_rejects_bad_index(self, z, needle):
        with pytest.raises(ValueError) as exc:
            StateVector.basis(2, z)
        assert needle in str(exc.value) and "\n" not in str(exc.value)

    def test_numpy_integer_index(self):
        psi = StateVector.basis(2, np.int64(1))
        assert np.array_equal(psi.amplitudes, StateVector.basis(2, 1).amplitudes)

    @pytest.mark.parametrize("bits", [[1.7, 0], [1.0, 0], [True, False], [0, 1, 0], (1, 0), np.array([1, 0])])
    def test_bits_must_be_integers_zero_or_one(self, bits):
        # Only a bit string gives an index: a sequence of bits is rejected in one line.
        with pytest.raises(ValueError, match=r"^need a 2-bit string of 0/1, got [^\n]*$"):
            bits_to_index(bits, 2)

    @pytest.mark.parametrize("width", [True, 2.0, -1, float("nan")])
    def test_state_width_must_be_an_integer(self, width):
        with pytest.raises(ValueError, match=r"^width must be a nonnegative integer, got "):
            StateVector(width, np.zeros(4))

    def test_basis_width_must_be_an_integer(self):
        with pytest.raises(ValueError, match=r"^width must be a nonnegative integer, got 2.0$"):
            StateVector.basis(2.0, 0)

    def test_state_width_numpy_integer(self):
        psi = StateVector(np.int64(2), np.zeros(4))
        assert type(psi.width) is int and psi.width == 2


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
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


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

    def test_amplitude_count_must_match_width(self):
        with pytest.raises(ValueError, match=r"^need 4 amplitudes for width 2, got shape \(3,\)$"):
            StateVector(2, np.zeros(3))


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
        with pytest.raises(ValueError, match=r"^need a 4-bit string of 0/1, got \(0, 1, 1, 0\)$"):
            f_value(u, (0, 1, 1, 0))

    def test_z_out_of_range(self):
        with pytest.raises(ValueError):
            f_value(Circuit(2), 4)
        with pytest.raises(ValueError):
            f_value(Circuit(2), "011")

    @pytest.mark.parametrize("z", [True, -1, 4, 1.0])
    def test_z_rejects_booleans_and_bad_integers(self, z):
        with pytest.raises(ValueError):
            f_value(Circuit(2, (h(0),)), z)

    def test_z_numpy_integer(self):
        u = random_circuit(4, 30, np.random.default_rng(3))
        assert f_value(u, np.int64(6)) == f_value(u, 6)

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -1e-9])
    def test_out_of_range_fails_self_check(self, monkeypatch, bad):
        # The pass runs one butterfly, so the squared norm is scaled by 1/2:
        # the fault is injected as 2 * bad, which the scale turns into bad.
        monkeypatch.setattr(sim, "_sq_norm", lambda v: math.ldexp(bad, 1))
        with pytest.raises(RuntimeError, match=r"^f value .* outside \[0, 1\]$"):
            f_value(Circuit(2, (h(1),)), 0)

    def test_matches_distribution(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            u = random_circuit(4, 25, rng)
            d = dqc1_distribution(u)
            scale = float(1 << d.n)
            for idx in range(16):
                assert f_value(u, idx) == pytest.approx(scale * d.probs[idx], abs=5e-14)


def _assert_single_column_matches(c: Circuit) -> None:
    """Every entry of the dense unitary, phases included, from the single-column entry points.

    amplitude_zero of X^row C X^col reads U[row, col] from a pass that starts
    with every qubit settled; f_value runs C or its adjoint from each basis
    column; apply_circuit runs with every qubit live.
    """
    u = circuit_unitary(c)
    w = c.width
    half = 1 << (w - 1)

    def flips(i: int) -> tuple:
        return tuple(x(q) for q in range(w) if i >> (w - 1 - q) & 1)

    for col in range(1 << w):
        for row in range(1 << w):
            got = amplitude_zero(Circuit(w, flips(col) + c.gates + flips(row)))
            assert abs(got - u[row, col]) <= 1e-12, (row, col)
        assert abs(f_value(adjoint(c), col) - np.sum(np.abs(u[:half, col]) ** 2)) <= 1e-12
        assert abs(f_value(c, col) - np.sum(np.abs(u[col, :half]) ** 2)) <= 1e-12
        out = apply_circuit(StateVector.basis(w, col), c).amplitudes
        assert np.abs(out - u[:, col]).max() <= 1e-12
    rng = np.random.default_rng(w)
    psi = rng.standard_normal(1 << w) + 1j * rng.standard_normal(1 << w)
    psi /= np.linalg.norm(psi)
    assert np.abs(apply_circuit(StateVector(w, psi), c).amplitudes - u @ psi).max() <= 1e-12


# Gates with real matrices: f_value runs a circuit of these in float64.
_REAL_GATES = frozenset({"H", "X", "Z", "CZ", "CCZ", "CX", "MCX"})


def _assert_single_column_memory(c: Circuit) -> None:
    """Peak traced bytes of each entry point stay within its states plus 1 MiB.

    A complex128 state takes 16 bytes an entry; f_value on a circuit of
    real gates runs in float64, 8 bytes an entry.
    """
    state = 16 << c.width
    f_state = (8 << c.width) if {g.kind for g in c.gates} <= _REAL_GATES else state
    psi = StateVector.zero(c.width)

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: f_value(c, 0)) <= f_state + (1 << 20)
    assert peak(lambda: amplitude_zero(c)) <= state + (1 << 20)
    assert peak(lambda: apply_circuit(psi, c)) <= 2 * state + (1 << 20)


def _many_h(count: int) -> Circuit:
    """``count`` H gates on qubit 0 of two, with a T, CX and RZ after every 100th."""
    gates = []
    for i in range(count):
        gates.append(h(0))
        if i % 100 == 0:
            gates += [t(0), cx(0, 1), rz(0.3, 1)]
    return Circuit(2, tuple(gates))


# One case per rule for qubits a pass has not mixed yet (settled qubits).
_SETTLED_CASES = {
    "x_before_first_h": Circuit(
        3, (x(0), h(0), t(0), h(0), x(1), h(1), cx(1, 2), x(0), h(0), x(2)),
    ),
    "settled_controls": Circuit(
        3,
        (cx(0, 1), mcx(2, (0, 1), (1, 0)), h(1), mcx(0, (1, 2), (0, 1)),
         cx(2, 0), mcx(1, (0, 2), (0, 0)), cx(0, 2)),
    ),
    "cz_ccz": Circuit(
        3, (cz(1, 2), ccz(0, 1, 2), h(0), cz(0, 1), ccz(0, 1, 2), h(2), ccz(0, 1, 2), cz(2, 1)),
    ),
    "phases_on_settled": Circuit(
        3,
        (rz(0.7, 0), s(1), sdg(2), t(0), tdg(1), z(2), h(1), rz(-1.1, 2), t(2),
         s(0), h(0), sdg(1), tdg(0), z(0), rz(2.3, 1)),
    ),
    "never_mixed": Circuit(
        4,
        (x(1), cx(1, 3), t(3), mcx(0, (1, 3), (1, 1)), ccz(0, 1, 3), rz(0.4, 2),
         mcx(2, (0, 3), (0, 1)), s(0), cz(2, 3), sdg(1)),
    ),
    "settled_middle_qubit": Circuit(
        5,
        (h(1), h(3), h(4), cx(3, 4), t(4), cz(1, 3), x(2), ccz(1, 2, 4), h(0), cx(4, 0),
         t(1), h(1)),
    ),
    "h_1101_times": _many_h(1101),
}

# Two entries make swaps and norms split every block they touch.
_TEMP_SIZES = pytest.mark.parametrize("temp_entries", [2, sim._TEMP_ENTRIES])
# The run kernels also at 16 entries: _blocks and the _diagonal_run counts
# split into many blocks.
_RUN_TEMP_SIZES = (2, 16, sim._TEMP_ENTRIES)

_DIAGONAL_KINDS = ("Z", "S", "SDG", "T", "TDG", "CZ", "CCZ")
_ARITY = {"CZ": 2, "CCZ": 3}


def _run_circuit(w: int, rng: np.random.Generator) -> Circuit:
    """Seeded circuit of long diagonal runs and H runs, biased to the low qubits.

    Diagonal runs mix all seven fixed-angle kinds with RZ, free X flips and
    CX/MCX (free when their controls are settled); some qubits start flipped
    and some stay settled for a while, so targets are settled, flipped or live.
    """
    gates = [x(int(q)) for q in range(w) if rng.random() < 0.3]
    gates += [h(int(q)) for q in range(w) if rng.random() < 0.6]
    for _ in range(3):
        for _ in range(int(rng.integers(5, 25))):
            r = rng.random()
            q = int(rng.integers(w))
            if r < 0.1:
                gates.append(rz(float(rng.uniform(-3, 3)), q))
            elif r < 0.2:
                gates.append(x(q))
            elif r < 0.25 and w > 1:
                others = [p for p in range(w) if p != q]
                size = min(int(rng.integers(1, 4)), w - 1)
                ctl = [int(c) for c in rng.choice(others, size, replace=False)]
                gates.append(mcx(q, ctl, [int(b) for b in rng.integers(2, size=len(ctl))]))
            else:
                kind = str(rng.choice(_DIAGONAL_KINDS))
                arity = _ARITY.get(kind, 1)
                if arity <= w:
                    gates.append(Gate(kind, tuple(int(p) for p in rng.choice(w, arity, replace=False))))
        # An H run: low qubits more often, some twice, some flipped first.
        pool = [q for q in range(w) for _ in range(1 + q * 3 // w)]
        run = [int(q) for q in rng.choice(pool, size=int(rng.integers(1, 2 * w + 1)))]
        gates += [x(q) for q in set(run) if rng.random() < 0.3]
        gates += [h(q) for q in run]
    return Circuit(w, tuple(gates))


def _interleave(parts: list[Circuit], rng: np.random.Generator) -> Circuit:
    """The parts on consecutive qubit blocks, their gates interleaved in seeded chunks.

    Each part keeps its order, so the circuit's dense unitary is the
    Kronecker product of the parts' ``circuit_unitary``.
    """
    w = sum(p.width for p in parts)
    queues, offset = [], 0
    for p in parts:
        queues.append(list(shift_qubits(p, offset, w).gates))
        offset += p.width
    gates = []
    while any(queues):
        queue = queues[rng.choice([i for i, q in enumerate(queues) if q])]
        take = int(rng.integers(1, 9))
        gates += queue[:take]
        del queue[:take]
    return Circuit(w, tuple(gates))


def _assert_product_matches(monkeypatch, parts: list[Circuit], rng, samples: int = 4) -> None:
    """Sampled unitary entries of ``_interleave(parts)``, phases included.

    Checked at every run-kernel temporary size.
    """
    mats = [circuit_unitary(p) for p in parts]
    c = _interleave(parts, rng)
    w = c.width

    def entries(index: int, axis: int) -> np.ndarray:
        """Column (axis 1) or row (axis 0) ``index`` of the product unitary."""
        out, shift = np.ones(1, dtype=np.complex128), w
        for p, m in zip(parts, mats):
            shift -= p.width
            sub = (index >> shift) & ((1 << p.width) - 1)
            out = np.kron(out, m[:, sub] if axis else m[sub, :])
        return out

    def flips(i: int) -> tuple:
        return tuple(x(q) for q in range(w) if i >> (w - 1 - q) & 1)

    psi = rng.standard_normal(1 << w) + 1j * rng.standard_normal(1 << w)
    psi /= np.linalg.norm(psi)
    want = psi.reshape([m.shape[0] for m in mats])
    for axis, m in enumerate(mats):
        want = np.moveaxis(np.tensordot(m, want, axes=(1, axis)), 0, axis)
    want = want.reshape(-1)
    half = 1 << (w - 1)
    picks = [int(i) for i in rng.choice(1 << w, size=min(samples, 1 << w), replace=False)]
    for temp_entries in _RUN_TEMP_SIZES:
        monkeypatch.setattr(sim, "_TEMP_ENTRIES", temp_entries)
        for col in picks:
            column = entries(col, 1)
            row = entries(col, 0)
            for r in picks[:2]:
                got = amplitude_zero(Circuit(w, flips(col) + c.gates + flips(r)))
                assert abs(got - column[r]) <= 1e-12, (temp_entries, r, col)
            assert abs(f_value(adjoint(c), col) - np.sum(np.abs(column[:half]) ** 2)) <= 1e-12
            assert abs(f_value(c, col) - np.sum(np.abs(row[:half]) ** 2)) <= 1e-12
            out = apply_circuit(StateVector.basis(w, col), c).amplitudes
            assert np.abs(out - column).max() <= 1e-12, (temp_entries, col)
        assert np.abs(apply_circuit(StateVector(w, psi), c).amplitudes - want).max() <= 1e-12


def _every_low_bit(w: int) -> Circuit:
    """H layers on every qubit, the odd qubits flipped first, around a diagonal run."""
    layer = tuple(h(q) for q in range(w))
    odd = tuple(x(q) for q in range(1, w, 2))
    diag = tuple(
        Gate(k, tuple(range(q, q + _ARITY.get(k, 1))))
        for q, k in zip(range(w - 2), _DIAGONAL_KINDS * w)
    )
    return Circuit(w, layer + odd + layer[::-1] + diag + odd + layer + (t(w - 1),) + layer)


# Cases for the run kernels, each checked at every size in _RUN_TEMP_SIZES.
_RUN_CASES = {
    "every_low_bit": [_every_low_bit(8)],
    # Qubit 7 (stored bit 0) stays settled, then flipped: the live view is
    # not contiguous, so the butterflies and the diagonal run see strided views.
    "non_contiguous_live_view": [Circuit(
        8,
        tuple(h(q) for q in range(7)) + (x(7), cz(6, 7), t(7), ccz(5, 6, 7), s(5))
        + tuple(h(q) for q in (6, 5, 4, 6)) + (tdg(6), sdg(7), cz(4, 5), h(6), h(5)),
    )],
    "settled_middle_qubit": [Circuit(
        7,
        tuple(h(q) for q in range(7) if q != 3) + (x(3), ccz(2, 3, 6), cz(3, 5), t(3), s(6), z(5))
        + tuple(h(q) for q in (6, 5, 4)) + (cx(3, 6), tdg(6), h(6), h(3), cz(3, 6), h(4)),
    )],
    "product_of_two_sixes": [_every_low_bit(6), _every_low_bit(6)],
}


class TestSingleColumnPass:
    @_TEMP_SIZES
    @pytest.mark.parametrize("name", sorted(_SETTLED_CASES))
    def test_settled_qubit_rules(self, monkeypatch, name, temp_entries):
        monkeypatch.setattr(sim, "_TEMP_ENTRIES", temp_entries)
        _assert_single_column_matches(_SETTLED_CASES[name])

    @_TEMP_SIZES
    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_all_kinds(self, monkeypatch, seed, temp_entries):
        monkeypatch.setattr(sim, "_TEMP_ENTRIES", temp_entries)
        rng = np.random.default_rng(300 + seed)
        for w in range(1, 5):
            _assert_single_column_matches(random_circuit(w, int(rng.integers(0, 30)), rng, GATE_KINDS))

    @pytest.mark.parametrize("name", sorted(_RUN_CASES))
    def test_run_kernel_cases(self, monkeypatch, name):
        _assert_product_matches(monkeypatch, _RUN_CASES[name], np.random.default_rng(11))

    @pytest.mark.parametrize("seed", range(3))
    def test_run_kernels_random(self, monkeypatch, seed):
        # Widths 1-8 against one dense unitary; width 12 as a product of two.
        rng = np.random.default_rng(700 + seed)
        for w in range(1, 9):
            _assert_product_matches(monkeypatch, [_run_circuit(w, rng)], rng)
        _assert_product_matches(monkeypatch, [_run_circuit(6, rng), _run_circuit(6, rng)], rng)

    def test_no_hidden_state_copies(self):
        # Swaps on the qubits of the low-order bits must not copy half states.
        w = 18
        c = Circuit(
            w,
            tuple(h(q) for q in range(w))
            + (x(17), cx(16, 17), x(16), mcx(17, (15, 16), (0, 1)), h(17), cx(17, 0), t(17)),
        )
        _assert_single_column_memory(c)

    @pytest.mark.parametrize(
        ("w", "kinds", "edges"),
        [
            pytest.param(18, _DIAGONAL_KINDS, (), id="all-kinds"),
            pytest.param(18, ("Z", "CZ", "CCZ"), (), id="real-kinds"),
            # At width 20 the live view has leading axes that pick the count
            # block; these gates also hit the lowest stored bits, so the run
            # builds row patterns, and both at once.
            pytest.param(
                20,
                _DIAGONAL_KINDS,
                (ccz(0, 9, 19), cz(1, 18), ccz(2, 18, 19), t(19), s(0), cz(0, 1), tdg(18), z(10)),
                id="width-20-edges",
            ),
        ],
    )
    def test_run_kernels_stay_within_temporaries(self, w, kinds, edges):
        # A diagonal run of ``edges`` and 60 seeded gates between full H
        # layers: a uint8 count per block, and blocks of at most
        # _TEMP_ENTRIES entries.  With real kinds alone f_value runs in
        # float64, within half the bytes.
        rng = np.random.default_rng(18)
        layer = tuple(h(q) for q in range(w))
        run = edges + tuple(
            Gate(k, tuple(int(q) for q in rng.choice(w, _ARITY.get(k, 1), replace=False)))
            for k in rng.choice(kinds, size=60)
        )
        _assert_single_column_memory(Circuit(w, layer + run + layer + (x(w - 1),) + layer))


def _reference_run(live: np.ndarray, axes: dict[int, int], run: list) -> np.ndarray:
    """The live view after ``run``, flat, from one count over the whole view.

    One mask and compare per gate over every live index, then one table
    multiply: no blocks, rows or patterns.
    """
    n = live.ndim
    idx = np.arange(1 << n, dtype=np.uint32)
    count = np.zeros(1 << n, dtype=np.uint8)
    for fixed, e in run:
        mask = value = 0
        for q, bit in fixed.items():
            mask |= 1 << (n - 1 - axes[q])
            value |= bit << (n - 1 - axes[q])
        count[(idx & mask) == value] += e
    turn = sim._EIGHTH_TURN_REAL if live.dtype == np.float64 else sim._EIGHTH_TURN
    v = np.array(live).reshape(-1)
    v *= turn[count]
    return v


def _random_run(live: list[int], kinds, size: int, rng: np.random.Generator) -> list:
    """``size`` run entries [(fixed, eighths)] of ``kinds`` on the ``live`` qubits.

    Each target's stored bit is drawn: 1, or 0 as for a flipped qubit.
    """
    run = []
    for k in rng.choice(kinds, size=size):
        qs = rng.choice(live, min(_ARITY.get(str(k), 1), len(live)), replace=False)
        run.append(({int(q): int(rng.integers(2)) for q in qs}, sim._EIGHTHS[str(k)]))
    return run


def _assert_run_bits(w: int, settled: dict[int, int], run: list, dtype, rng) -> None:
    """``_diagonal_run`` matches ``_reference_run`` bit for bit on a random state.

    Qubits in ``settled`` are indexed at their stored bit; the entries
    outside the live view keep their bits.
    """
    buf = rng.standard_normal(1 << w)
    if dtype == np.complex128:
        buf = buf + 1j * rng.standard_normal(1 << w)
    full = buf.reshape((2,) * w)
    index = [settled.get(q, sim._LIVE) for q in range(w)]
    axes = {q: a for a, q in enumerate(q for q in range(w) if q not in settled)}
    want = _reference_run(sim._part(full, index, {}), axes, run)
    outside = np.ones(full.shape, dtype=bool)
    outside[tuple(index)] = False
    before = full[outside]
    pending = list(run)
    sim._diagonal_run(full, index, pending, [])
    assert pending == []
    got = np.array(sim._part(full, index, {})).reshape(-1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(full[outside].view(np.uint64), before.view(np.uint64))


class TestDiagonalRun:
    """The blocked, row-patterned run kernel against a whole-view count, bit for bit."""

    @pytest.mark.parametrize("row_bits", [2, sim._ROW_BITS])
    @pytest.mark.parametrize("temp_entries", _RUN_TEMP_SIZES)
    @pytest.mark.parametrize(
        ("dtype", "kinds"), [(np.float64, ("Z", "CZ", "CCZ")), (np.complex128, _DIAGONAL_KINDS)]
    )
    def test_matches_whole_view_count(self, monkeypatch, row_bits, temp_entries, dtype, kinds):
        # Enough live qubits for two leading axes above each count block, so
        # gates fall on the leading, middle and row axes and straddle them.
        monkeypatch.setattr(sim, "_TEMP_ENTRIES", temp_entries)
        monkeypatch.setattr(sim, "_ROW_BITS", row_bits)
        rng = np.random.default_rng(temp_entries + row_bits)
        top = (8 * temp_entries).bit_length() + 1
        for n_live in (1, 2, 3, top // 2, top):
            w = n_live + 2
            settled = {int(q): int(rng.integers(2)) for q in rng.choice(w, 2, replace=False)}
            live = [q for q in range(w) if q not in settled]
            straddle = ({live[0]: 1, live[len(live) // 2]: 0, live[-1]: 1}, 4)
            for size in (1, 2, 40):
                run = _random_run(live, kinds, size, rng)
                _assert_run_bits(w, settled, run, dtype, rng)
                _assert_run_bits(w, settled, run + [straddle], dtype, rng)

    def test_fvalue_w23_shape(self):
        # 66 cubic and quadratic terms on 22 live qubits in float64, as the
        # run of a width-23 worst-case embedding: qubit 0 stays settled.
        rng = np.random.default_rng(23)
        terms = [rng.choice(np.arange(1, 23), int(rng.integers(2, 4)), replace=False) for _ in range(66)]
        run = [({int(q): 1 for q in term}, 4) for term in terms]
        _assert_run_bits(23, {0: 0}, run, np.float64, rng)


def _assert_real_f_values(monkeypatch, parts: list[Circuit], rng: np.random.Generator) -> None:
    """f_value of ``_interleave(parts)``, real gates only, from every basis index.

    Each value matches the dense unitary: qubit 0 is in the first part and
    the other parts' rows have norm 1, so f_value(c, z) is the first part's
    weight at z's leading bits.  Each is also bit-equal to the complex128
    pass, which runs once no kind counts as real.
    """
    c = _interleave(parts, rng)
    assert {g.kind for g in c.gates} <= _REAL_GATES
    w0 = parts[0].width
    u = circuit_unitary(parts[0])
    weight = np.sum(np.abs(u[:, : 1 << (w0 - 1)]) ** 2, axis=1)
    want = np.repeat(weight, 1 << (c.width - w0))
    got = [f_value(c, z) for z in range(1 << c.width)]
    assert np.abs(np.array(got) - want).max() <= 1e-12
    with monkeypatch.context() as m:
        m.setattr(sim, "_REAL_KINDS", frozenset())
        assert [f_value(c, z).hex() for z in range(1 << c.width)] == [f.hex() for f in got]


class TestRealPass:
    """f_value runs circuits of real gates in float64, with the complex pass's bytes."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_negate_at_every_stride(self, dtype):
        # Views of one buffer with byte strides 8 (16 for complex) to 2**12,
        # negated in place and into an interleaved view; signed zeros too.
        item = np.dtype(dtype).itemsize
        rng = np.random.default_rng(5)
        for log_stride in range(item.bit_length() - 1, 13):
            step = (1 << log_stride) // item
            for n in (1, 3, 8, 9, 64):
                buf = np.zeros(2 * n * step, dtype=dtype)
                buf[:] = rng.standard_normal(len(buf))
                buf[::5] = -0.0
                if dtype == np.complex128:
                    buf.imag[1::3] = -0.0
                src = buf[: n * step : step]
                want = np.array([-v for v in src.tolist()], dtype=dtype)
                out = buf[n * step :: step]
                sim._negate(src, out)
                assert out.tobytes() == want.tobytes(), (log_stride, n)
                sim._negate(src, src)
                assert src.tobytes() == want.tobytes(), (log_stride, n)

    def test_real_circuits_against_oracle(self, monkeypatch):
        # Widths 4-8 as one dense circuit, 9-12 as a product of two.  Each
        # part ends in gates above its lowest three qubits, which the pass
        # (of the adjoint) runs first: while the lowest three stay settled,
        # its views have the 64-byte float64 stride of stored bit 3.  Over
        # every start a flipped qubit sits on every stored bit.
        rng = np.random.default_rng(980)
        kinds = sorted(_REAL_GATES)

        def part(k: int) -> Circuit:
            gates = random_circuit(k, int(rng.integers(0, 3 * k)), rng, kinds).gates
            high = random_circuit(k - 3, int(rng.integers(1, 3 * k)), rng, kinds).gates
            return Circuit(k, gates + high)

        for w in range(4, 13):
            widths = [w] if w <= 8 else [w - w // 2, w // 2]
            _assert_real_f_values(monkeypatch, [part(k) for k in widths], rng)

    def test_settled_contraction_at_every_stride(self, monkeypatch):
        # The pass of the adjoint ends in H and X on qubit 0, which nothing
        # mixes before: from a start with qubit 0 flipped, a contraction
        # read at bit 1 negates the live view in place.  Gates on qubits
        # 1..w-1-j alone leave the lowest j settled, so the view's last
        # axis has a stride of 8 * 2**j bytes.
        rng = np.random.default_rng(985)
        kinds = sorted(_REAL_GATES)
        for w in range(3, 9):
            for j in range(w - 1):
                body = random_circuit(w - 1 - j, int(rng.integers(1, 4 * w)), rng, kinds)
                c = Circuit(w, (x(0), h(0)) + shift_qubits(body, 1, w).gates)
                _assert_real_f_values(monkeypatch, [c], rng)


class TestNormOrder:
    """f_value sums its squares by one adjacent-pair tree, whatever the dtype and block size."""

    def test_float_and_complex_passes_agree_to_the_bit(self, monkeypatch):
        # Deep real circuits, whose squared norms do not sum exactly.
        rng = np.random.default_rng(27)
        cases = []
        for _ in range(40):
            w = int(rng.integers(6, 13))
            c = random_circuit(w, int(rng.integers(200, 1201)), rng, sorted(_REAL_GATES))
            z = int(rng.integers(1 << w))
            cases.append((c, z, f_value(c, z).hex()))
        monkeypatch.setattr(sim, "_REAL_KINDS", frozenset())
        assert [f_value(c, z).hex() for c, z, _ in cases] == [f for _, _, f in cases]

    def test_bits_do_not_depend_on_temp_entries(self, monkeypatch):
        rng = np.random.default_rng(28)
        cases = []
        for _ in range(20):
            w = int(rng.integers(10, 16))
            cases.append((random_circuit(w, 150, rng), int(rng.integers(1 << w))))
        want = [f_value(c, z).hex() for c, z in cases]
        monkeypatch.setattr(sim, "_TEMP_ENTRIES", 16)
        assert [f_value(c, z).hex() for c, z in cases] == want

    def test_one_sum_for_both_gate_paths(self):
        # The plan's chunk reduction and f_value's norm are _square_sums:
        # on one block it gives each row's pair tree, and f_value the tree
        # over the whole read view.
        rng = np.random.default_rng(29)
        amps = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        flat = amps.view(np.float64).reshape(-1).copy()
        rows = sim._square_sums(flat.copy(), np.empty_like(flat), 8)
        for r in range(8):
            s = flat[8 * r : 8 * r + 8] ** 2
            while len(s) > 1:
                s = s[0::2] + s[1::2]
            assert rows[r] == s[0]
        assert sim._sq_norm(amps) == sim._tree_sum(rows)


class TestExactDyadic:
    """Unnormalised butterflies undone by one power of two are exact on dyadic amplitudes."""

    def test_f_value_on_worst_case_embeddings(self):
        # f(0, U) = |<0|C|0>|**2 = (gap / 2**n)**2 for the IQP circuit C.
        rng = np.random.default_rng(41)
        for n in range(1, 16):
            for _ in range(2):
                poly = random_poly(n, int(rng.integers(1, 3 * n + 1)), rng)
                u = build_worst_case_embedding(compile_iqp_from_poly(poly))
                assert f_value(u, 0) == (gap(poly) / 2**n) ** 2, poly

    def test_amplitude_zero_of_iqp_circuits(self):
        rng = np.random.default_rng(42)
        for n in range(1, 13):
            for _ in range(3):
                poly = random_poly(n, int(rng.integers(1, 3 * n + 1)), rng)
                assert amplitude_zero(compile_iqp_from_poly(poly)) == gap(poly) / 2**n, poly

    @pytest.mark.parametrize("w, layers", [(9, 116), (7, 150), (7, 300)])
    def test_rescale_inside_h_layers(self, w, layers):
        # Layers of H on w qubits: the identity.  The first layer activates
        # every qubit, and every later H is one butterfly on a live qubit.
        # The rescale comes before the gate after every multiple of
        # _RESCALE_EVERY butterflies: on 9 qubits H number 512 and 1024 fall
        # inside a layer, and on 7 qubits 150 layers (1050 H) would overflow
        # the squared norm, 300 (2100 H) the amplitudes, without it.
        assert layers * w > 2 * sim._RESCALE_EVERY
        c = Circuit(w, tuple(h(q) for _ in range(layers) for q in range(w)))
        assert sim._single_pass(w, c.gates, 0)[4] <= sim._RESCALE_EVERY
        assert amplitude_zero(c) == 1.0
        for z in (0, 5, (1 << w) - 1):
            assert f_value(c, z) == float(z < 1 << (w - 1))
            out = apply_circuit(StateVector.basis(w, z), c).amplitudes
            assert np.array_equal(out, StateVector.basis(w, z).amplitudes)


def _assert_read_out_matches(c: Circuit) -> None:
    """Both read-outs of the pass that runs c, against its dense unitary.

    f_value(adjoint(c), z) runs c from |z> and reads qubit 0 at 0, for every
    z; amplitude_zero of c followed by the X gates of a row reads <row|c|0>,
    for every row, so the folded X gates leave read bits of 0 and 1.
    """
    u = circuit_unitary(c)
    w = c.width
    want_f = np.sum(np.abs(u[: 1 << (w - 1)]) ** 2, axis=0)
    for col in range(1 << w):
        assert abs(f_value(adjoint(c), col) - want_f[col]) <= 1e-12, col
    for row in range(1 << w):
        flips = tuple(x(q) for q in range(w) if row >> (w - 1 - q) & 1)
        assert abs(amplitude_zero(Circuit(w, c.gates + flips)) - u[row, 0]) <= 1e-12, row


def _settled_zero_body(w: int, rng: np.random.Generator) -> tuple:
    """Random gates of every kind that leave qubit 0 settled, with its bit flipped half the time."""
    gates = shift_qubits(random_circuit(w - 1, int(rng.integers(5, 40)), rng, GATE_KINDS), 1, w).gates
    return gates + ((x(0),) if rng.integers(2) else ()) + (t(0),)


# Tails on qubit 0 of a pass that reads it at 0.  Over every start z, qubit 0
# is settled at either bit, so each rule of _fold_tail is met: a gate that
# must fire, one that must not with one free control, two free controls that
# must not fire, a read control at the wrong value beside a free one, gates
# whose controls are all read, and trailing H gates on qubit 0 and on read
# qubits that are settled (1), flipped (2) or live (3 and up).
_READ_TAILS = {
    "one_free": (cx(1, 0),),
    "two_free": (mcx(0, (1, 2), (1, 0)),),
    "wrong_read_control": (mcx(1, (2, 3), (0, 1)), mcx(0, (1, 2), (1, 1))),
    "all_read": (x(1), cx(2, 1), x(0), mcx(0, (1, 2), (1, 1))),
    "h_layer": (h(1), h(2), h(3), h(4), mcx(0, (1, 2, 3, 4), (1, 0, 1, 0))),
    "h_on_read_zero": (cx(1, 0), h(3), h(0)),
}


class TestReadOut:
    """f_value and amplitude_zero compute only what their read-outs keep."""

    @pytest.mark.parametrize("name", sorted(_READ_TAILS))
    def test_tails_on_qubit_zero(self, name):
        rng = np.random.default_rng(900)
        for w in (5, 6, 8):
            body = _settled_zero_body(w, rng)
            if name == "h_layer":  # qubit 1 stays settled, qubit 2 flipped
                body = tuple(g for g in body if not {1, 2} & set(g.qubits)) + (x(2),)
            _assert_read_out_matches(Circuit(w, body + _READ_TAILS[name]))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_tails(self, seed):
        # H, X, CX and MCX tails after gates of every kind, some live, some not.
        rng = np.random.default_rng(950 + seed)
        for w in range(2, 9):
            body = random_circuit(w, int(rng.integers(0, 30)), rng, GATE_KINDS).gates
            tail = random_circuit(w, 8, rng, ("H", "X", "CX", "MCX")).gates
            _assert_read_out_matches(Circuit(w, body + tail))

    def test_embeddings_and_postselection_pairs(self):
        rng = np.random.default_rng(960)
        for n in range(2, 8):
            u = build_worst_case_embedding(compile_iqp_from_poly(random_poly(n, 2 * n, rng)))
            _assert_read_out_matches(adjoint(u))
            for u in build_postselection_pair(random_circuit(n, 30, rng, GATE_KINDS)):
                _assert_read_out_matches(adjoint(u))

    def test_contractions_cross_a_rescale(self):
        # 510 leading H, then a layer of 4 contractions: butterfly 512 is
        # the second of them, so the rescale comes before the third.
        lead = tuple(h(q % 3 + 1) for q in range(510))
        body = random_circuit(4, 12, np.random.default_rng(970), ("T", "S", "CZ", "CCZ", "X")).gates
        c = Circuit(4, lead + body + tuple(h(q) for q in range(4)) + (cx(1, 0), x(2)))
        assert sim._single_pass(4, c.gates, 0, dict.fromkeys(range(4), 0))[4] == 514 - sim._RESCALE_EVERY
        _assert_read_out_matches(c)

    def test_fold_rules(self):
        # (start, gates, read) -> (head length, contractions, read-out).
        tail = _READ_TAILS["all_read"]  # settled qubit 0 at bit z0 ^ 1
        assert sim._fold_tail(3, tail, 0b000, {0: 0}) == ((), [], {0: 0, 1: 1, 2: 1})
        assert sim._fold_tail(3, tail, 0b100, {0: 0}) == (tail, [], {0: 0})
        tail = _READ_TAILS["one_free"]
        assert sim._fold_tail(2, tail, 0b10, {0: 0}) == ((), [], {0: 1, 1: 1})
        assert sim._fold_tail(2, tail, 0b00, {0: 0}) == ((), [], {0: 0, 1: 0})
        tail = _READ_TAILS["wrong_read_control"]
        assert sim._fold_tail(4, tail, 0b1000, {0: 0}) == (tail[:1], [], {0: 1, 1: 1, 2: 1})
        # The H run stops at a second H on qubit 2.
        tail = (h(2),) + _READ_TAILS["h_layer"]
        assert sim._fold_tail(5, tail, 0b10000, {0: 0}) == (
            tail[:1], [(1, 1), (2, 0), (3, 1), (4, 0)], {0: 1}
        )
        # A target that an earlier gate may have mixed ends the scan.
        tail = (h(0), cx(1, 0))
        assert sim._fold_tail(2, tail, 0, {0: 0}) == (tail, [], {0: 0})

    def test_embedding_never_sweeps_the_last_layer(self, monkeypatch):
        # n = 14: qubit 0 is never mixed, the first H layer waits for the
        # run to write over it, and the last layer keeps one half per H:
        # under 2**(n+1) entries in all.
        n = 14
        poly = random_poly(n, 3 * n, np.random.default_rng(14))
        u = build_worst_case_embedding(compile_iqp_from_poly(poly))
        touched = []
        for name in ("_butterfly", "_contract"):
            real = getattr(sim, name)

            def spy(lo, hi, *rest, real=real):
                touched.append(lo.size + hi.size)
                return real(lo, hi, *rest)

            monkeypatch.setattr(sim, name, spy)

        assert f_value(u, 0) == (gap(poly) / 2**n) ** 2
        assert len(touched) == n
        assert sum(touched) < 1 << (n + 1)


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

    def test_complement_rows_are_never_negative(self):
        # Unclamped, 8 complement rows of this U2 round to -3.47e-18.
        _, u2 = build_postselection_pair(random_circuit(6, 40, np.random.default_rng(41), GATE_KINDS))
        d = dqc1_distribution(u2)
        assert d.probs.min() >= 0.0
        assert np.abs(d.probs - density_matrix_dqc1(u2).probs).max() <= 1e-12

    def test_postselection_pairs_have_no_negative_entry(self):
        for s in range(200):
            v = random_circuit(3 + s % 6, 60, np.random.default_rng(10_000 + s), GATE_KINDS)
            _, u2 = build_postselection_pair(v)
            assert dqc1_distribution(u2).probs.min() >= 0.0, s

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

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "2", None, True])
    def test_threads_must_be_a_positive_integer(self, monkeypatch, threads):
        monkeypatch.setattr(sim, "_compile", _forbidden)  # checked before any work
        message = f"threads must be a positive integer, got {threads!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dqc1_distribution(Circuit(3), threads=threads)

    @pytest.mark.parametrize("max_n", [-3, 2.5, "2", None, True])
    def test_max_n_must_be_a_nonnegative_integer(self, monkeypatch, max_n):
        monkeypatch.setattr(sim, "_compile", _forbidden)
        message = f"max_n must be a nonnegative integer, got {max_n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dqc1_distribution(Circuit(3), max_n=max_n)

    def test_numpy_integer_threads_and_max_n(self):
        u = random_circuit(4, 20, np.random.default_rng(6))
        d = dqc1_distribution(u, max_n=np.int64(3), threads=np.int64(2))
        assert np.array_equal(d.probs, dqc1_distribution(u).probs)

    def test_degenerate_no_mixed_qubits(self):
        # Width 1 is just the clean qubit: n=0, two outcomes.
        d = dqc1_distribution(Circuit(1, (h(0),)))
        assert np.allclose(d.probs, [0.5, 0.5])


def _forbidden(*args):
    raise AssertionError("must not be called")


def _nan_rz(q: int) -> Gate:
    """RZ(nan) on q, past the constructor's check: stands in for a defect that makes NaN."""
    g = rz(0.0, q)
    object.__setattr__(g, "theta", float("nan"))
    return g


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
        # H runs over every qubit, forward and back.
        layer = tuple(h(q) for q in range(width))
        mid = random_circuit(width, 10, rng, no_h).gates
        cases.append(Circuit(width, layer + layer[::-1] + mid + layer + mid + layer))
    # Past the 512-butterfly rescale twice: unnormalised norms would overflow.
    cases.append(_many_h(1101))
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

        monkeypatch.setattr(sim, "_single_pass", forbidden)
        u = random_circuit(5, 40, np.random.default_rng(4), GATE_KINDS)
        assert dqc1_distribution(u).n == 4

    def test_non_finite_angle_fails_self_check(self):
        u = Circuit(2, (h(0), _nan_rz(1), h(1)))
        with pytest.raises(RuntimeError, match="sums to nan"):
            dqc1_distribution(u)

    def test_outcome_above_the_ceiling_fails_self_check(self, monkeypatch):
        # A chunk that adds row 0's sum to row 1 keeps the total at 1 and
        # puts 1/2 on one outcome of n = 2, above the ceiling 1/4.
        real = sim._run_plan

        def moved(plan, chunk, bufs):
            out = real(plan, chunk, bufs)
            out[1] += out[0]
            out[0] = 0.0
            return out

        monkeypatch.setattr(sim, "_run_plan", moved)
        with pytest.raises(RuntimeError, match=r"^outcome probability 0\.5 exceeds 2\*\*-2$"):
            dqc1_distribution(Circuit(3, (h(1), cx(1, 0))))


class TestPlanLayout:
    def test_embedding_plan_is_its_butterflies_and_one_gather(self):
        # Every qubit stays on its own stored bit, so no gather only moves
        # qubits: 16 butterflies and the one gather of the phase layer.
        poly = random_poly(8, 24, np.random.default_rng(5))
        plan = sim._compile(build_worst_case_embedding(compile_iqp_from_poly(poly)))
        kinds = [step[0] for step in plan.steps]
        assert (kinds.count("h"), kinds.count("gather"), len(kinds)) == (16, 1, 17)

    def test_large_chunk_butterflies_on_every_bit(self, monkeypatch):
        # Pure H layers at a 2**20 chunk: butterflies on the low stored bits
        # of wide chunks, with no gather in between.
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << 20)
        layer = tuple(h(q) for q in range(9))
        u = Circuit(9, layer + layer)
        plan = sim._compile(u)
        assert plan.steps == tuple(("h", 8 - q) for q in range(9)) * 2
        assert np.abs(dqc1_distribution(u).probs - _columns_reference(u)).max() < 1e-13

    def test_compile_memory_stays_linear_in_rows(self):
        # 1-D arrays over the 2**width rows only, no qubits-by-rows bit table,
        # which alone would take width * 8 bytes per row.
        poly = random_poly(18, 54, np.random.default_rng(1))
        u = build_worst_case_embedding(compile_iqp_from_poly(poly))
        tracemalloc.start()
        try:
            sim._compile(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18 * 8 << u.width


class TestUfuncBuffer:
    @pytest.fixture
    def bufsize(self):
        old = np.setbufsize(4096)
        yield 4096
        np.setbufsize(old)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_distribution_restores_the_buffer(self, monkeypatch, bufsize, threads):
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << 12)  # several chunks
        u = random_circuit(9, 60, np.random.default_rng(3), GATE_KINDS)
        assert len(sim._compile(u).chunks) > 2
        want = dqc1_distribution(u, threads=threads).probs
        assert np.getbufsize() == bufsize
        for size in (16, 8192):  # nor do the bytes depend on the caller's buffer
            np.setbufsize(size)
            assert np.array_equal(dqc1_distribution(u, threads=threads).probs, want)
            assert np.getbufsize() == size

    def test_plan_runs_under_the_small_buffer(self, bufsize, monkeypatch):
        seen = set()
        butterfly = sim._butterfly

        def recording(lo, hi, flipped):
            seen.add(np.getbufsize())
            butterfly(lo, hi, flipped)

        monkeypatch.setattr(sim, "_butterfly", recording)
        dqc1_distribution(random_circuit(9, 60, np.random.default_rng(3), GATE_KINDS))
        assert seen == {sim._PLAN_BUFFER}

    def test_f_value_restores_the_buffer(self, bufsize, monkeypatch):
        calls = []
        butterfly = sim._butterfly

        def counting(lo, hi, flipped):
            calls.append(np.getbufsize())
            butterfly(lo, hi, flipped)

        monkeypatch.setattr(sim, "_butterfly", counting)
        layer = tuple(h(q) for q in range(10))
        u = Circuit(10, layer + tuple(cz(q, q + 1) for q in range(9)) + layer)
        f_value(u, 0)
        assert calls and set(calls) == {bufsize}  # the pass runs under the caller's buffer
        assert np.getbufsize() == bufsize

    def test_restored_after_an_error(self, bufsize):
        with pytest.raises(RuntimeError):
            with sim._ufunc_buffer(512):
                assert np.getbufsize() == 512
                raise RuntimeError
        assert np.getbufsize() == bufsize


_QUARTER_KINDS = ("Z", "S", "SDG", "CZ", "CCZ")
_OTHER_KINDS = ("X", "CX", "MCX", "T", "TDG", "RZ")


def _monomial_reference(gates, rows, pos):
    """(src, phase) of a run of non-H gates, one multiply per phase gate."""
    bits = {q: (rows >> pos[q]) & 1 for q in range(len(pos))}
    src = rows.copy()
    phase = np.ones(len(rows), dtype=np.complex128)
    t_factor = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    factors = {"Z": -1.0, "S": 1j, "SDG": -1j, "T": t_factor, "TDG": t_factor.conjugate()}
    factors.update(CZ=-1.0, CCZ=-1.0)
    for g in gates:
        if g.kind in ("X", "CX", "MCX"):
            fire = np.ones(len(rows), dtype=bool)
            pols = g.polarities if g.kind == "MCX" else (1,)
            for c, pol in zip(g.controls, pols):
                fire &= bits[c] == pol
            sigma = rows ^ (fire.astype(rows.dtype) << pos[g.targets[0]])
            src, phase = src[sigma], phase[sigma]
            continue
        hit = np.ones(len(rows), dtype=bool)
        for q in g.targets:
            hit &= bits[q] == 1
        if g.kind == "RZ":
            half = 0.5 * g.theta
            phase[~hit] *= complex(math.cos(half), -math.sin(half))
            phase[hit] *= complex(math.cos(half), math.sin(half))
        else:
            phase[hit] *= factors[g.kind]
    return src, phase


def _mixed_run(width: int, rng: np.random.Generator) -> tuple:
    """Runs of power-of-i gates between T, TDG, RZ gates and permutations."""
    gates = ()
    for _ in range(int(rng.integers(1, 6))):
        for kinds in (_QUARTER_KINDS, _OTHER_KINDS):
            gates += random_circuit(width, int(rng.integers(0, 6)), rng, kinds).gates
    return gates


class TestMonomial:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_gate_products(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            width = int(rng.integers(3, 8))
            rows = np.arange(1 << width)
            pos = [width - 1 - q for q in range(width)]
            if rng.random() < 0.5:
                gates = _mixed_run(width, rng)
            else:
                no_h = tuple(k for k in GATE_KINDS if k != "H")
                gates = random_circuit(width, int(rng.integers(0, 40)), rng, no_h).gates
            src, phase = sim._monomial(gates, rows, pos)
            want_src, want_phase = _monomial_reference(gates, rows, pos)
            assert np.array_equal(src, want_src), gates
            if phase is None:
                assert np.all(want_phase == 1.0), gates
            else:
                assert phase.tobytes() == want_phase.tobytes(), gates  # zero signs too

    def test_power_of_i_runs_cancel_to_no_phase(self):
        rows = np.arange(8)
        gates = (s(0), cz(0, 1), sdg(0), ccz(0, 1, 2), sdg(2), z(1), cz(0, 1), s(2), ccz(0, 1, 2), z(1))
        src, phase = sim._monomial(gates, rows, [2, 1, 0])
        assert np.array_equal(src, rows) and phase is None


def _full_plan(u: Circuit) -> np.ndarray:
    """The plan over all 2**n columns (every qubit in A, B empty), run directly through _run_plan."""
    n = u.width - 1
    everything = tuple(range(u.width))
    lead = next((i for i, g in enumerate(u.gates) if g.kind == "H"), len(u.gates))
    fields, out_index = sim._layout(u.width, u.gates[:lead], everything, (), 0)
    steps, final_rows, n_h = sim._program(u.gates[lead:], everything)
    cols = max(1, min(sim._CHUNK_ENTRIES >> u.width, 1 << n))
    plan = sim._Plan(
        steps=steps,
        rows=len(final_rows),
        pending_h=n_h % sim._RESCALE_EVERY,
        cols=cols,
        chunks=sim._chunk_list(fields["slot_sizes"], cols),
        out_row=final_rows[out_index],
        **fields,
    )
    assert plan.slot_sizes == (1 << n,) and not plan.out_comp.any()
    bufs = [np.empty(plan.rows * plan.cols, dtype=np.complex128) for _ in range(2)]
    parts = [sim._run_plan(plan, chunk, bufs) for chunk in plan.chunks]
    return sim._tree_sum(parts)[plan.out_row] * math.ldexp(1.0, -(plan.pending_h + n))


def _untouched_case(width: int, rng: np.random.Generator) -> Circuit:
    """A monomial prefix, then gates that never mix a random set B of qubits.

    B still carries X gates, phase gates and controls after the first H,
    except on a random part of it that only X gates touch.
    """
    no_h = tuple(k for k in GATE_KINDS if k != "H")
    keep = {int(q) for q in rng.choice(width, size=int(rng.integers(1, width + 1)), replace=False)}
    free = {q for q in keep if rng.random() < 0.5}
    mixed = [q for q in range(width) if q not in keep]
    body = [
        g
        for g in random_circuit(width, int(rng.integers(10, 60)), rng, GATE_KINDS).gates
        if not (g.kind in ("H", "CX", "MCX") and g.targets[0] in keep)
        and (g.kind == "X" or not free.intersection(g.qubits))
    ]
    first = (h(int(rng.choice(mixed))),) if mixed else ()
    return Circuit(width, random_circuit(width, 12, rng, no_h).gates + first + tuple(body))


def _reduced_cases():
    """Circuits whose untouched qubits leave fewer than 2**n columns to run."""
    rng = np.random.default_rng(606)
    cases = [_untouched_case(w, rng) for w in range(1, 9) for _ in range(5)]
    for w in range(2, 8):
        v = random_circuit(w, 30, rng, GATE_KINDS)
        cases.append(build_worst_case_embedding(v))
        cases.extend(build_postselection_pair(v))
    # Leading permutations spread the inputs unevenly over qubits 0 and 1,
    # which nothing after them touches: sides of several widths.
    for w in range(4, 8):
        for _ in range(4):
            lead = random_circuit(w, 8, rng, ("X", "CX", "MCX", "T")).gates
            body = Circuit(w - 2, (h(0),) + random_circuit(w - 2, 20, rng, GATE_KINDS).gates)
            cases.append(Circuit(w, lead + shift_qubits(body, 2, w).gates))
    # Two MCX gates onto the clean qubit, which nothing after them touches:
    # the inputs of a direct side form two subcubes, so its tree is sparse.
    for w in range(4, 8):
        for _ in range(3):
            pair = [tuple(int(q) for q in rng.choice(np.arange(1, w), 2, replace=False)) for _ in "ab"]
            body = Circuit(w - 1, tuple(h(q) for q in range(w - 1)) + random_circuit(w - 1, 40, rng).gates)
            lead = (mcx(0, pair[0]), mcx(0, pair[1], (0, 0)))
            cases.append(Circuit(w, lead + shift_qubits(body, 1, w).gates))
    # The clean qubit is never touched: one side of each b has no columns.
    layer = tuple(h(q) for q in range(1, 5))
    cases.append(Circuit(5, layer + shift_qubits(random_circuit(4, 20, rng), 1, 5).gates))
    cases.append(shift_qubits(random_circuit(4, 30, rng, GATE_KINDS), 1, 5))
    return cases


def _complement_bound(u: Circuit) -> float:
    """The docstring bound on rows from the complement: (2 gates + n) ulp(1) 2**-n."""
    n = u.width - 1
    return (2 * len(u.gates) + n) * np.spacing(1.0) * 2.0**-n


class TestUntouchedQubits:
    def test_matches_full_plan(self):
        for u in _reduced_cases():
            got = dqc1_distribution(u).probs
            want = _full_plan(u)
            comp = sim._compile(u).out_comp
            assert np.array_equal(got[~comp], want[~comp]), u
            assert np.abs(got - want)[comp].max(initial=0.0) <= _complement_bound(u), u

    def test_iqp_embeddings_are_byte_identical(self):
        # Dyadic amplitudes: the complement rows are exact too.
        rng = np.random.default_rng(14)
        for n in range(2, 9):  # at n = 1 both sides tie and run directly
            poly = random_poly(n, int(rng.integers(1, 3 * n + 1)), rng)
            u = build_worst_case_embedding(compile_iqp_from_poly(poly))
            assert sim._compile(u).out_comp.any()
            assert np.array_equal(dqc1_distribution(u).probs, _full_plan(u)), n

    def test_matches_density_matrix_oracle(self):
        for u in _reduced_cases():
            if u.width <= 6:
                want = density_matrix_dqc1(u).probs
                assert np.abs(dqc1_distribution(u).probs - want).max() < 1e-12, u

    def test_bytes_independent_of_chunks_and_threads(self, monkeypatch):
        cases = _reduced_cases()
        whole = [dqc1_distribution(u).probs for u in cases]
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << 5)
        assert any(len(set(sim._compile(u).slot_sizes)) > 1 for u in cases)
        for log_chunk in (2, 5, 9):
            monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << log_chunk)
            for threads in (1, 2):
                for u, want in zip(cases, whole):
                    got = dqc1_distribution(u, threads=threads).probs
                    assert np.array_equal(got, want), (u, log_chunk, threads)

    def test_embedding_runs_one_column(self, monkeypatch):
        runs = []
        real = sim._run_plan

        def spy(plan, chunk, bufs):
            runs.append((plan.rows, chunk[1]))
            return real(plan, chunk, bufs)

        monkeypatch.setattr(sim, "_run_plan", spy)
        poly = random_poly(12, 40, np.random.default_rng(8))
        d = dqc1_distribution(build_worst_case_embedding(compile_iqp_from_poly(poly)))
        assert d.n == 12
        assert all(rows == 1 << 12 for rows, _ in runs)
        assert sum(cols for _, cols in runs) == 1

    def test_non_finite_leading_phase_fails_self_check(self):
        # The inputs all run from the complement side, which never multiplies by it.
        with pytest.raises(RuntimeError, match="non-finite phase"):
            dqc1_distribution(Circuit(2, (_nan_rz(1), h(1))))

    def test_untouched_clean_qubit_runs_nothing(self, monkeypatch):
        monkeypatch.setattr(sim, "_run_plan", None)  # any run would fail
        u = shift_qubits(random_circuit(4, 30, np.random.default_rng(2), GATE_KINDS), 1, 5)
        want = np.zeros(32)
        want[:16] = 1 / 16
        assert np.array_equal(dqc1_distribution(u).probs, want)


class TestThreadChunks:
    """More threads halve a plan's chunks down to _MIN_CHUNK_ENTRIES; the bytes stay."""

    def test_htcx_circuit_splits_for_two_threads(self, monkeypatch):
        u = parse_ensemble_spec("random:htcx:9:1:60:3").circuits[0]
        want = dqc1_distribution(u).probs
        chunks = []
        real = sim._run_plan

        def spy(plan, chunk, bufs):
            chunks.append(chunk)
            return real(plan, chunk, bufs)

        monkeypatch.setattr(sim, "_run_plan", spy)
        assert np.array_equal(dqc1_distribution(u, threads=2).probs, want)
        assert len(chunks) >= 2

    @pytest.mark.parametrize("side", ["below", "at", "above"])
    def test_bytes_around_twice_the_floor(self, monkeypatch, side):
        # The floor is set per plan so that the plan's entries lie just
        # below, at or above twice it.  The last circuit leaves three sides
        # with columns, of 8, 8 and 4: a plan of three slots.
        rng = np.random.default_rng(3)
        body = Circuit(4, tuple(h(q) for q in range(4)) + random_circuit(4, 20, rng, GATE_KINDS).gates)
        lead = (mcx(0, (1, 2)), mcx(0, (1, 2, 3), (0, 1, 1)))
        three = Circuit(6, lead + shift_qubits(body, 2, 6).gates)
        runs = set()  # (threads, chunks)
        halved = False
        for u in _reduced_cases() + [three]:
            one = sim._compile(u)
            rows = one.rows
            entries = rows * sum(one.slot_sizes)
            if entries < 4:
                continue
            floor = {"below": entries // 2 + 1, "at": entries // 2, "above": entries // 4}[side]
            monkeypatch.setattr(sim, "_MIN_CHUNK_ENTRIES", floor)
            want = dqc1_distribution(u).probs
            for threads in (2, 3, 4):
                plan = sim._compile(u, threads=threads)
                if side == "below" or one.cols == 1:
                    assert plan.chunks == one.chunks, (u, threads)
                else:
                    # Halved only while a chunk keeps the floor, and until
                    # there is one per thread.
                    assert len(plan.chunks) >= 2, (u, threads)
                    assert plan.cols == one.cols or plan.cols * rows >= floor, (u, threads)
                    assert len(plan.chunks) >= threads or (plan.cols >> 1) * rows < floor
                runs.add((threads, len(plan.chunks)))
                halved |= plan.cols < one.cols
                got = dqc1_distribution(u, threads=threads).probs
                assert np.array_equal(got, want), (u, side, threads)
        assert (3, 3) in runs  # three threads on a count of chunks that is no power of two
        assert halved == (side != "below")

    def test_one_column_plans_stay_one_chunk(self, monkeypatch):
        monkeypatch.setattr(sim, "_MIN_CHUNK_ENTRIES", 1)
        poly = random_poly(10, 30, np.random.default_rng(3))
        u = build_worst_case_embedding(compile_iqp_from_poly(poly))
        assert sim._compile(u, threads=4).chunks == ((0, 1),)


def _cache_cases() -> tuple[list, list]:
    """Circuits of many plan layouts, and each one's distribution bytes from a cold cache.

    Embeddings of two n, postselection pairs and htcx circuits, and three
    circuits with one leading CX and one A whose qubit 0 is in F, in D or
    flipped by a later X.
    """
    rng = np.random.default_rng(77)
    circuits = [*parse_ensemble_spec("random:iqp:4:3:12:5").circuits,
                *parse_ensemble_spec("random:iqp:6:3:18:6").circuits,
                *parse_ensemble_spec("random:htcx:6:3:40:7").circuits]
    for _ in range(2):
        circuits.extend(build_postselection_pair(random_circuit(5, 30, rng, GATE_KINDS)))
    layer = tuple(h(q) for q in range(1, 5))
    body = (cx(1, 0), h(1), t(1)) + layer + shift_qubits(random_circuit(4, 20, rng), 1, 5).gates
    circuits.extend(Circuit(5, body + tail) for tail in ((), (cz(0, 1), h(1)), (x(0),)))
    cold = []
    for u in circuits:
        sim._layout.cache_clear()
        cold.append(dqc1_distribution(u).probs.tobytes())
    return circuits, cold


class TestLayoutCache:
    """Plans share a memoised layout; no key part may be left out and no plan may write it."""

    def test_chunks_follow_the_constants_and_threads(self, monkeypatch):
        # The chunks are not in the cached layout: a warm compile gives a
        # cold one's under every chunk constant the suite patches.
        u = parse_ensemble_spec("random:htcx:9:1:60:3").circuits[0]
        sim._layout.cache_clear()
        one = sim._compile(u)
        entries = one.rows * sum(one.slot_sizes)
        floors = (1, entries // 4, entries // 2, entries // 2 + 1, sim._MIN_CHUNK_ENTRIES)
        chunks = {}
        for config in itertools.product((3, 5, 6, 8, 12, 16, 20), floors, (1, 2, 3)):
            log_chunk, floor, threads = config
            monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << log_chunk)
            monkeypatch.setattr(sim, "_MIN_CHUNK_ENTRIES", floor)
            warm = sim._compile(u, threads=threads)
            assert sim._layout.cache_info().hits == 1
            sim._layout.cache_clear()
            cold = sim._compile(u, threads=threads)
            assert (warm.chunks, warm.cols) == (cold.chunks, cold.cols), config
            chunks[config] = warm.chunks
        assert len({chunks[log_chunk, 1, 1] for log_chunk in (3, 12, 20)}) == 3
        assert len({chunks[20, floor, 3] for floor in floors}) > 1
        assert len({chunks[20, 1, threads] for threads in (1, 2, 3)}) == 3

    def test_cached_arrays_are_read_only(self):
        u = build_worst_case_embedding(compile_iqp_from_poly(random_poly(6, 18, np.random.default_rng(2))))
        sim._layout.cache_clear()
        sim._compile(u)
        plan = sim._compile(u)
        assert sim._layout.cache_info().hits == 1
        with pytest.raises(ValueError, match="read-only"):
            plan.start_rows[0] = 1

    def test_bytes_independent_of_cache_order(self):
        circuits, cold = _cache_cases()
        for order in (range(len(circuits)), [*range(0, len(circuits), 2), *range(1, len(circuits), 2)]):
            for i in order:
                assert dqc1_distribution(circuits[i]).probs.tobytes() == cold[i], i

    def test_threads_share_the_cache(self):
        # More workers than cores, each in its own order, so each call is
        # likely to evict the layout another thread is using, with frequent
        # switches between threads.
        circuits, cold = _cache_cases()
        size = len(circuits)

        def run(k: int) -> list:
            return [dqc1_distribution(circuits[(k + j) % size]).probs.tobytes() for j in range(size)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                jobs = [pool.submit(run, k) for k in range(4)]
                results = [job.result(timeout=120) for job in jobs]
        finally:
            sys.setswitchinterval(old)
        for k, got in enumerate(results):
            assert got == [cold[(k + j) % size] for j in range(size)], k

    def test_chain_compiles_one_layout_per_ensemble(self):
        ens = parse_ensemble_spec("random:iqp:6:20:18:1")
        sim._layout.cache_clear()
        verify_chain(ens, SamplerModel.exact(), ErrorBudget())
        info = sim._layout.cache_info()
        assert (info.misses, info.hits) == (1, 19)


_BLOCK_CASES = (
    "h_on_settled_0",
    "h_on_settled_1",
    "x_moves_block",
    "cx_onto_settled",
    "mcx_onto_settled",
    "sums_and_empty_chunks",
    "embedding",
    "pair_u2",
)


def _block_case(name: str) -> Circuit:
    """A circuit whose plan chunks grow, move or split their blocks of reached rows.

    In the first five, qubit 0 (the clean qubit, on the top stored bit)
    starts settled at 0 in every input, or at 1 after a leading X, until
    the named gates act on it.  ``sums_and_empty_chunks`` spreads the
    inputs over sides of 32 and 8 columns: a full chunk holds four sums,
    and small chunks hold no start entry.  The last two run complement
    sides.
    """
    rng = np.random.default_rng(_BLOCK_CASES.index(name) + 2200)
    tail = random_circuit(6, 40, rng, GATE_KINDS).gates
    heads = {
        "h_on_settled_0": (h(1), t(1), h(0)),
        "h_on_settled_1": (x(0), h(1), h(0)),
        "x_moves_block": (h(1), x(0), t(1), h(0)),
        "cx_onto_settled": (h(1), cx(1, 0), t(0), h(2)),
        "mcx_onto_settled": (h(1), h(2), mcx(0, (1, 2), (1, 0)), s(0), h(3)),
    }
    if name in heads:
        return Circuit(6, heads[name] + tail)
    if name == "sums_and_empty_chunks":
        lead = (mcx(0, (4,)), mcx(1, (4, 3, 6)), mcx(2, (4, 6, 5)))
        body = Circuit(4, tuple(h(q) for q in range(4)) + random_circuit(4, 30, rng, GATE_KINDS).gates)
        return Circuit(7, lead + shift_qubits(body, 3, 7).gates)
    v = Circuit(6, tail)
    return build_worst_case_embedding(v) if name == "embedding" else build_postselection_pair(v)[1]


# sha256 of dqc1_distribution(_block_case(name)).probs, computed with the
# dense runner that swept every row of a chunk at every step.
_BLOCK_DIGESTS = {
    'h_on_settled_0': 'fe04e66a091807246bf1846c3d06e8ae40617757fe4f108ec2f65b3393c35e0c',
    'h_on_settled_1': '25493ecc62734a68fad443881a595d122cb7a93ddf9d07e5ec2060baf84f03fd',
    'x_moves_block': 'e8f0b94a01f08de509857d0ab7922edbf677aa2550815780883cee80c5960752',
    'cx_onto_settled': '22f0506c722a43dd9681b4d40329323e0d556b83093bfc26575abb36276cc044',
    'mcx_onto_settled': '4cdc09605e2288096419b9149648cad52c49a54e8104843436016291a2fe3fc6',
    'sums_and_empty_chunks': 'c91348d38056c049f0ee3d72653bf9e8b0dded480de13f4c605fb2cfe29b839f',
    'embedding': 'd445dbe29001bd650901dc2d3321bdf7adcd8026a5150b0aaa56e67b77d2e047',
    'pair_u2': 'c2251f4ea6024a3b3c394c866fe5dc5a76489faaf7b2521fec3e0992356171a6',
}


class TestPlanBlocks:
    """Each chunk runs on the rows its start entries reach; the bytes stay."""

    @pytest.mark.parametrize("name", _BLOCK_CASES)
    def test_pinned_bytes(self, monkeypatch, name):
        u = _block_case(name)
        want = _columns_reference(u)
        for log_chunk in (20, 6, 3):
            monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << log_chunk)
            for threads in (1, 2, 3):
                probs = dqc1_distribution(u, threads=threads).probs
                digest = hashlib.sha256(probs.tobytes()).hexdigest()
                assert digest == _BLOCK_DIGESTS[name], (log_chunk, threads)
        assert np.abs(probs - want).max() < 1e-13

    def test_cases_reach_their_edges(self, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << 20)
        for name, bit in (("h_on_settled_0", 0), ("h_on_settled_1", 1), ("x_moves_block", 0),
                          ("cx_onto_settled", 0), ("mcx_onto_settled", 0)):
            plan = sim._compile(_block_case(name))
            top = plan.rows >> 1
            assert np.all(plan.start_rows & top == bit * top), name
        for name in ("embedding", "pair_u2"):
            assert sim._compile(_block_case(name)).out_comp.any(), name
        u = _block_case("sums_and_empty_chunks")
        plan = sim._compile(u)
        # Slots narrower than a full chunk run one chunk each.
        sizes = np.array(plan.slot_sizes)
        assert sizes.min() < plan.cols
        assert plan.chunks == tuple(zip((np.cumsum(sizes) - sizes).tolist(), plan.slot_sizes))
        monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << 6)
        plan = sim._compile(u)
        starts = set(plan.start_cols.tolist())
        assert any(starts.isdisjoint(range(c0, c0 + cols)) for c0, cols in plan.chunks)

    def test_unreached_rows_stay_out_of_the_steps(self, monkeypatch):
        # A one-column chunk of an n = 8 embedding starts from one row: the
        # leading H layer doubles it to all 256 rows, and only the butterflies
        # after the phase layer run on every row.
        poly = random_poly(8, 24, np.random.default_rng(5))
        u = build_worst_case_embedding(compile_iqp_from_poly(poly))
        sizes = []
        butterfly = sim._butterfly

        def spy(lo, hi, flipped):
            sizes.append(lo.size + hi.size)
            butterfly(lo, hi, flipped)

        monkeypatch.setattr(sim, "_butterfly", spy)
        probs = dqc1_distribution(u).probs
        assert sizes == [2 * 256] * 8
        assert np.array_equal(probs, _full_plan(u))


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

    @pytest.mark.parametrize("n", [True, float("nan"), 1.0, -1])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be a nonnegative integer, got "):
            Distribution(n, np.array([0.25, 0.25, 0.25, 0.25]))


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

    @pytest.mark.parametrize(
        ("count", "seed", "message"),
        [(True, 0, "count must be a nonnegative integer, got True"),
         (2.0, 0, "count must be a nonnegative integer, got 2.0"),
         (1, -1, "seed must be a nonnegative integer, got -1"),
         (1, True, "seed must be a nonnegative integer, got True"),
         (1, 1.5, "seed must be a nonnegative integer, got 1.5")],
    )
    def test_integer_arguments(self, count, seed, message):
        d = dqc1_distribution(Circuit(2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample(d, count, seed)

    def test_numpy_integer_arguments(self):
        d = dqc1_distribution(Circuit(2, (h(0),)))
        assert sample(d, np.int64(5), np.int64(3)) == sample(d, 5, 3)


# Ways out of the deferral of a leading H layer, as (name, real): a real
# case has only real gates, so f_value runs it in float64.  RZ is never real.
_DEFERRAL_CASES = [
    (name, real)
    for name in (
        "run_of_one", "run_of_many", "rz_on_deferred", "h_on_deferred", "cx_deferred_control",
        "x_on_deferred", "h_after_run", "flipped_settled_h", "pure_h_layer", "run_at_the_end",
    )
    for real in (True, False)
    if not (real and name == "rz_on_deferred")
]


def _deferral_case(name: str, real: bool, w: int, rng: np.random.Generator) -> Circuit:
    """H on all but two qubits, then the gates that end the deferral by ``name``, then a tail.

    The diagonal gates fall mostly on the H targets; one on a settled qubit
    is a phase or nothing.  The tail is 3w random gates, except after a
    pure H layer and a run at the end.
    """
    diag_kinds = ("Z", "CZ", "CCZ") if real else _DIAGONAL_KINDS
    qs = [int(q) for q in rng.permutation(w)]
    lead, rest = qs[:-2], qs[-2:]

    def diag(count: int) -> tuple:
        gates = []
        for kind in rng.choice(diag_kinds, size=count):
            pool = lead if rng.random() < 0.8 else qs
            qubits = rng.choice(pool, _ARITY.get(str(kind), 1), replace=False)
            gates.append(Gate(str(kind), tuple(int(q) for q in qubits)))
        return tuple(gates)

    if name == "pure_h_layer":  # H on qubit 0 last: f_value's read-out contracts it
        return Circuit(w, tuple(h(q) for q in qs if q) + (h(0),))
    if name == "run_at_the_end":  # the pass's buffer holds the table entries the run wrote
        return Circuit(w, tuple(h(q) for q in lead) + diag(12))
    body = {
        "run_of_one": lambda: diag(1) + (h(lead[0]),),
        "run_of_many": lambda: diag(12) + (h(lead[0]),),
        "rz_on_deferred": lambda: diag(3) + (rz(0.7, lead[1]),) + diag(3),
        "h_on_deferred": lambda: (h(lead[0]),) + diag(4),
        "cx_deferred_control": lambda: (
            cx(lead[0], rest[0]), mcx(rest[1], (lead[1], lead[2]), (0, 1))
        ) + diag(4),
        "x_on_deferred": lambda: (x(lead[0]), x(lead[1])) + diag(8),
        "h_after_run": lambda: diag(6) + (h(rest[0]),),
        "flipped_settled_h": lambda: (x(rest[0]), h(rest[0])) + diag(6),
    }[name]()
    tail = random_circuit(w, 3 * w, rng, tuple(sorted(_REAL_GATES)) if real else GATE_KINDS).gates
    return Circuit(w, tuple(h(q) for q in lead) + body + tail)


def _deferral_starts(w: int, rng: np.random.Generator) -> tuple:
    """Basis starts: zero, one flipped qubit, all flipped, and a drawn one."""
    return (0, 1, (1 << w) - 1, int(rng.integers(1 << w)))


def _deferral_outputs(c: Circuit, starts: tuple) -> list:
    """What the single pass gives for ``c`` from each start, as bytes and hex strings.

    f_value of the adjoint runs c's gates; amplitude_zero of c after the
    start's X gates; apply_circuit from the basis state; and the pass's own
    buffer, flips, phase and butterfly count from the basis index, in the
    dtype f_value would use.
    """
    w = c.width
    dtype = np.float64 if {g.kind for g in c.gates} <= _REAL_GATES else np.complex128
    out = []
    for z in starts:
        flips = tuple(x(q) for q in range(w) if z >> (w - 1 - q) & 1)
        a = amplitude_zero(Circuit(w, flips + c.gates))
        full, flip, _, phase, pending = sim._single_pass(w, c.gates, z, dtype=dtype)
        out += [
            f_value(adjoint(c), z).hex(),
            a.real.hex() + a.imag.hex(),
            apply_circuit(StateVector.basis(w, z), c).amplitudes.tobytes(),
            full.tobytes(),
            repr((flip, phase.real.hex(), phase.imag.hex(), pending)).encode(),
        ]
    return out


def _deferral_digest(monkeypatch, name: str, real: bool) -> str:
    """sha256 of ``_deferral_outputs`` on the seeded case at widths 5, 8 and 11.

    Each width runs at 16 temporary entries, so every kernel splits into
    blocks, and at _TEMP_ENTRIES; the two give the same bytes, norms
    included, since each block's sum of squares is a subtree of one tree.
    """
    digest = hashlib.sha256()
    runs = []
    for temp_entries in (16, sim._TEMP_ENTRIES):
        monkeypatch.setattr(sim, "_TEMP_ENTRIES", temp_entries)
        rng = np.random.default_rng(_DEFERRAL_CASES.index((name, real)) + 1900)
        runs.append([])
        for w in (5, 8, 11):
            c = _deferral_case(name, real, w, rng)
            runs[-1] += _deferral_outputs(c, _deferral_starts(w, rng))
        for item in runs[-1]:
            digest.update(item.encode() if isinstance(item, str) else item)
    assert runs[0] == runs[1]
    return digest.hexdigest()


# sha256 of _deferral_digest, computed before the copies were deferred.  The
# complex cases but pure_h_layer and run_at_the_end were pinned again when
# f_value took the plan's adjacent-pair sum of squares in place of BLAS.
_DEFERRAL_DIGESTS = {
    ('run_of_one', True): '5c7313856027ed49b71aab2b6b2b6a2c3f9d928161c8bb0fde49d3942041610d',
    ('run_of_one', False): 'd5c0a9cfef5b5e451903059d2d275b5dd6b52022627c2134cf295f1985ffa06d',
    ('run_of_many', True): '0d0ba043327410066eba3a08a297c37a54c00f4f034bdbc3e65ac561929649f2',
    ('run_of_many', False): '62f430dc0984f513b5fd84f46eb15e409309b3ff786fd0108dcec8f52105a02a',
    ('rz_on_deferred', False): '9efd915d41aeddb94dd1f62d799f01ea059a7c151cdeae37da19b4e229154237',
    ('h_on_deferred', True): '5b6b0536f0b77182b8eba18a4061723d09187cb029c14a676e55e585362b7c5e',
    ('h_on_deferred', False): '13a4f753ab548014a19f187f47e673adb2eae91bc7e74d632f104f97d57c976f',
    ('cx_deferred_control', True): '4bab0aefdc1050e9a080004fce992bfa1ce33f5d62eed693a3483826f48f62af',
    ('cx_deferred_control', False): 'a42880a9e92e0aff0e11efdec046cb23ade6b29e3319edb7149877a9f809bf64',
    ('x_on_deferred', True): '13841735dd65940a01271a80dc7951cab27f403760a2dd42f4c92e0b39027990',
    ('x_on_deferred', False): 'af4c60d41ab952a8570fd55e8bf1d2c35f929673f6252fd0ddf8dcb60a132320',
    ('h_after_run', True): '410ee02d9cc50929d73d4a9657de474761cdd6014f6807a1a881af159f083b6a',
    ('h_after_run', False): 'eefad70bf5cbb1ea4d420e6d18e3bf1c63baa435866d4061a33e0fc2dec0fc19',
    ('flipped_settled_h', True): 'c94752679ff6bdb52995baf01982799c65f42f37bddab8592a30e7935b898cb1',
    ('flipped_settled_h', False): 'c254346c65ce9567b8b0dad7debccf4641c57b4ea31954434c40edc0164b6a45',
    ('pure_h_layer', True): '006f0561a94ba00766265ff7825c71f09a3de1437da73a47998778b4dc902f25',
    ('pure_h_layer', False): '88cd71810276027b0d61605961bd4a80670da1ae69dd03ff81f5b7d7bec47fd6',
    ('run_at_the_end', True): 'f83de00e705a81c90a111d43fd8a0c0af7d2c187a724e6c9f52c756f20161907',
    ('run_at_the_end', False): 'a971093868904ca6598a7f2dbf26d4a32295be5b09e626e4208b4705008068f7',
}


class TestDeferredActivation:
    """The leading H layer's copies wait for the first step that needs the data."""

    @pytest.mark.parametrize(("name", "real"), _DEFERRAL_CASES)
    def test_pinned_bytes(self, monkeypatch, name, real):
        assert _deferral_digest(monkeypatch, name, real) == _DEFERRAL_DIGESTS[name, real]

    @pytest.mark.parametrize(("name", "real"), _DEFERRAL_CASES)
    def test_against_oracle(self, name, real):
        rng = np.random.default_rng(_DEFERRAL_CASES.index((name, real)) + 1950)
        for w in (5, 7, 8):
            c = _deferral_case(name, real, w, rng)
            u = circuit_unitary(c)
            for z in _deferral_starts(w, rng):
                flips = tuple(x(q) for q in range(w) if z >> (w - 1 - q) & 1)
                assert abs(amplitude_zero(Circuit(w, flips + c.gates)) - u[0, z]) <= 1e-12, (w, z)
                want_f = np.sum(np.abs(u[: 1 << (w - 1), z]) ** 2)
                assert abs(f_value(adjoint(c), z) - want_f) <= 1e-12, (w, z)
                out = apply_circuit(StateVector.basis(w, z), c).amplitudes
                assert np.abs(out - u[:, z]).max() <= 1e-12, (w, z)

    @pytest.mark.parametrize("n", [16, 20])
    def test_iqp_embeddings_are_exact(self, n):
        # The fused write of the first run: f = (gap/2**n)**2 in float64,
        # and the complex amplitude gap/2**n, to the bit.
        poly = random_poly(n, 3 * n, np.random.default_rng(n))
        c = compile_iqp_from_poly(poly)
        assert f_value(build_worst_case_embedding(c), 0) == (gap(poly) / 2**n) ** 2
        assert amplitude_zero(c) == gap(poly) / 2**n

    def test_embedding_copies_no_leading_qubit(self, monkeypatch):
        # From z = 0 every H of the leading layer is deferred and the run
        # writes over the copies; with every variable flipped, each H is
        # on a flipped qubit and copies.
        n = 14
        poly = random_poly(n, 3 * n, np.random.default_rng(14))
        u = build_worst_case_embedding(compile_iqp_from_poly(poly))
        copied = []
        real = sim._activate

        def spy(full, index, qubits, flipped):
            copied.extend(qubits)
            return real(full, index, qubits, flipped)

        monkeypatch.setattr(sim, "_activate", spy)
        assert f_value(u, 0) == (gap(poly) / 2**n) ** 2
        assert amplitude_zero(compile_iqp_from_poly(poly)) == gap(poly) / 2**n
        assert copied == []
        f_value(u, (1 << n) - 1)
        assert sorted(copied) == list(range(1, n + 1))
