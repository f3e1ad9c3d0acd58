"""Public behaviour of the simulator, and the guards that no output byte can show.

The differential corpus (tests/test_corpus.py) checks every entry point's
bytes against the oracles and across tuning constants and threads.  This
module keeps the rest: the index convention, argument checks, exact dyadic
results, and the guards that reach into the simulator because no public
output shows what they check: the work each path skips (one column per
embedding, block reach, no sweep of the last H layer, no leading copies,
one layout per ensemble, chunk splits for threads, the plan's ufunc
buffer), the memory bounds and the layout cache's read-only arrays, the
numpy negation workaround, the fault injections behind the self-checks,
the full-plan bytes of direct sides, and the pinned bytes of the deferred
activation.
"""

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
from corpus import ARITY, CASES, DEFERRAL_CASES, DIAGONAL_KINDS, REAL_KINDS, deferral_case, reduced_cases
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
from dqc1sim.oracles import density_matrix_dqc1, gap
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


def _assert_single_column_memory(c: Circuit) -> None:
    """Peak traced bytes of each entry point stay within its states plus 1 MiB.

    A complex128 state takes 16 bytes an entry; f_value on a circuit of
    real gates runs in float64, 8 bytes an entry.
    """
    state = 16 << c.width
    f_state = (8 << c.width) if {g.kind for g in c.gates} <= set(REAL_KINDS) else state
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


class TestSingleColumnPass:
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
            pytest.param(18, DIAGONAL_KINDS, (), id="all-kinds"),
            pytest.param(18, ("Z", "CZ", "CCZ"), (), id="real-kinds"),
            # At width 20 the live view has leading axes that pick the count
            # block; these gates also hit the lowest stored bits, so the run
            # builds row patterns, and both at once.
            pytest.param(
                20,
                DIAGONAL_KINDS,
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
            Gate(k, tuple(int(q) for q in rng.choice(w, ARITY.get(k, 1), replace=False)))
            for k in rng.choice(kinds, size=60)
        )
        _assert_single_column_memory(Circuit(w, layer + run + layer + (x(w - 1),) + layer))


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
        # The rescale comes before the gate after every multiple of 512
        # butterflies: on 9 qubits H number 512 and 1024 fall inside a
        # layer, and on 7 qubits 150 layers (1050 H) would overflow the
        # squared norm, 300 (2100 H) the amplitudes, without it.
        c = Circuit(w, tuple(h(q) for _ in range(layers) for q in range(w)))
        assert amplitude_zero(c) == 1.0
        for z in (0, 5, (1 << w) - 1):
            assert f_value(c, z) == float(z < 1 << (w - 1))
            out = apply_circuit(StateVector.basis(w, z), c).amplitudes
            assert np.array_equal(out, StateVector.basis(w, z).amplitudes)


class TestReadOut:
    """f_value and amplitude_zero compute only what their read-outs keep."""

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

    def test_width_cap(self):
        with pytest.raises(ValueError, match="mixed qubits"):
            dqc1_distribution(Circuit(6), max_n=4)

    # Checked before any work: a run of this circuit would fail its
    # unitarity self-check with a RuntimeError.
    @pytest.mark.parametrize("threads", [0, -3, 2.5, "2", None, True])
    def test_threads_must_be_a_positive_integer(self, threads):
        message = f"threads must be a positive integer, got {threads!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dqc1_distribution(Circuit(2, (h(0), _nan_rz(1), h(1))), threads=threads)

    @pytest.mark.parametrize("max_n", [-3, 2.5, "2", None, True])
    def test_max_n_must_be_a_nonnegative_integer(self, max_n):
        message = f"max_n must be a nonnegative integer, got {max_n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dqc1_distribution(Circuit(2, (h(0), _nan_rz(1), h(1))), max_n=max_n)

    def test_numpy_integer_threads_and_max_n(self):
        u = random_circuit(4, 20, np.random.default_rng(6))
        d = dqc1_distribution(u, max_n=np.int64(3), threads=np.int64(2))
        assert np.array_equal(d.probs, dqc1_distribution(u).probs)

    def test_degenerate_no_mixed_qubits(self):
        # Width 1 is just the clean qubit: n=0, two outcomes.
        d = dqc1_distribution(Circuit(1, (h(0),)))
        assert np.allclose(d.probs, [0.5, 0.5])


def _nan_rz(q: int) -> Gate:
    """RZ(nan) on q, past the constructor's check: stands in for a defect that makes NaN."""
    g = rz(0.0, q)
    object.__setattr__(g, "theta", float("nan"))
    return g


class TestFusedPlan:
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
        want = dqc1_distribution(u, threads=threads).probs
        assert np.getbufsize() == bufsize
        for size in (16, 8192):  # nor do the bytes depend on the caller's buffer
            np.setbufsize(size)
            assert np.array_equal(dqc1_distribution(u, threads=threads).probs, want)
            assert np.getbufsize() == size

    def test_only_the_plan_sets_the_buffer(self, bufsize, monkeypatch):
        # The plan runs under a small buffer of its own and restores the
        # caller's, after an error too; the single pass runs under the caller's.
        seen = []
        fail = []
        butterfly = sim._butterfly

        def recording(lo, hi, flipped):
            seen.append(np.getbufsize())
            if fail:
                raise RuntimeError
            butterfly(lo, hi, flipped)

        monkeypatch.setattr(sim, "_butterfly", recording)
        dqc1_distribution(random_circuit(9, 60, np.random.default_rng(3), GATE_KINDS))
        assert len(set(seen)) == 1 and seen[0] < bufsize and np.getbufsize() == bufsize
        seen.clear()
        layer = tuple(h(q) for q in range(10))
        f_value(Circuit(10, layer + tuple(cz(q, q + 1) for q in range(9)) + layer), 0)
        assert seen and set(seen) == {bufsize} and np.getbufsize() == bufsize
        fail.append(True)
        with pytest.raises(RuntimeError):
            dqc1_distribution(Circuit(2, (h(0), h(1))))
        assert np.getbufsize() == bufsize


def _full_plan(u: Circuit) -> np.ndarray:
    """The bytes of the full plan over all 2**n columns, through dqc1_distribution.

    Each qubit that no gate after the leading non-H gates targets with H,
    CX or MCX (the untouched qubits) gets two H gates right after them.
    Every column holds such a qubit at one bit, so the pair maps its halves
    (x, 0) to (x, x) to (2x, 0), or (0, x) to (x, -x) to (0, 2x), exactly:
    with every qubit mixed, the plan runs every column, and each row sum is
    scaled by 4 per pair, which the final power of two undoes.
    """
    lead = next((i for i, g in enumerate(u.gates) if g.kind == "H"), len(u.gates))
    body = u.gates[lead:]
    mixed = {g.targets[0] for g in body if g.kind in ("H", "CX", "MCX")}
    pairs = tuple(h(q) for q in range(u.width) if q not in mixed for _ in "hh")
    return dqc1_distribution(Circuit(u.width, u.gates[:lead] + pairs + body)).probs


def _complement_bound(u: Circuit) -> float:
    """The docstring bound on rows from the complement: (2 gates + n) ulp(1) 2**-n."""
    n = u.width - 1
    return (2 * len(u.gates) + n) * np.spacing(1.0) * 2.0**-n


class TestUntouchedQubits:
    def test_matches_full_plan(self):
        for u in reduced_cases():
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_leading_phase_gates_move_no_byte(self, threads):
        # Input |0 x> is its own pure branch, so a phase that the leading
        # gates put on it is a global phase that no probability sees.
        kinds = ("X", "CX", "MCX", "Z", "S", "SDG", "T", "TDG", "CZ", "CCZ", "RZ")
        rng = np.random.default_rng(37)
        for _ in range(60):
            width = int(rng.integers(3, 9))
            body = (h(int(rng.integers(width))),) + random_circuit(width, 40, rng, GATE_KINDS).gates
            lead = random_circuit(width, 12, rng, kinds).gates
            moves = tuple(g for g in lead if g.kind in ("X", "CX", "MCX"))
            got = dqc1_distribution(Circuit(width, lead + body), threads=threads).probs
            want = dqc1_distribution(Circuit(width, moves + body), threads=threads).probs
            assert got.tobytes() == want.tobytes(), (width, lead)

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
        for u in reduced_cases() + [three]:
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


class TestLayoutCache:
    """Plans share a memoised layout; no key part may be left out and no plan may write it."""

    def test_chunks_follow_the_constants_and_threads(self, monkeypatch):
        # The chunks are not in the cached layout: a compile that finds the
        # layout of the previous chunk constants gives a cold compile's
        # chunks.  The plan holds 2**19 entries.
        u = parse_ensemble_spec("random:htcx:9:1:60:3").circuits[0]
        floors = (1, 1 << 15, 1 << 17, 1 << 18, (1 << 18) + 1)
        chunks = {}
        for config in itertools.product((3, 5, 6, 8, 12, 16, 20), floors, (1, 2, 3)):
            log_chunk, floor, threads = config
            monkeypatch.setattr(sim, "_CHUNK_ENTRIES", 1 << log_chunk)
            monkeypatch.setattr(sim, "_MIN_CHUNK_ENTRIES", floor)
            warm = sim._compile(u, threads=threads)
            sim._compile(Circuit(2, (h(0),)))  # evicts u's layout
            cold = sim._compile(u, threads=threads)
            assert (warm.chunks, warm.cols) == (cold.chunks, cold.cols), config
            chunks[config] = warm.chunks
        assert len({chunks[log_chunk, 1, 1] for log_chunk in (3, 12, 20)}) == 3
        assert len({chunks[20, floor, 3] for floor in floors}) > 1
        assert len({chunks[20, 1, threads] for threads in (1, 2, 3)}) == 3

    def test_cached_arrays_are_read_only(self):
        u = build_worst_case_embedding(compile_iqp_from_poly(random_poly(6, 18, np.random.default_rng(2))))
        plan = sim._compile(u)
        with pytest.raises(ValueError, match="read-only"):
            plan.start_rows[0] = 1

    def test_threads_share_the_cache(self):
        # More workers than cores, each in its own order, so each call is
        # likely to evict the layout another thread is using, with frequent
        # switches between threads.  The corpus's cache cases and IQP
        # members share layouts in runs.
        circuits = [u for name, u in CASES if name.startswith(("cache:", "ensemble:random:iqp"))]
        want = [dqc1_distribution(u).probs.tobytes() for u in circuits]
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
            assert got == [want[(k + j) % size] for j in range(size)], k

    def test_chain_compiles_one_layout_per_ensemble(self):
        ens = parse_ensemble_spec("random:iqp:6:20:18:1")
        sim._layout.cache_clear()
        verify_chain(ens, SamplerModel.exact(), ErrorBudget())
        info = sim._layout.cache_info()
        assert (info.misses, info.hits) == (1, 19)


class TestPlanBlocks:
    """Each chunk runs on the rows its start entries reach; the bytes stay."""

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
    dtype = np.float64 if {g.kind for g in c.gates} <= set(REAL_KINDS) else np.complex128
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
        rng = np.random.default_rng(DEFERRAL_CASES.index((name, real)) + 1900)
        runs.append([])
        for w in (5, 8, 11):
            c = deferral_case(name, real, w, rng)
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

    @pytest.mark.parametrize(("name", "real"), DEFERRAL_CASES)
    def test_pinned_bytes(self, monkeypatch, name, real):
        assert _deferral_digest(monkeypatch, name, real) == _DEFERRAL_DIGESTS[name, real]

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
