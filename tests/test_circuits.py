"""Circuit IR: validation, adjoints, compilers, wire-format round trips."""

import copy
import json
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import dqc1sim.cli as cli
from dqc1sim.circuits import (
    GATE_KINDS,
    Circuit,
    CircuitFormatError,
    Gate,
    IsingInstance,
    PolyF2,
    adjoint,
    ccz,
    compile_iqp_from_ising,
    compile_iqp_from_poly,
    cx,
    cz,
    h,
    load_circuit,
    mcx,
    parse_circuit,
    parse_ising,
    parse_poly,
    rz,
    s,
    save_circuit,
    sdg,
    serialize_circuit,
    shift_qubits,
    t,
    tdg,
    x,
    z,
)
from dqc1sim.ensembles import random_circuit, random_iqp_ensemble, random_poly
from dqc1sim.hardness import Ensemble, build_worst_case_embedding
from dqc1sim.simulator import (
    DEFAULT_MAX_MIXED_QUBITS,
    MAX_SINGLE_PASS_WIDTH,
    StateVector,
    amplitude_zero,
    apply_circuit,
    dqc1_distribution,
    f_value,
)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("FOO", (0,))

    def test_circuit_takes_gates_only(self):
        with pytest.raises(ValueError, match="^gate 0 is not a Gate: 'H'$"):
            Circuit(2, ("H",))

    def test_target_arity(self):
        with pytest.raises(ValueError, match="target"):
            Gate("H", (0, 1))
        with pytest.raises(ValueError, match="target"):
            Gate("CZ", (0,))

    def test_duplicate_wires(self):
        with pytest.raises(ValueError, match="distinct"):
            Gate("CZ", (1, 1))
        with pytest.raises(ValueError, match="distinct"):
            Gate("CX", (2,), (2,))

    def test_controls_only_on_controlled_kinds(self):
        with pytest.raises(ValueError, match="no controls"):
            Gate("H", (0,), (1,))
        with pytest.raises(ValueError, match="control"):
            Gate("MCX", (0,))

    def test_mcx_polarities(self):
        with pytest.raises(ValueError, match="polarity"):
            Gate("MCX", (0,), (1, 2), (0,))
        with pytest.raises(ValueError, match="0 or 1"):
            Gate("MCX", (0,), (1,), (2,))
        assert mcx(0, (1, 2)).polarities == (1, 1)

    def test_theta_rules(self):
        with pytest.raises(ValueError, match="angle"):
            Gate("RZ", (0,))
        with pytest.raises(ValueError, match="angle"):
            Gate("H", (0,), theta=1.0)
        assert rz(2, 0).theta == 2.0

    @pytest.mark.parametrize("theta", [float("nan"), -float("inf"), 10**400, True, np.False_, "1"])
    def test_rejects_non_finite_and_boolean_theta(self, theta):
        with pytest.raises(ValueError, match="'theta' must be a finite number"):
            Gate("RZ", (0,), theta=theta)

    @pytest.mark.parametrize("wire", [True, 1.0, np.True_])
    def test_rejects_boolean_and_float_wires(self, wire):
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            Gate("H", (wire,))
        # Polarity bits like these used to pass, and save_circuit then wrote "pol":[true] or [1.0].
        with pytest.raises(ValueError, match="^polarity must be a nonnegative integer, got "):
            Gate("MCX", (0,), (1,), (wire,))

    def test_numpy_integer_wires_accepted_and_boolean_wires_rejected(self):
        g = Gate("MCX", (np.int64(2),), (np.int64(0), np.uint8(1)), (np.int64(1), np.uint8(0)))
        assert g.targets == (2,) and g.controls == (0, 1) and g.polarities == (1, 0)
        assert all(type(q) is int for q in g.qubits + g.polarities)
        with pytest.raises(ValueError, match="control index must be a nonnegative integer"):
            Gate("CX", (np.int64(1),), (True,))
        with pytest.raises(ValueError, match="target index must be a nonnegative integer"):
            Gate("CX", (True,), (np.int64(0),))

    @pytest.mark.parametrize(
        ("make", "message"),
        [
            (lambda: Gate("H", 0), "targets must be a list of integers, got 0"),
            (lambda: Gate("CX", (0,), 1), "controls must be a list of integers, got 1"),
            (lambda: Gate("MCX", (0,), (1,), 1), "polarities must be a list of integers, got 1"),
            (lambda: Gate(["H"], (0,)), "unknown gate kind ['H']"),
            (lambda: PolyF2(2, (5,)), "monomial 0 must be a list of integers, got 5"),
            (lambda: IsingInstance(2, ((0, 1),)), "coupling 0 must be [j, k, theta], got (0, 1)"),
            (lambda: IsingInstance(2, (), ((0, 1, 0.5),)), "field 0 must be [j, theta], got (0, 1, 0.5)"),
            # The outer collections: a list or a tuple, as a gate's wires.
            (lambda: PolyF2(2, 5), "monomials must be a list of monomials, got 5"),
            (lambda: IsingInstance(2, None), "couplings must be a list of [j, k, theta] entries, got None"),
            (lambda: IsingInstance(2, (), 3), "fields must be a list of [j, theta] entries, got 3"),
            (lambda: Circuit(2, None), "gates must be a list of Gates, got None"),
            (lambda: mcx(0, 5), "controls must be a list of integers, got 5"),
            (lambda: Ensemble(1, None), "circuits must be a list of Circuits, got None"),
        ],
    )
    def test_malformed_shapes_name_their_field(self, make, message):
        # These used to raise a TypeError or a ValueError that named no field.
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Gate("H", (-1,))

    def test_circuit_range_check(self):
        with pytest.raises(ValueError, match="qubit 3"):
            Circuit(3, (h(3),))
        with pytest.raises(ValueError, match="positive integer"):
            Circuit(0)
        with pytest.raises(ValueError, match=r"^gate 1 \(CX\) uses qubit 4 on a 3-qubit circuit$"):
            Circuit(3, (h(0), cx(4, 1)))

    def test_circuit_width_must_be_an_integer(self):
        # True used to build a 1-qubit circuit, NaN to fail inside int().
        with pytest.raises(ValueError, match=r"^width must be a positive integer, got True$"):
            Circuit(True, (h(0),))
        with pytest.raises(ValueError, match=r"^width must be a positive integer, got nan$"):
            Circuit(float("nan"))
        with pytest.raises(ValueError, match=r"^width must be a positive integer, got 2.0$"):
            Circuit(2.0)
        assert Circuit(np.int64(2)).width == 2 and type(Circuit(np.int64(2)).width) is int


class TestAdjoint:
    def test_single_gates(self):
        assert adjoint(Circuit(1, (s(0),))).gates == (sdg(0),)
        assert adjoint(Circuit(1, (t(0),))).gates == (tdg(0),)
        assert adjoint(Circuit(1, (rz(0.7, 0),))).gates == (rz(-0.7, 0),)
        assert adjoint(Circuit(2, (cx(0, 1),))).gates == (cx(0, 1),)

    def test_order_reverses(self):
        c = Circuit(1, (s(0), h(0)))
        assert adjoint(c).gates == (h(0), sdg(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_involution(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            c = random_circuit(int(rng.integers(1, 8)), int(rng.integers(0, 30)), rng)
            assert adjoint(adjoint(c)) == c

    def test_numeric_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            w = int(rng.integers(1, 8))
            c = random_circuit(w, 25, rng)
            psi = StateVector.basis(w, int(rng.integers(1 << w)))
            back = apply_circuit(apply_circuit(psi, c), adjoint(c))
            assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-12


def _replaced_adjoint(c: Circuit) -> Circuit:
    """adjoint built gate by gate with dataclasses.replace, which checks every gate again."""
    inverse = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}
    out = []
    for g in reversed(c.gates):
        if g.kind in inverse:
            g = replace(g, kind=inverse[g.kind])
        elif g.kind == "RZ":
            g = replace(g, theta=-g.theta)
        out.append(g)
    return Circuit(c.width, tuple(out))


def _replaced_shift(c: Circuit, offset: int, width: int) -> Circuit:
    """shift_qubits built with dataclasses.replace."""
    gates = tuple(
        replace(g, targets=tuple(q + offset for q in g.targets), controls=tuple(q + offset for q in g.controls))
        for g in c.gates
    )
    return Circuit(width, gates)


def _fields(g: Gate) -> list:
    """Each field of g in field order, by name, with its value and type; a field left unset raises."""
    return [(f.name, getattr(g, f.name), type(getattr(g, f.name))) for f in fields(g)]


def _assert_same_gates(got: Circuit, want: Circuit) -> None:
    assert got == want
    assert repr(got) == repr(want)
    assert pickle.loads(pickle.dumps(got)) == want
    for a, b in zip(got.gates, want.gates):
        assert type(a) is type(b) is Gate
        assert _fields(a) == _fields(b)
        assert [type(v) for v in a.qubits + a.polarities] == [type(v) for v in b.qubits + b.polarities]
        assert hash(a) == hash(b)
        with pytest.raises(FrozenInstanceError):
            a.kind = "H"


def _rebuilt(c: Circuit) -> Circuit:
    """c built again with Gate(...) and Circuit(...), which check every field."""
    return Circuit(c.width, tuple(Gate(g.kind, g.targets, g.controls, g.polarities, g.theta) for g in c.gates))


class TestShiftQubits:
    def test_shift(self):
        c = Circuit(2, (h(0), cx(0, 1)))
        shifted = shift_qubits(c, 1, 3)
        assert shifted.width == 3
        assert shifted.gates == (h(1), cx(1, 2))

    def test_bad_shift(self):
        with pytest.raises(ValueError, match="shift"):
            shift_qubits(Circuit(2), 2, 3)

    @pytest.mark.parametrize("offset, width", [(-1, 4), (3, 4), (1.0, 4), (True, 4), (0, 1)])
    def test_bad_offsets_and_widths(self, offset, width):
        c = Circuit(2, (cx(0, 1),))
        with pytest.raises(ValueError, match=rf"^cannot shift a 2-qubit circuit by {offset} into width {width}$"):
            shift_qubits(c, offset, width)

    @pytest.mark.parametrize("width", [3.5, "5", None])
    def test_bad_target_width(self, width):
        message = f"width must be a positive integer, got {width!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            shift_qubits(Circuit(2, (cx(0, 1),)), 1, width)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_replace(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            c = random_circuit(int(rng.integers(1, 7)), int(rng.integers(0, 30)), rng, GATE_KINDS)
            offset = int(rng.integers(0, 4))
            width = c.width + offset + int(rng.integers(0, 3))
            _assert_same_gates(shift_qubits(c, offset, width), _replaced_shift(c, offset, width))
            _assert_same_gates(shift_qubits(c, np.int64(offset), width), _replaced_shift(c, offset, width))
            _assert_same_gates(adjoint(c), _replaced_adjoint(c))

    @pytest.mark.parametrize("seed", range(4))
    def test_iqp_circuits_match_checked_ones(self, seed):
        rng = np.random.default_rng(seed)
        c = compile_iqp_from_poly(random_poly(int(rng.integers(1, 9)), int(rng.integers(0, 40)), rng))
        _assert_same_gates(c, _rebuilt(c))
        for member in random_iqp_ensemble(int(rng.integers(1, 7)), 3, int(rng.integers(0, 30)), seed).circuits:
            _assert_same_gates(member, _rebuilt(member))

    def test_worst_case_embedding_matches_replace(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            c = random_circuit(int(rng.integers(1, 7)), int(rng.integers(0, 30)), rng, GATE_KINDS)
            n = c.width
            flip = (x(0), mcx(0, tuple(range(1, n + 1)), (0,) * n))
            want = _replaced_adjoint(Circuit(n + 1, _replaced_shift(c, 1, n + 1).gates + flip))
            _assert_same_gates(build_worst_case_embedding(c), want)


class TestPolyF2:
    def test_monomial_sizes(self):
        with pytest.raises(ValueError, match="size"):
            PolyF2(4, ((),))
        with pytest.raises(ValueError, match="size"):
            PolyF2(4, ((0, 1, 2, 3),))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            PolyF2(3, ((1, 0),))
        with pytest.raises(ValueError, match="increasing"):
            PolyF2(3, ((1, 1),))

    def test_range_and_duplicates(self):
        with pytest.raises(ValueError, match="outside"):
            PolyF2(2, ((0, 2),))
        with pytest.raises(ValueError, match="duplicate"):
            PolyF2(3, ((0, 1), (0, 1)))

    def test_canonical_order(self):
        assert PolyF2(3, ((1, 2), (0,))) == PolyF2(3, ((0,), (1, 2)))

    def test_rejects_non_integer_variables(self):
        # int() used to truncate these to ((0, 2),).
        with pytest.raises(ValueError, match=r"^monomial 0: variables must be integers, got \(0.9, 2.2\)"):
            PolyF2(3, ((0.9, 2.2),))

    def test_rejects_boolean_variables(self):
        # int() used to turn this into ((1, 2),).
        with pytest.raises(ValueError, match=r"^monomial 1: variables must be integers, got \(True, 2"):
            PolyF2(3, ((0,), (True, 2)))
        with pytest.raises(ValueError, match="n_vars"):
            PolyF2(True)


class TestIsingInstance:
    def test_pair_normalization(self):
        m = IsingInstance(3, ((2, 0, 0.5),))
        assert m.couplings == ((0, 2, 0.5),)

    def test_rejects_self_coupling(self):
        with pytest.raises(ValueError, match="self-coupling"):
            IsingInstance(2, ((1, 1, 0.3),))

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError, match="duplicate"):
            IsingInstance(3, ((0, 1, 0.1), (1, 0, 0.2)))
        with pytest.raises(ValueError, match="^duplicate field spin$"):
            IsingInstance(2, (), ((0, 0.5), (0, 0.25)))
        with pytest.raises(ValueError, match="outside"):
            IsingInstance(2, ((0, 2, 0.1),))
        with pytest.raises(ValueError, match="outside"):
            IsingInstance(2, (), ((5, 0.1),))

    def test_rejects_non_integer_spins(self):
        # int() used to truncate this coupling to (0, 1, 0.3).
        with pytest.raises(ValueError, match=r"^coupling 0: spins must be integers, got \[0.5, 1.9\]$"):
            IsingInstance(2, ((0.5, 1.9, 0.3),), ((1.7, float("nan")),))
        with pytest.raises(ValueError, match=r"^field 0: spins must be integers, got \[1.7\]$"):
            IsingInstance(2, (), ((1.7, float("nan")),))
        with pytest.raises(ValueError, match=r"^coupling 1: spins must be integers, got \[True, 0\]$"):
            IsingInstance(2, ((0, 1, 0.3), (True, 0, 0.1)))

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), 10**400, True, "0.5"])
    def test_rejects_non_finite_and_boolean_angles(self, theta):
        # A NaN field used to be stored as ((1, nan),).
        with pytest.raises(ValueError, match="^field 0: theta must be a finite number"):
            IsingInstance(2, ((0, 1, 0.3),), ((1, theta),))
        with pytest.raises(ValueError, match="^coupling 0: theta must be a finite number"):
            IsingInstance(2, ((0, 1, theta),))


class TestIqpFromPoly:
    def test_structure(self):
        # Monomials are kept in canonical (lexicographic) order.
        c = compile_iqp_from_poly(PolyF2(3, ((0,), (1, 2), (0, 1, 2))))
        kinds = [g.kind for g in c.gates]
        assert kinds == ["H", "H", "H", "Z", "CCZ", "CZ", "H", "H", "H"]
        assert c.gates[3] == z(0)
        assert c.gates[4] == ccz(0, 1, 2)
        assert c.gates[5] == cz(1, 2)

    def test_empty_poly_amplitude_one(self):
        c = compile_iqp_from_poly(PolyF2(3))
        assert abs(amplitude_zero(c) - 1.0) < 1e-12

    def test_single_linear_term_amplitude_zero(self):
        c = compile_iqp_from_poly(PolyF2(1, ((0,),)))
        assert abs(amplitude_zero(c)) < 1e-12

    def test_cubic_amplitude(self):
        # gap of x0*x1*x2 over 8 assignments: one odd point, so 6/8.
        c = compile_iqp_from_poly(PolyF2(3, ((0, 1, 2),)))
        assert abs(amplitude_zero(c) - 0.75) < 1e-12


class TestIqpFromIsing:
    def test_no_terms_amplitude_one(self):
        c = compile_iqp_from_ising(IsingInstance(2))
        assert abs(amplitude_zero(c) - 1.0) < 1e-12

    def test_quarter_turn_coupling_cancels(self):
        c = compile_iqp_from_ising(IsingInstance(2, ((0, 1, np.pi / 2),)))
        assert abs(amplitude_zero(c)) < 1e-12

    def test_pi_field_flips_sign(self):
        c = compile_iqp_from_ising(IsingInstance(1, (), ((0, np.pi),)))
        assert abs(amplitude_zero(c) - (-1.0)) < 1e-12

    def test_gate_inventory(self):
        c = compile_iqp_from_ising(IsingInstance(2, ((0, 1, 0.3),), ((0, 0.2),)))
        kinds = [g.kind for g in c.gates]
        assert kinds == ["H", "H", "CX", "RZ", "CX", "RZ", "H", "H"]


class TestWireFormat:
    def test_parse_example(self):
        c = parse_circuit('{"qubits":3,"gates":[{"g":"MCX","t":[0],"c":[1,2],"pol":[0,0]}]}')
        assert c.width == 3
        assert c.gates == (mcx(0, (1, 2), (0, 0)),)

    def test_mcx_polarity_default(self):
        c = parse_circuit('{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1]}]}')
        assert c.gates[0].polarities == (1,)

    def test_qubit_out_of_range_names_the_gate(self):
        text = '{"qubits":2,"gates":[{"g":"H","t":[0]},{"g":"CX","t":[2],"c":[0]}]}'
        with pytest.raises(CircuitFormatError, match=r"^circuit: gate 1 \(CX\) uses qubit 2 on a 2-qubit circuit$"):
            parse_circuit(text)

    def test_parse_errors_carry_location(self):
        with pytest.raises(CircuitFormatError, match="line 1"):
            parse_circuit("{not json")
        with pytest.raises(CircuitFormatError, match="gate 1"):
            parse_circuit('{"qubits":2,"gates":[{"g":"H","t":[0]},{"g":"FOO","t":[1]}]}')
        with pytest.raises(CircuitFormatError, match="gate 0"):
            parse_circuit('{"qubits":2,"gates":[{"g":"H","t":[5]}]}')
        with pytest.raises(CircuitFormatError, match="unexpected field"):
            parse_circuit('{"qubits":1,"gates":[{"g":"H","t":[0],"bogus":1}]}')
        with pytest.raises(CircuitFormatError, match="qubits"):
            parse_circuit('{"qubits":0,"gates":[]}')
        with pytest.raises(CircuitFormatError, match="missing field"):
            parse_circuit('{"qubits":1}')
        with pytest.raises(CircuitFormatError, match="^circuit: top level must be a JSON object$"):
            parse_circuit("[]")

    def test_serialize_is_canonical(self):
        messy = '{"gates": [ {"t": [0], "g": "H"} ],  "qubits": 1}'
        assert serialize_circuit(parse_circuit(messy)) == '{"qubits":1,"gates":[{"g":"H","t":[0]}]}'

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_randomized(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(220):
            c = random_circuit(int(rng.integers(1, 9)), int(rng.integers(0, 25)), rng)
            text = serialize_circuit(c)
            again = parse_circuit(text)
            assert again == c
            assert serialize_circuit(again) == text

    @pytest.mark.parametrize("seed", range(3))
    def test_save_load_round_trip_with_numpy_wires(self, tmp_path, seed):
        # numpy polarities used to reach json.dumps, which cannot write an int64.
        rng = np.random.default_rng(seed)
        path = tmp_path / "circuit.json"
        for _ in range(50):
            c = random_circuit(int(rng.integers(2, 7)), int(rng.integers(0, 20)), rng, GATE_KINDS)
            gates = [
                Gate(g.kind, tuple(map(np.int64, g.targets)), tuple(map(np.uint8, g.controls)),
                     tuple(map(np.int64, g.polarities)), g.theta)
                for g in c.gates
            ]
            save_circuit(Circuit(np.int64(c.width), gates), path)
            assert load_circuit(path) == c


# Values the fuzz writes into fields; "@1e309" becomes the bare literal 1e309.
_FUZZ_VALUES = (
    None, True, False, 0, 1, -1, 3, 7, 2**70, -(2**70), "@1e309", float("nan"), 0.5, -2.5,
    "", "H", "MCX", "0", [], [0], [1, 0], [True], [None], [2**70], {}, {"g": "H"},
)


def _mutate(obj: dict, rng: np.random.Generator) -> None:
    """One random edit of a parsed circuit object, in place."""
    def value():
        return copy.deepcopy(_FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))])

    gates = obj.get("gates")
    gate = None
    if isinstance(gates, list) and gates:
        gate = gates[int(rng.integers(len(gates)))]
        if not isinstance(gate, dict):
            gate = None
    action = int(rng.integers(6))
    if action == 0:
        obj[["qubits", "gates", "extra"][int(rng.integers(3))]] = value()
    elif action == 1 and gate is not None:
        gate[["g", "t", "c", "pol", "theta", "bogus"][int(rng.integers(6))]] = value()
    elif action == 2 and gate is not None:
        lists = [gate[k] for k in ("t", "c", "pol") if isinstance(gate.get(k), list) and gate[k]]
        if lists:
            wires = lists[int(rng.integers(len(lists)))]
            wires[int(rng.integers(len(wires)))] = value()
    elif action == 3 and gate:
        del gate[sorted(gate)[int(rng.integers(len(gate)))]]
    elif action == 4:
        obj.pop(["qubits", "gates"][int(rng.integers(2))], None)
    elif isinstance(gates, list):
        gates.append(value())


class TestParseFuzz:
    """Mutated circuit JSON is either rejected at parse time or simulates cleanly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_circuits(self, seed):
        rng = np.random.default_rng(4000 + seed)
        parsed = rejected = 0
        for _ in range(1000):
            c = random_circuit(int(rng.integers(1, 6)), int(rng.integers(0, 10)), rng, GATE_KINDS)
            obj = json.loads(serialize_circuit(c))
            for _ in range(int(rng.integers(1, 3))):
                _mutate(obj, rng)
            text = json.dumps(obj).replace('"@1e309"', "1e309")
            try:
                u = parse_circuit(text)
            except CircuitFormatError:
                rejected += 1
                continue
            parsed += 1
            if u.width - 1 > DEFAULT_MAX_MIXED_QUBITS:
                with pytest.raises(ValueError, match="cap"):
                    dqc1_distribution(u)
            else:
                assert dqc1_distribution(u).probs.max() <= 2.0 ** (1 - u.width) + 1e-12
            if u.width > MAX_SINGLE_PASS_WIDTH:
                with pytest.raises(ValueError, match="cap"):
                    f_value(u, 0)
            else:
                assert 0.0 <= f_value(u, 0) <= 1.0 + 1e-12
        assert parsed >= 10 and rejected >= 800


class TestPolyAndIsingFormats:
    def test_poly_parse(self):
        f = parse_poly('{"n":3,"monomials":[[0],[1,2],[0,1,2]]}')
        assert f == PolyF2(3, ((0,), (1, 2), (0, 1, 2)))

    def test_poly_errors(self):
        with pytest.raises(CircuitFormatError, match="monomial"):
            parse_poly('{"n":3,"monomials":[[0,0]]}')
        with pytest.raises(CircuitFormatError, match="missing"):
            parse_poly('{"n":3}')
        with pytest.raises(CircuitFormatError, match="^polynomial: 'monomials' must be a list$"):
            parse_poly('{"n":3,"monomials":3}')

    def test_ising_parse(self):
        m = parse_ising('{"n":2,"couplings":[[0,1,0.5]],"fields":[[0,1.5]]}')
        assert m == IsingInstance(2, ((0, 1, 0.5),), ((0, 1.5),))

    def test_ising_errors(self):
        with pytest.raises(CircuitFormatError, match="coupling 0"):
            parse_ising('{"n":2,"couplings":[[0,1]],"fields":[]}')
        with pytest.raises(CircuitFormatError, match="self-coupling"):
            parse_ising('{"n":2,"couplings":[[1,1,0.2]],"fields":[]}')
        with pytest.raises(CircuitFormatError, match="^ising: 'couplings' and 'fields' must be lists$"):
            parse_ising('{"n":2,"couplings":{"0":[0,1,0.5]}}')

    @pytest.mark.parametrize(
        ("text", "needle"),
        [
            ('{"n":2,"couplings":[[0,1,NaN]]}', "coupling 0: theta"),
            ('{"n":2,"couplings":[[0,1,0.5],[0,1,Infinity]]}', "coupling 1: theta"),
            ('{"n":2,"fields":[[0,0.1],[1,-Infinity]]}', "field 1: theta"),
            ('{"n":2,"couplings":[[0,1,true]]}', "coupling 0: theta"),
            ('{"n":2,"fields":[[0,false]]}', "field 0: theta"),
            ('{"n":2,"couplings":[[0,1,1e999]]}', "coupling 0: theta"),
            ('{"n":2,"couplings":[[0,true,0.5]]}', "coupling 0: spins"),
            ('{"n":2,"fields":[[0.0,0.5]]}', "field 0: spins"),
            ('{"n":true,"couplings":[]}', "'n'"),
            ('{"n":2.0}', "'n'"),
        ],
    )
    def test_ising_rejects_non_finite_and_boolean_values(self, text, needle):
        with pytest.raises(CircuitFormatError, match=needle):
            parse_ising(text)

    def test_poly_rejects_boolean_n(self):
        with pytest.raises(CircuitFormatError, match="'n' must be a positive integer"):
            parse_poly('{"n":true,"monomials":[[0]]}')

    @pytest.mark.parametrize(
        ("parse", "text", "field"),
        [
            (parse_circuit, '{"qubits":1,"gates":[],"extra":[1]}', "extra"),
            (parse_poly, '{"n":2,"monomials":[[0]],"monomial":[[1]]}', "monomial"),
            (parse_ising, '{"n":2,"couplings":[],"feilds":[[0,0.5]]}', "feilds"),
        ],
    )
    def test_unknown_top_level_field(self, parse, text, field):
        with pytest.raises(CircuitFormatError, match=f"unexpected field '{field}'"):
            parse(text)


# One single-fault document per rule of the three wire formats, with the
# exact one-line message it must raise.
_FORMAT_MESSAGES = [
    (parse_circuit, '{not json', 'circuit: invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes'),
    (parse_circuit, '[]', 'circuit: top level must be a JSON object'),
    (parse_circuit, '{"qubits":1,"gates":[],"extra":1}', "circuit: unexpected field 'extra'"),
    (parse_circuit, '{"gates":[]}', "circuit: missing field 'qubits'"),
    (parse_circuit, '{"qubits":0,"gates":[]}', "circuit: 'qubits' must be a positive integer, got 0"),
    (parse_circuit, '{"qubits":true,"gates":[]}', "circuit: 'qubits' must be a positive integer, got True"),
    (parse_circuit, '{"qubits":1}', "circuit: missing field 'gates'"),
    (parse_circuit, '{"qubits":1,"gates":{}}', "circuit: 'gates' must be a list"),
    (parse_circuit, '{"qubits":1,"gates":["H"]}', "gate 0: expected an object, got 'H'"),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"H","t":[0],"x":1}]}', "gate 0: unexpected field 'x'"),
    (parse_circuit, '{"qubits":1,"gates":[{"t":[0]}]}', "gate 0: missing field 'g'"),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"H"}]}', "gate 0: missing field 't'"),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"FOO","t":[0]}]}', "gate 0: unknown gate kind 'FOO'"),
    (parse_circuit, '{"qubits":1,"gates":[{"g":["H"],"t":[0]}]}', "gate 0: unknown gate kind ['H']"),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"H","t":0}]}', 'gate 0: targets must be a list of integers, got 0'),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"H","t":[false]}]}', 'gate 0: target index must be a nonnegative integer, got False'),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"H","t":[0.0]}]}', 'gate 0: target index must be a nonnegative integer, got 0.0'),
    (parse_circuit, '{"qubits":1,"gates":[{"g":"H","t":[-1]}]}', 'gate 0: target index must be a nonnegative integer, got -1'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"H","t":[0,1]}]}', 'gate 0: H takes 1 target(s), got 2'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"CX","t":[0]}]}', 'gate 0: CX takes exactly one control'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"CX","t":[0],"c":[true]}]}', 'gate 0: control index must be a nonnegative integer, got True'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"CX","t":[0],"c":1}]}', 'gate 0: controls must be a list of integers, got 1'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"H","t":[0],"c":[1]}]}', 'gate 0: H takes no controls'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0]}]}', 'gate 0: MCX needs at least one control'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[true]}]}', 'gate 0: polarity must be a nonnegative integer, got True'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[1.0]}]}', 'gate 0: polarity must be a nonnegative integer, got 1.0'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[2]}]}', 'gate 0: MCX polarities must be 0 or 1'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[-1]}]}', 'gate 0: polarity must be a nonnegative integer, got -1'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[0,1]}]}', 'gate 0: MCX needs exactly one polarity bit per control'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":1}]}', 'gate 0: polarities must be a list of integers, got 1'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"H","t":[0],"pol":[1]}]}', 'gate 0: H takes no polarities'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"RZ","t":[0]}]}', 'gate 0: RZ needs an angle'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"RZ","t":[0],"theta":NaN}]}', "gate 0: 'theta' must be a finite number, got nan"),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"RZ","t":[0],"theta":"1"}]}', "gate 0: 'theta' must be a finite number, got '1'"),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"H","t":[0],"theta":1.0}]}', 'gate 0: H takes no angle'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"CZ","t":[1,1]}]}', 'gate 0: CZ wires must be distinct, got (1, 1)'),
    (parse_circuit, '{"qubits":2,"gates":[{"g":"H","t":[0]},{"g":"H","t":[2]}]}', 'circuit: gate 1 (H) uses qubit 2 on a 2-qubit circuit'),
    (parse_poly, '{"n":3', "polynomial: invalid JSON at line 1, column 7: Expecting ',' delimiter"),
    (parse_poly, '[]', 'polynomial: top level must be a JSON object'),
    (parse_poly, '{"n":3,"monomials":[],"x":1}', "polynomial: unexpected field 'x'"),
    (parse_poly, '{"monomials":[]}', "polynomial: missing field 'n'"),
    (parse_poly, '{"n":0,"monomials":[]}', "polynomial: 'n' must be a positive integer, got 0"),
    (parse_poly, '{"n":true,"monomials":[]}', "polynomial: 'n' must be a positive integer, got True"),
    (parse_poly, '{"n":3}', "polynomial: missing field 'monomials'"),
    (parse_poly, '{"n":3,"monomials":3}', "polynomial: 'monomials' must be a list"),
    (parse_poly, '{"n":3,"monomials":[5]}', 'polynomial: monomial 0 must be a list of integers, got 5'),
    (parse_poly, '{"n":3,"monomials":[[0.5]]}', 'polynomial: monomial 0: variables must be integers, got [0.5]'),
    (parse_poly, '{"n":3,"monomials":[[0],[true]]}', 'polynomial: monomial 1: variables must be integers, got [True]'),
    (parse_poly, '{"n":3,"monomials":[[]]}', 'polynomial: monomial () has size 0, only sizes 1..3 are allowed'),
    (parse_poly, '{"n":3,"monomials":[[0,1,2],[0,1,2,3]]}', 'polynomial: monomial (0, 1, 2, 3) has size 4, only sizes 1..3 are allowed'),
    (parse_poly, '{"n":3,"monomials":[[1,0]]}', 'polynomial: monomial (1, 0) must be strictly increasing'),
    (parse_poly, '{"n":3,"monomials":[[0,3]]}', 'polynomial: monomial (0, 3) uses a variable outside 0..2'),
    (parse_poly, '{"n":3,"monomials":[[0],[0]]}', 'polynomial: duplicate monomials'),
    (parse_ising, '{"n":2,', 'ising: invalid JSON at line 1, column 8: Expecting property name enclosed in double quotes'),
    (parse_ising, '[]', 'ising: top level must be a JSON object'),
    (parse_ising, '{"n":2,"feilds":[]}', "ising: unexpected field 'feilds'"),
    (parse_ising, '{"couplings":[]}', "ising: missing field 'n'"),
    (parse_ising, '{"n":2.0}', "ising: 'n' must be a positive integer, got 2.0"),
    (parse_ising, '{"n":2,"couplings":{}}', "ising: 'couplings' and 'fields' must be lists"),
    (parse_ising, '{"n":2,"fields":3}', "ising: 'couplings' and 'fields' must be lists"),
    (parse_ising, '{"n":2,"couplings":[[0,1]]}', 'ising: coupling 0 must be [j, k, theta], got [0, 1]'),
    (parse_ising, '{"n":2,"couplings":[5]}', 'ising: coupling 0 must be [j, k, theta], got 5'),
    (parse_ising, '{"n":2,"fields":[[0]]}', 'ising: field 0 must be [j, theta], got [0]'),
    (parse_ising, '{"n":2,"fields":[[0,0.5],{"j":1}]}', "ising: field 1 must be [j, theta], got {'j': 1}"),
    (parse_ising, '{"n":2,"couplings":[[0,1,NaN]]}', 'ising: coupling 0: theta must be a finite number, got nan'),
    (parse_ising, '{"n":2,"couplings":[[0,true,0.5]]}', 'ising: coupling 0: spins must be integers, got [0, True]'),
    (parse_ising, '{"n":2,"fields":[[0.0,0.5]]}', 'ising: field 0: spins must be integers, got [0.0]'),
    (parse_ising, '{"n":2,"fields":[[1,"0.5"]]}', "ising: field 0: theta must be a finite number, got '0.5'"),
    (parse_ising, '{"n":2,"couplings":[[1,1,0.2]]}', 'ising: coupling 0: self-coupling on spin 1'),
    (parse_ising, '{"n":2,"couplings":[[0,2,0.1]]}', 'ising: coupling 0: (0, 2) outside 0..1'),
    (parse_ising, '{"n":2,"couplings":[[0,1,0.1],[1,0,0.2]]}', 'ising: duplicate coupling pair'),
    (parse_ising, '{"n":2,"fields":[[5,0.1]]}', 'ising: field 0: spin 5 outside 0..1'),
    (parse_ising, '{"n":2,"fields":[[0,0.1],[0,0.2]]}', 'ising: duplicate field spin'),
]


@pytest.mark.parametrize(
    ("parse", "text", "message"),
    _FORMAT_MESSAGES,
    ids=[f"{parse.__name__[6:]}:{text}" for parse, text, _ in _FORMAT_MESSAGES],
)
def test_single_fault_message(tmp_path, capsys, parse, text, message):
    with pytest.raises(CircuitFormatError) as info:
        parse(text)
    assert str(info.value) == message
    # The CLI prints the same line and exits 1.
    path = tmp_path / "input.json"
    path.write_text(text)
    flags = {parse_circuit: ["iqp-amp", "--circuit"], parse_poly: ["gap", "--poly"], parse_ising: ["ising-z", "--model"]}
    assert cli.main([*flags[parse], str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
