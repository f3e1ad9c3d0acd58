"""Circuit IR: validation, adjoints, compilers, wire-format round trips."""

import copy
import json

import numpy as np
import pytest

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
    mcx,
    parse_circuit,
    parse_ising,
    parse_poly,
    rz,
    s,
    sdg,
    serialize_circuit,
    shift_qubits,
    t,
    tdg,
    x,
    z,
)
from dqc1sim.ensembles import random_circuit
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

    def test_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Gate("H", (-1,))

    def test_circuit_range_check(self):
        with pytest.raises(ValueError, match="qubit 3"):
            Circuit(3, (h(3),))
        with pytest.raises(ValueError, match="positive integer"):
            Circuit(0)


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


class TestShiftQubits:
    def test_shift(self):
        c = Circuit(2, (h(0), cx(0, 1)))
        shifted = shift_qubits(c, 1, 3)
        assert shifted.width == 3
        assert shifted.gates == (h(1), cx(1, 2))

    def test_bad_shift(self):
        with pytest.raises(ValueError, match="shift"):
            shift_qubits(Circuit(2), 2, 3)


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


class TestIsingInstance:
    def test_pair_normalization(self):
        m = IsingInstance(3, ((2, 0, 0.5),))
        assert m.couplings == ((0, 2, 0.5),)

    def test_accepts_mappings(self):
        m = IsingInstance(3, {(0, 1): 0.25}, {2: -1.0})
        assert m.couplings == ((0, 1, 0.25),)
        assert m.fields == ((2, -1.0),)

    def test_rejects_self_coupling(self):
        with pytest.raises(ValueError, match="self-coupling"):
            IsingInstance(2, ((1, 1, 0.3),))

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError, match="duplicate"):
            IsingInstance(3, ((0, 1, 0.1), (1, 0, 0.2)))
        with pytest.raises(ValueError, match="outside"):
            IsingInstance(2, ((0, 2, 0.1),))
        with pytest.raises(ValueError, match="outside"):
            IsingInstance(2, (), ((5, 0.1),))


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

    def test_ising_parse(self):
        m = parse_ising('{"n":2,"couplings":[[0,1,0.5]],"fields":[[0,1.5]]}')
        assert m == IsingInstance(2, ((0, 1, 0.5),), ((0, 1.5),))

    def test_ising_errors(self):
        with pytest.raises(CircuitFormatError, match="coupling 0"):
            parse_ising('{"n":2,"couplings":[[0,1]],"fields":[]}')
        with pytest.raises(CircuitFormatError, match="self-coupling"):
            parse_ising('{"n":2,"couplings":[[1,1,0.2]],"fields":[]}')

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
