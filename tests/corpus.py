"""The seeded circuit corpus that tests/test_corpus.py runs through every public entry point.

Each case is a (name, circuit) pair of width 1-10.  Besides random circuits
of all twelve gate kinds, worst-case embeddings, postselection pairs and
members of the ``random:iqp`` and ``random:htcx`` ensembles, it holds the
edge structures of both gate paths: qubits a pass has not mixed yet
(settled), long diagonal runs, tails that fold into a read-out, the leading
H layers whose copies wait, plan blocks that grow, move or split, and
untouched qubits that leave fewer than 2**n columns to run.  Every builder
is seeded, so a case's circuit never changes; a new case goes at the end
of ``CASES``.
"""

import numpy as np

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
from dqc1sim.hardness import build_postselection_pair, build_worst_case_embedding

DIAGONAL_KINDS = ("Z", "S", "SDG", "T", "TDG", "CZ", "CCZ")
# Gates with real matrices, sorted: f_value runs a circuit of these in float64.
REAL_KINDS = ("CCZ", "CX", "CZ", "H", "MCX", "X", "Z")
ARITY = {"CZ": 2, "CCZ": 3}
_NO_H = tuple(k for k in GATE_KINDS if k != "H")


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
    # Past the 512-butterfly rescale twice: unnormalised norms would overflow.
    "h_1101_times": _many_h(1101),
}


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
                kind = str(rng.choice(DIAGONAL_KINDS))
                arity = ARITY.get(kind, 1)
                if arity <= w:
                    gates.append(Gate(kind, tuple(int(p) for p in rng.choice(w, arity, replace=False))))
        # An H run: low qubits more often, some twice, some flipped first.
        pool = [q for q in range(w) for _ in range(1 + q * 3 // w)]
        run = [int(q) for q in rng.choice(pool, size=int(rng.integers(1, 2 * w + 1)))]
        gates += [x(q) for q in set(run) if rng.random() < 0.3]
        gates += [h(q) for q in run]
    return Circuit(w, tuple(gates))


def _interleave(parts: list[Circuit], rng: np.random.Generator) -> Circuit:
    """The parts on consecutive qubit blocks, their gates interleaved in seeded chunks."""
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


def _every_low_bit(w: int) -> Circuit:
    """H layers on every qubit, the odd qubits flipped first, around a diagonal run."""
    layer = tuple(h(q) for q in range(w))
    odd = tuple(x(q) for q in range(1, w, 2))
    diag = tuple(
        Gate(k, tuple(range(q, q + ARITY.get(k, 1))))
        for q, k in zip(range(w - 2), DIAGONAL_KINDS * w)
    )
    return Circuit(w, layer + odd + layer[::-1] + diag + odd + layer + (t(w - 1),) + layer)


def _run_cases() -> list:
    """Diagonal runs on strided and settled views, and seeded run circuits of widths 1-8."""
    rng = np.random.default_rng(11)
    cases = [
        ("every_low_bit", _every_low_bit(8)),
        # Qubit 7 (stored bit 0) stays settled, then flipped: the live view is
        # not contiguous, so the butterflies and the diagonal run see strided views.
        ("non_contiguous_live_view", Circuit(
            8,
            tuple(h(q) for q in range(7)) + (x(7), cz(6, 7), t(7), ccz(5, 6, 7), s(5))
            + tuple(h(q) for q in (6, 5, 4, 6)) + (tdg(6), sdg(7), cz(4, 5), h(6), h(5)),
        )),
        ("settled_middle_qubit", Circuit(
            7,
            tuple(h(q) for q in range(7) if q != 3) + (x(3), ccz(2, 3, 6), cz(3, 5), t(3), s(6), z(5))
            + tuple(h(q) for q in (6, 5, 4)) + (cx(3, 6), tdg(6), h(6), h(3), cz(3, 6), h(4)),
        )),
        ("product_of_two_fours", _interleave([_every_low_bit(4), _every_low_bit(4)], rng)),
    ]
    cases += [(f"random_w{w}", _run_circuit(w, rng)) for w in range(1, 9)]
    cases.append(("random_product", _interleave([_run_circuit(4, rng), _run_circuit(4, rng)], rng)))
    return cases


def _settled_zero_body(w: int, rng: np.random.Generator) -> tuple:
    """Random gates of every kind that leave qubit 0 settled, with its bit flipped half the time."""
    gates = shift_qubits(random_circuit(w - 1, int(rng.integers(5, 40)), rng, GATE_KINDS), 1, w).gates
    return gates + ((x(0),) if rng.integers(2) else ()) + (t(0),)


# Tails on qubit 0 of a pass that reads it at 0.  Over every start z,
# qubit 0 is settled at either bit, so each rule of the read-out fold is
# met: a gate that must fire, one that must not with one free control, two
# free controls that must not fire, a read control at the wrong value beside
# a free one, gates whose controls are all read, and trailing H gates on
# qubit 0 and on read qubits that are settled (1), flipped (2) or live (3
# and up).
_READ_TAILS = {
    "one_free": (cx(1, 0),),
    "two_free": (mcx(0, (1, 2), (1, 0)),),
    "wrong_read_control": (mcx(1, (2, 3), (0, 1)), mcx(0, (1, 2), (1, 1))),
    "all_read": (x(1), cx(2, 1), x(0), mcx(0, (1, 2), (1, 1))),
    "h_layer": (h(1), h(2), h(3), h(4), mcx(0, (1, 2, 3, 4), (1, 0, 1, 0))),
    "h_on_read_zero": (cx(1, 0), h(3), h(0)),
}


def _tail_cases() -> list:
    """Each read tail after bodies of widths 5, 6 and 8, random tails, and a rescale among contractions.

    Each is stored as its adjoint, so the single passes, which run a case's
    adjoint, end in the tail.
    """
    cases = []
    for name in sorted(_READ_TAILS):
        rng = np.random.default_rng(900)
        for w in (5, 6, 8):
            body = _settled_zero_body(w, rng)
            if name == "h_layer":  # qubit 1 stays settled, qubit 2 flipped
                body = tuple(g for g in body if not {1, 2} & set(g.qubits)) + (x(2),)
            cases.append((f"{name}_w{w}", Circuit(w, body + _READ_TAILS[name])))
    rng = np.random.default_rng(950)
    for w in range(2, 9):
        # H, X, CX and MCX tails after gates of every kind, some live, some not.
        body = random_circuit(w, int(rng.integers(0, 30)), rng, GATE_KINDS).gates
        tail = random_circuit(w, 8, rng, ("H", "X", "CX", "MCX")).gates
        cases.append((f"random_w{w}", Circuit(w, body + tail)))
    # 510 leading H, then a layer of 4 contractions: butterfly 512 is the
    # second of them, so the rescale comes before the third.
    lead = tuple(h(q % 3 + 1) for q in range(510))
    body = random_circuit(4, 12, np.random.default_rng(970), ("T", "S", "CZ", "CCZ", "X")).gates
    cases.append(("rescale_among_contractions", Circuit(4, lead + body + tuple(h(q) for q in range(4)) + (cx(1, 0), x(2)))))
    return [(name, adjoint(c)) for name, c in cases]


def _plan_cases() -> list:
    """Seeded circuits over all 12 kinds that stress the fused plan's edge cases."""
    rng = np.random.default_rng(2024)
    cases = []
    for width in range(1, 10):
        cases.append(random_circuit(width, int(rng.integers(0, 50)), rng, GATE_KINDS))
        cases.append(random_circuit(width, 30, rng, _NO_H))
        body = random_circuit(width, 20, rng, GATE_KINDS).gates
        ends = tuple(h(q) for q in rng.permutation(width))
        cases.append(Circuit(width, ends + body + ends))
        # H runs over every qubit, forward and back.
        layer = tuple(h(q) for q in range(width))
        mid = random_circuit(width, 10, rng, _NO_H).gates
        cases.append(Circuit(width, layer + layer[::-1] + mid + layer + mid + layer))
    # Pure H layers: butterflies on every stored bit with no gather between.
    layer = tuple(h(q) for q in range(9))
    cases.append(Circuit(9, layer + layer))
    return cases


def _untouched_case(width: int, rng: np.random.Generator) -> Circuit:
    """A monomial prefix, then gates that never mix a random set B of qubits.

    B still carries X gates, phase gates and controls after the first H,
    except on a random part of it that only X gates touch.
    """
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
    return Circuit(width, random_circuit(width, 12, rng, _NO_H).gates + first + tuple(body))


def reduced_cases() -> list:
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


BLOCK_CASES = (
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
    rng = np.random.default_rng(BLOCK_CASES.index(name) + 2200)
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


# Ways out of the deferral of a leading H layer, as (name, real): a real
# case has only real gates, so f_value runs it in float64.  RZ is never real.
DEFERRAL_CASES = [
    (name, real)
    for name in (
        "run_of_one", "run_of_many", "rz_on_deferred", "h_on_deferred", "cx_deferred_control",
        "x_on_deferred", "h_after_run", "flipped_settled_h", "pure_h_layer", "run_at_the_end",
    )
    for real in (True, False)
    if not (real and name == "rz_on_deferred")
]


def deferral_case(name: str, real: bool, w: int, rng: np.random.Generator) -> Circuit:
    """H on all but two qubits, then the gates that end the deferral by ``name``, then a tail.

    The diagonal gates fall mostly on the H targets; one on a settled qubit
    is a phase or nothing.  The tail is 3w random gates, except after a
    pure H layer and a run at the end.
    """
    diag_kinds = ("Z", "CZ", "CCZ") if real else DIAGONAL_KINDS
    qs = [int(q) for q in rng.permutation(w)]
    lead, rest = qs[:-2], qs[-2:]

    def diag(count: int) -> tuple:
        gates = []
        for kind in rng.choice(diag_kinds, size=count):
            pool = lead if rng.random() < 0.8 else qs
            qubits = rng.choice(pool, ARITY.get(str(kind), 1), replace=False)
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
    tail = random_circuit(w, 3 * w, rng, REAL_KINDS if real else GATE_KINDS).gates
    return Circuit(w, tuple(h(q) for q in lead) + body + tail)


def split_circuit(case: str) -> Circuit:
    """A circuit whose untouched qubits leave fewer than 2**n columns to run.

    "embedding": an n = 8 worst-case embedding (one column); "pair": the
    two-qubit-joint embedding of a random 8-qubit circuit; "spread":
    leading X/CX/MCX/T gates spread the inputs over qubits 0 and 1, which
    nothing after them touches, so sides of several widths run.
    """
    if case == "embedding":
        poly = random_poly(8, 24, np.random.default_rng(9))
        return build_worst_case_embedding(compile_iqp_from_poly(poly))
    if case == "pair":
        return build_postselection_pair(random_circuit(8, 60, np.random.default_rng(9), GATE_KINDS))[1]
    rng = np.random.default_rng(6)
    lead = random_circuit(10, 16, rng, ("X", "CX", "MCX", "T")).gates
    body = Circuit(8, (h(0),) + random_circuit(8, 60, rng, GATE_KINDS).gates)
    return Circuit(10, lead + shift_qubits(body, 2, 10).gates)


def _real_cases() -> list:
    """Circuits of real gates, which f_value runs in float64, at every stride of a settled qubit.

    The first kind ends in gates above its lowest three qubits, which the
    pass of the adjoint runs first: while the lowest three stay settled,
    its views have the 64-byte float64 stride of stored bit 3.  The second
    ends, in the adjoint's pass, in H and X on qubit 0, which nothing mixes
    before: gates on qubits 1..w-1-j alone leave the lowest j settled, so
    the contraction that reads qubit 0 sees a last axis of 8 * 2**j bytes.
    """
    rng = np.random.default_rng(980)
    cases = []
    for w in range(4, 11):
        gates = random_circuit(w, int(rng.integers(0, 3 * w)), rng, REAL_KINDS).gates
        high = random_circuit(w - 3, int(rng.integers(1, 3 * w)), rng, REAL_KINDS).gates
        cases.append((f"high_w{w}", Circuit(w, gates + high)))
    rng = np.random.default_rng(985)
    for w in (3, 5, 8):
        for j in range(w - 1):
            body = random_circuit(w - 1 - j, int(rng.integers(1, 4 * w)), rng, REAL_KINDS)
            cases.append((f"contraction_w{w}_j{j}", Circuit(w, (x(0), h(0)) + shift_qubits(body, 1, w).gates)))
    return cases


def _cache_cases() -> list:
    """Postselection pairs, then one leading CX and one A whose qubit 0 is in F, flipped by a later X, or in D.

    Run in a row, consecutive plans share the layout cache, so any key part
    left out gives one of them another's layout: the first two differ in
    the later X gates on B alone.
    """
    rng = np.random.default_rng(77)
    circuits = []
    for _ in range(2):
        circuits.extend(build_postselection_pair(random_circuit(5, 30, rng, GATE_KINDS)))
    layer = tuple(h(q) for q in range(1, 5))
    body = (cx(1, 0), h(1), t(1)) + layer + shift_qubits(random_circuit(4, 20, rng), 1, 5).gates
    circuits.extend(Circuit(5, body + tail) for tail in ((), (x(0),), (cz(0, 1), h(1))))
    return list(enumerate(circuits))


def _random_cases() -> list:
    """Random circuits of every kind at widths 2-10, with and without a leading H layer."""
    rng = np.random.default_rng(3200)
    cases = []
    for w in range(2, 11):
        for i in range(3 if w <= 6 else 2 if w <= 8 else 1):
            c = random_circuit(w, int(rng.integers(5, 12 * w)), rng, GATE_KINDS)
            cases.append((f"w{w}_{i}", c))
        layer = tuple(h(q) for q in range(w))
        cases.append((f"w{w}_layered", Circuit(w, layer + random_circuit(w, 6 * w, rng, GATE_KINDS).gates)))
    return cases


def _embedding_cases() -> list:
    """Worst-case embeddings of IQP polynomials on 1-9 variables, and postselection pairs of widths 4-10."""
    rng = np.random.default_rng(4100)
    cases = []
    for n in range(1, 10):
        poly = random_poly(n, int(rng.integers(1, 3 * n + 1)), rng)
        cases.append((f"iqp_n{n}", build_worst_case_embedding(compile_iqp_from_poly(poly))))
    for k in range(3, 10):
        u1, u2 = build_postselection_pair(random_circuit(k, 60, rng, GATE_KINDS))
        cases += [(f"pair_u1_w{k + 1}", u1), (f"pair_u2_w{k + 1}", u2)]
    return cases


# Ensembles whose members join the corpus and whose chains verify_chain runs.
ENSEMBLES = ("random:iqp:4:3:12:5", "random:iqp:6:3:18:6", "random:htcx:4:3:20:8", "random:htcx:6:3:40:7")


def _both_ways(cases: list) -> list:
    """Each case and its adjoint, so both the single passes (which run a case's adjoint) and the plan run each."""
    return [pair for name, c in cases for pair in ((name, c), (f"{name}_adjoint", adjoint(c)))]


def _build() -> list:
    groups = [
        ("random", _random_cases()),
        ("settled", _both_ways(list(_SETTLED_CASES.items()))),
        ("run", _both_ways(_run_cases())),
        ("tail", _tail_cases()),
        ("plan", list(enumerate(_plan_cases()))),
        ("reduced", list(enumerate(reduced_cases()))),
        ("block", [(name, _block_case(name)) for name in BLOCK_CASES]),
        ("deferral", [
            (f"{name}_{'real' if real else 'complex'}_w{w}", adjoint(deferral_case(name, real, w, rng)))
            for i, (name, real) in enumerate(DEFERRAL_CASES)
            for rng in [np.random.default_rng(i + 1950)]
            for w in (5, 7)
        ]),
        ("split", [(case, split_circuit(case)) for case in ("embedding", "pair", "spread")]),
        ("real", _real_cases()),
        ("cache", _cache_cases()),
        ("embedding", _embedding_cases()),
        ("ensemble", [
            (f"{spec}:{i}", c) for spec in ENSEMBLES for i, c in enumerate(parse_ensemble_spec(spec).circuits)
        ]),
    ]
    return [(f"{group}:{name}", c) for group, cases in groups for name, c in cases]


# Every case, in the order the pinned digests hash them.
CASES = _build()
