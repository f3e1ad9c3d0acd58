"""Random circuit families and the textual SPEC grammar the CLI consumes.

Ensemble SPEC grammar:

    random:<kind>:<n>:<count>:<depth>:<seed>
    dir:<path>

Kinds: ``iqp`` wraps random degree-<=3 phase polynomials in the worst-case
embedding (depth = monomial count); ``htcx`` draws depth gates uniformly
from {H, T, CX} on n+1 qubits.  ``dir`` loads every ``*.json`` circuit in
the directory in name order; all files must share one width.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import numpy as np

from .circuits import Circuit, Gate, PolyF2, compile_iqp_from_poly, load_circuit
from .hardness import Ensemble, build_worst_case_embedding
from .simulator import DEFAULT_MAX_MIXED_QUBITS

__all__ = [
    "random_poly",
    "random_circuit",
    "random_iqp_ensemble",
    "random_htcx_ensemble",
    "load_ensemble_dir",
    "parse_ensemble_spec",
    "ENSEMBLE_SPEC_HELP",
]

ENSEMBLE_SPEC_HELP = (
    "random:<kind>:<n>:<count>:<depth>:<seed> with kind iqp|htcx, or dir:<path>"
)

_FULL_GATE_SET = ("H", "X", "Z", "S", "T", "RZ", "CZ", "CCZ", "CX", "MCX")


def random_poly(n_vars: int, n_monomials: int, rng: np.random.Generator) -> PolyF2:
    """Uniformly chosen distinct monomials of sizes 1..3 on n_vars variables."""
    pool = [
        m
        for size in (1, 2, 3)
        for m in combinations(range(n_vars), size)
    ]
    k = min(n_monomials, len(pool))
    picks = rng.choice(len(pool), size=k, replace=False)
    return PolyF2(n_vars, tuple(pool[i] for i in sorted(picks)))


def _random_gate(width: int, kind: str, rng: np.random.Generator) -> Gate:
    if kind in ("H", "X", "Z", "S", "SDG", "T", "TDG"):
        return Gate(kind, (int(rng.integers(width)),))
    if kind == "RZ":
        return Gate("RZ", (int(rng.integers(width)),), theta=float(rng.uniform(0, 2 * np.pi)))
    if kind == "CZ":
        a, b = rng.choice(width, size=2, replace=False)
        return Gate("CZ", (int(a), int(b)))
    if kind == "CCZ":
        a, b, c = rng.choice(width, size=3, replace=False)
        return Gate("CCZ", (int(a), int(b), int(c)))
    if kind == "CX":
        a, b = rng.choice(width, size=2, replace=False)
        return Gate("CX", (int(b),), (int(a),))
    # MCX with 1..min(3, width-1) controls and random polarities.
    k = int(rng.integers(1, min(3, width - 1) + 1))
    wires = rng.choice(width, size=k + 1, replace=False)
    pols = tuple(int(b) for b in rng.integers(0, 2, size=k))
    return Gate("MCX", (int(wires[0]),), tuple(int(q) for q in wires[1:]), pols)


_MIN_WIDTH = {"CZ": 2, "CX": 2, "MCX": 2, "CCZ": 3}


def random_circuit(
    width: int,
    n_gates: int,
    rng: np.random.Generator,
    gate_set: tuple[str, ...] = _FULL_GATE_SET,
) -> Circuit:
    """n_gates draws with uniformly random kinds and wires."""
    usable = tuple(k for k in gate_set if _MIN_WIDTH.get(k, 1) <= width)
    if not usable:
        msg = f"no gate in {gate_set} fits on {width} qubit(s)"
        raise ValueError(msg)
    kinds = [usable[int(i)] for i in rng.integers(len(usable), size=n_gates)]
    return Circuit(width, tuple(_random_gate(width, k, rng) for k in kinds))


def random_iqp_ensemble(n: int, count: int, depth: int, seed: int) -> Ensemble:
    """Worst-case embeddings of ``count`` random phase polynomials on n variables."""
    rng = np.random.default_rng(seed)
    circuits = []
    for _ in range(count):
        poly = random_poly(n, depth, rng)
        circuits.append(build_worst_case_embedding(compile_iqp_from_poly(poly)))
    return Ensemble(n, tuple(circuits))


def random_htcx_ensemble(n: int, count: int, depth: int, seed: int) -> Ensemble:
    """``count`` random {H, T, CX} circuits of ``depth`` gates on n+1 qubits."""
    rng = np.random.default_rng(seed)
    circuits = [
        random_circuit(n + 1, depth, rng, gate_set=("H", "T", "CX")) for _ in range(count)
    ]
    return Ensemble(n, tuple(circuits))


def load_ensemble_dir(path) -> Ensemble:
    """Every *.json under path, in name order, as one fixed-width ensemble."""
    root = Path(path)
    if not root.is_dir():
        msg = f"not a directory: {root}"
        raise ValueError(msg)
    files = sorted(root.glob("*.json"))
    if not files:
        msg = f"no *.json circuit files in {root}"
        raise ValueError(msg)
    circuits = [load_circuit(f) for f in files]
    width = circuits[0].width
    for f, c in zip(files, circuits):
        if c.width != width:
            msg = f"{f.name} has width {c.width}, expected {width} like {files[0].name}"
            raise ValueError(msg)
    return Ensemble(width - 1, tuple(circuits))


def parse_ensemble_spec(spec: str) -> Ensemble:
    """Build an ensemble from the SPEC grammar in the module docstring."""
    head, sep, rest = spec.partition(":")
    if head == "dir" and sep:
        return load_ensemble_dir(rest)
    if head == "random" and sep:
        parts = rest.split(":")
        if len(parts) != 5:
            msg = f"expected {ENSEMBLE_SPEC_HELP}, got {spec!r}"
            raise ValueError(msg)
        kind = parts[0]
        try:
            n, count, depth, seed = (int(p) for p in parts[1:])
        except ValueError:
            msg = f"n, count, depth, seed must be integers in {spec!r}"
            raise ValueError(msg) from None
        if n < 1 or count < 1 or depth < 0:
            msg = f"need n >= 1, count >= 1, depth >= 0 in {spec!r}"
            raise ValueError(msg)
        if n > DEFAULT_MAX_MIXED_QUBITS:
            msg = f"n={n} exceeds the cap of {DEFAULT_MAX_MIXED_QUBITS} mixed qubits in {spec!r}"
            raise ValueError(msg)
        if kind == "iqp":
            return random_iqp_ensemble(n, count, depth, seed)
        if kind == "htcx":
            return random_htcx_ensemble(n, count, depth, seed)
        msg = f"unknown ensemble kind {kind!r}; use iqp or htcx"
        raise ValueError(msg)
    msg = f"expected {ENSEMBLE_SPEC_HELP}, got {spec!r}"
    raise ValueError(msg)
