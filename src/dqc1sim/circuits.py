"""Gate-list circuits and the compilers that turn counting objects into them.

Conventions shared by the whole package:

* Qubit 0 is the clean qubit and occupies the *most significant* bit of a
  basis-state index.  A bit string ``z`` reads left to right as qubits
  0, 1, ..., so ``int(z, 2)`` is the amplitude index of ``|z>``.
* ``RZ(theta) = diag(exp(-i*theta/2), exp(+i*theta/2))``.  Identities that
  compare raw amplitudes are built from full diagonal products, so this
  convention only has to be applied uniformly, never undone.
* ``MCX`` controls carry a polarity bit each: polarity 1 fires on ``|1>``,
  polarity 0 fires on ``|0>`` (anti-control).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = [
    "GATE_KINDS",
    "CircuitFormatError",
    "Gate",
    "Circuit",
    "PolyF2",
    "IsingInstance",
    "h",
    "x",
    "z",
    "s",
    "sdg",
    "t",
    "tdg",
    "rz",
    "cz",
    "ccz",
    "cx",
    "mcx",
    "adjoint",
    "shift_qubits",
    "compile_iqp_from_poly",
    "compile_iqp_from_ising",
    "parse_circuit",
    "serialize_circuit",
    "load_circuit",
    "save_circuit",
    "parse_poly",
    "load_poly",
    "parse_ising",
    "load_ising",
]

GATE_KINDS = ("H", "X", "Z", "S", "SDG", "T", "TDG", "RZ", "CZ", "CCZ", "CX", "MCX")

_TARGET_COUNT = {
    "H": 1, "X": 1, "Z": 1, "S": 1, "SDG": 1, "T": 1, "TDG": 1,
    "RZ": 1, "CZ": 2, "CCZ": 3, "CX": 1, "MCX": 1,
}
_SELF_INVERSE = frozenset({"H", "X", "Z", "CZ", "CCZ", "CX", "MCX"})
_INVERSE_KIND = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}


class CircuitFormatError(ValueError):
    """Malformed circuit, polynomial, or Ising model text."""


@dataclass(frozen=True)
class Gate:
    """A single gate: kind plus wires.

    ``controls`` is populated only for CX (exactly one control, implicit
    polarity 1) and MCX (one polarity bit per control).  ``theta`` is
    populated only for RZ.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarities: tuple[int, ...] = ()
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TARGET_COUNT:
            msg = f"unknown gate kind {self.kind!r}"
            raise ValueError(msg)
        object.__setattr__(self, "targets", _wire_tuple(self.targets, "target"))
        object.__setattr__(self, "controls", _wire_tuple(self.controls, "control"))
        object.__setattr__(self, "polarities", tuple(self.polarities))
        if len(self.targets) != _TARGET_COUNT[self.kind]:
            msg = (
                f"{self.kind} takes {_TARGET_COUNT[self.kind]} target(s), "
                f"got {len(self.targets)}"
            )
            raise ValueError(msg)
        if self.kind == "CX":
            if len(self.controls) != 1:
                msg = "CX takes exactly one control"
                raise ValueError(msg)
        elif self.kind == "MCX":
            if not self.controls:
                msg = "MCX needs at least one control"
                raise ValueError(msg)
        elif self.controls:
            msg = f"{self.kind} takes no controls"
            raise ValueError(msg)
        if self.kind == "MCX":
            if len(self.polarities) != len(self.controls):
                msg = "MCX needs exactly one polarity bit per control"
                raise ValueError(msg)
            if any(b not in (0, 1) for b in self.polarities):
                msg = "MCX polarities must be 0 or 1"
                raise ValueError(msg)
        elif self.polarities:
            msg = f"{self.kind} takes no polarities"
            raise ValueError(msg)
        if self.kind == "RZ":
            if self.theta is None:
                msg = "RZ needs an angle"
                raise ValueError(msg)
            object.__setattr__(self, "theta", float(self.theta))
        elif self.theta is not None:
            msg = f"{self.kind} takes no angle"
            raise ValueError(msg)
        wires = self.targets + self.controls
        if len(set(wires)) != len(wires):
            msg = f"{self.kind} wires must be distinct, got {wires}"
            raise ValueError(msg)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


def _wire_tuple(wires, role: str) -> tuple[int, ...]:
    out = []
    for q in wires:
        qi = int(q)
        if qi != q or qi < 0:
            msg = f"{role} index must be a nonnegative integer, got {q!r}"
            raise ValueError(msg)
        out.append(qi)
    return tuple(out)


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def sdg(q: int) -> Gate:
    return Gate("SDG", (q,))


def t(q: int) -> Gate:
    return Gate("T", (q,))


def tdg(q: int) -> Gate:
    return Gate("TDG", (q,))


def rz(theta: float, q: int) -> Gate:
    return Gate("RZ", (q,), theta=theta)


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


def ccz(a: int, b: int, c: int) -> Gate:
    return Gate("CCZ", (a, b, c))


def cx(control: int, target: int) -> Gate:
    return Gate("CX", (target,), (control,))


def mcx(target: int, controls, polarities=None) -> Gate:
    controls = tuple(controls)
    if polarities is None:
        polarities = (1,) * len(controls)
    return Gate("MCX", (target,), controls, tuple(polarities))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``width`` qubits, applied left to right."""

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if int(self.width) != self.width or self.width < 1:
            msg = f"width must be a positive integer, got {self.width!r}"
            raise ValueError(msg)
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, g in enumerate(self.gates):
            if not isinstance(g, Gate):
                msg = f"gate {i} is not a Gate: {g!r}"
                raise ValueError(msg)
            bad = [q for q in g.qubits if q >= self.width]
            if bad:
                msg = f"gate {i} ({g.kind}) uses qubit {bad[0]} on a {self.width}-qubit circuit"
                raise ValueError(msg)

    def __len__(self) -> int:
        return len(self.gates)


def adjoint(c: Circuit) -> Circuit:
    """Inverse circuit: reverse the gate order and invert each gate.

    Gate-for-gate involution: S and T swap with their dedicated inverse
    kinds SDG/TDG, RZ negates its angle, everything else is self-inverse.
    """
    out = []
    for g in reversed(c.gates):
        if g.kind in _SELF_INVERSE:
            out.append(g)
        elif g.kind in _INVERSE_KIND:
            out.append(replace(g, kind=_INVERSE_KIND[g.kind]))
        else:  # RZ
            out.append(replace(g, theta=-g.theta))
    return Circuit(c.width, tuple(out))


def shift_qubits(c: Circuit, offset: int, width: int) -> Circuit:
    """The same gate list with every wire moved up by ``offset`` on a wider register."""
    if offset < 0 or width < c.width + offset:
        msg = f"cannot shift a {c.width}-qubit circuit by {offset} into width {width}"
        raise ValueError(msg)
    gates = [
        replace(
            g,
            targets=tuple(q + offset for q in g.targets),
            controls=tuple(q + offset for q in g.controls),
        )
        for g in c.gates
    ]
    return Circuit(width, tuple(gates))


@dataclass(frozen=True)
class PolyF2:
    """A polynomial over GF(2) of degree at most 3, as a monomial set.

    There is no constant term: it would only flip the sign of every
    summand of the gap at once, so it stays unrepresentable.  Monomials
    are strictly increasing index tuples; the outer tuple is kept sorted
    so equal polynomials compare equal.
    """

    n_vars: int
    monomials: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if int(self.n_vars) != self.n_vars or self.n_vars < 1:
            msg = f"n_vars must be a positive integer, got {self.n_vars!r}"
            raise ValueError(msg)
        object.__setattr__(self, "n_vars", int(self.n_vars))
        monos = []
        for m in self.monomials:
            mt = tuple(int(v) for v in m)
            if not 1 <= len(mt) <= 3:
                msg = f"monomial {mt} has size {len(mt)}, only sizes 1..3 are allowed"
                raise ValueError(msg)
            if any(mt[i] >= mt[i + 1] for i in range(len(mt) - 1)):
                msg = f"monomial {mt} must be strictly increasing"
                raise ValueError(msg)
            if mt[0] < 0 or mt[-1] >= self.n_vars:
                msg = f"monomial {mt} uses a variable outside 0..{self.n_vars - 1}"
                raise ValueError(msg)
            monos.append(mt)
        if len(set(monos)) != len(monos):
            msg = "duplicate monomials"
            raise ValueError(msg)
        object.__setattr__(self, "monomials", tuple(sorted(monos)))


@dataclass(frozen=True)
class IsingInstance:
    """Pairwise couplings and local fields for spins s_j in {+1, -1}.

    ``couplings`` holds (j, k, theta) with j < k (pairs are unordered and
    normalized on construction); ``fields`` holds (j, theta).
    """

    n_spins: int
    couplings: tuple[tuple[int, int, float], ...] = ()
    fields: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if int(self.n_spins) != self.n_spins or self.n_spins < 1:
            msg = f"n_spins must be a positive integer, got {self.n_spins!r}"
            raise ValueError(msg)
        object.__setattr__(self, "n_spins", int(self.n_spins))

        raw = self.couplings.items() if isinstance(self.couplings, dict) else self.couplings
        pairs = []
        for entry in raw:
            if isinstance(self.couplings, dict):
                (j, k), theta = entry
            else:
                j, k, theta = entry
            j, k = int(j), int(k)
            if j == k:
                msg = f"self-coupling on spin {j}"
                raise ValueError(msg)
            if j > k:
                j, k = k, j
            if j < 0 or k >= self.n_spins:
                msg = f"coupling ({j}, {k}) outside 0..{self.n_spins - 1}"
                raise ValueError(msg)
            pairs.append((j, k, float(theta)))
        if len({(j, k) for j, k, _ in pairs}) != len(pairs):
            msg = "duplicate coupling pair"
            raise ValueError(msg)
        object.__setattr__(self, "couplings", tuple(sorted(pairs)))

        raw = self.fields.items() if isinstance(self.fields, dict) else self.fields
        sites = []
        for entry in raw:
            j, theta = entry
            j = int(j)
            if j < 0 or j >= self.n_spins:
                msg = f"field on spin {j} outside 0..{self.n_spins - 1}"
                raise ValueError(msg)
            sites.append((j, float(theta)))
        if len({j for j, _ in sites}) != len(sites):
            msg = "duplicate field spin"
            raise ValueError(msg)
        object.__setattr__(self, "fields", tuple(sorted(sites)))


_PHASE_KIND = {1: "Z", 2: "CZ", 3: "CCZ"}


def compile_iqp_from_poly(f: PolyF2) -> Circuit:
    """Hadamard sandwich around one phase gate per monomial.

    The circuit's all-zero amplitude is the polynomial's gap divided by
    2**n_vars: the diagonal layer multiplies basis state x by (-1)**f(x),
    and the sandwich averages those signs.
    """
    n = f.n_vars
    gates = [h(q) for q in range(n)]
    gates += [Gate(_PHASE_KIND[len(m)], m) for m in f.monomials]
    gates += [h(q) for q in range(n)]
    return Circuit(n, tuple(gates))


def compile_iqp_from_ising(m: IsingInstance) -> Circuit:
    """Hadamard sandwich realizing exp(i * energy(s)) on every spin string.

    exp(i*theta*Z_j*Z_k) is CX . RZ(-2*theta) . CX and exp(i*theta*Z_j) is
    RZ(-2*theta); both are exact under the RZ convention in the module
    docstring, with no leftover global phase.  The all-zero amplitude is
    then the imaginary-temperature partition sum divided by 2**n_spins.
    """
    n = m.n_spins
    gates = [h(q) for q in range(n)]
    for j, k, theta in m.couplings:
        gates += [cx(j, k), rz(-2.0 * theta, k), cx(j, k)]
    for j, theta in m.fields:
        gates.append(rz(-2.0 * theta, j))
    gates += [h(q) for q in range(n)]
    return Circuit(n, tuple(gates))


# --- JSON wire formats ------------------------------------------------------
#
# circuit:    {"qubits": m, "gates": [{"g": KIND, "t": [...], "c": [...]?,
#                                      "pol": [...]?, "theta": radians?}]}
# polynomial: {"n": n, "monomials": [[0], [1, 2], [0, 1, 2]]}
# ising:      {"n": n, "couplings": [[j, k, theta]], "fields": [[j, theta]]}


def _loads(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        msg = f"{what}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        raise CircuitFormatError(msg) from None
    if not isinstance(obj, dict):
        msg = f"{what}: top level must be a JSON object"
        raise CircuitFormatError(msg)
    return obj


def _require(obj: dict, key: str, what: str):
    if key not in obj:
        msg = f"{what}: missing field {key!r}"
        raise CircuitFormatError(msg)
    return obj[key]


def _no_extra_fields(obj: dict, allowed: set[str], what: str) -> None:
    extra = set(obj) - allowed
    if extra:
        msg = f"{what}: unexpected field {sorted(extra)[0]!r}"
        raise CircuitFormatError(msg)


def _is_int(value) -> bool:
    """JSON integer; booleans are ints to Python but not to the formats."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """JSON number that is a finite float; the bound rejects NaN, infinities and huge ints."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(v) for v in value):
        msg = f"{where}: expected a list of integers, got {value!r}"
        raise CircuitFormatError(msg)
    return value


_GATE_FIELDS = {"g", "t", "c", "pol", "theta"}


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit wire format; errors carry the offending gate index."""
    obj = _loads(text, "circuit")
    _no_extra_fields(obj, {"qubits", "gates"}, "circuit")
    width = _require(obj, "qubits", "circuit")
    if not _is_int(width) or width < 1:
        msg = f"circuit: 'qubits' must be a positive integer, got {width!r}"
        raise CircuitFormatError(msg)
    raw_gates = _require(obj, "gates", "circuit")
    if not isinstance(raw_gates, list):
        msg = "circuit: 'gates' must be a list"
        raise CircuitFormatError(msg)
    gates = []
    for i, entry in enumerate(raw_gates):
        where = f"gate {i}"
        if not isinstance(entry, dict):
            msg = f"{where}: expected an object, got {entry!r}"
            raise CircuitFormatError(msg)
        _no_extra_fields(entry, _GATE_FIELDS, where)
        kind = _require(entry, "g", where)
        if not isinstance(kind, str):
            msg = f"{where}: 'g' must be a gate name, got {kind!r}"
            raise CircuitFormatError(msg)
        targets = _int_list(_require(entry, "t", where), f"{where} field 't'")
        controls = _int_list(entry.get("c", []), f"{where} field 'c'")
        pol = entry.get("pol")
        theta = entry.get("theta")
        if theta is not None and not _is_finite(theta):
            msg = f"{where}: 'theta' must be a finite number, got {theta!r}"
            raise CircuitFormatError(msg)
        if pol is not None:
            pol = _int_list(pol, f"{where} field 'pol'")
        elif kind == "MCX":
            pol = [1] * len(controls)
        try:
            g = Gate(kind, tuple(targets), tuple(controls), tuple(pol or ()), theta)
        except ValueError as e:
            msg = f"{where}: {e}"
            raise CircuitFormatError(msg) from None
        bad = [q for q in g.qubits if q >= width]
        if bad:
            msg = f"{where}: qubit {bad[0]} out of range on {width} qubits"
            raise CircuitFormatError(msg)
        gates.append(g)
    return Circuit(width, tuple(gates))


def serialize_circuit(c: Circuit) -> str:
    """Canonical single-line JSON; parse followed by serialize is idempotent."""
    gates = []
    for g in c.gates:
        d: dict = {"g": g.kind, "t": list(g.targets)}
        if g.controls:
            d["c"] = list(g.controls)
        if g.kind == "MCX":
            d["pol"] = list(g.polarities)
        if g.theta is not None:
            d["theta"] = g.theta
        gates.append(d)
    return json.dumps({"qubits": c.width, "gates": gates}, separators=(",", ":"))


def load_circuit(path) -> Circuit:
    return parse_circuit(Path(path).read_text())


def save_circuit(c: Circuit, path) -> None:
    Path(path).write_text(serialize_circuit(c) + "\n")


def _positive_n(obj: dict, what: str) -> int:
    n = _require(obj, "n", what)
    if not _is_int(n) or n < 1:
        msg = f"{what}: 'n' must be a positive integer, got {n!r}"
        raise CircuitFormatError(msg)
    return n


def parse_poly(text: str) -> PolyF2:
    obj = _loads(text, "polynomial")
    _no_extra_fields(obj, {"n", "monomials"}, "polynomial")
    n = _positive_n(obj, "polynomial")
    monomials = _require(obj, "monomials", "polynomial")
    if not isinstance(monomials, list):
        msg = "polynomial: 'monomials' must be a list"
        raise CircuitFormatError(msg)
    monos = [_int_list(m, f"monomial {i}") for i, m in enumerate(monomials)]
    try:
        return PolyF2(n, tuple(tuple(m) for m in monos))
    except ValueError as e:
        msg = f"polynomial: {e}"
        raise CircuitFormatError(msg) from None


def load_poly(path) -> PolyF2:
    return parse_poly(Path(path).read_text())


def parse_ising(text: str) -> IsingInstance:
    obj = _loads(text, "ising")
    _no_extra_fields(obj, {"n", "couplings", "fields"}, "ising")
    n = _positive_n(obj, "ising")
    couplings = obj.get("couplings", [])
    fields = obj.get("fields", [])
    if not isinstance(couplings, list) or not isinstance(fields, list):
        msg = "ising: 'couplings' and 'fields' must be lists"
        raise CircuitFormatError(msg)
    for name, entries, shape, size in (
        ("coupling", couplings, "[j, k, theta]", 3),
        ("field", fields, "[j, theta]", 2),
    ):
        for i, entry in enumerate(entries):
            where = f"ising: {name} {i}"
            if not isinstance(entry, list) or len(entry) != size:
                msg = f"{where} must be {shape}, got {entry!r}"
                raise CircuitFormatError(msg)
            if not all(_is_int(j) for j in entry[:-1]):
                msg = f"{where}: spins must be integers, got {entry[:-1]!r}"
                raise CircuitFormatError(msg)
            if not _is_finite(entry[-1]):
                msg = f"{where}: theta must be a finite number, got {entry[-1]!r}"
                raise CircuitFormatError(msg)
    try:
        return IsingInstance(
            n,
            tuple((j, k, theta) for j, k, theta in couplings),
            tuple((j, theta) for j, theta in fields),
        )
    except ValueError as e:
        msg = f"ising: {e}"
        raise CircuitFormatError(msg) from None


def load_ising(path) -> IsingInstance:
    return parse_ising(Path(path).read_text())
