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
import math
import numbers
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class Gate:
    """A single gate: kind plus wires.

    ``controls`` is populated only for CX (exactly one control, implicit
    polarity 1) and MCX (one polarity bit per control).  ``theta`` is
    populated only for RZ.  Construction states every rule of a gate: a
    known kind, lists or tuples of integer wires and polarity bits (stored as
    tuples of int), the wire counts, distinct wires and a finite angle.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarities: tuple[int, ...] = ()
    theta: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _TARGET_COUNT:
            msg = f"unknown gate kind {self.kind!r}"
            raise ValueError(msg)
        for field, item in (("targets", "target index"), ("controls", "control index"), ("polarities", "polarity")):
            value = _listed(getattr(self, field), field, "integers")
            object.__setattr__(self, field, tuple([_int_at_least(q, item, 0) for q in value]))
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
            if max(self.polarities) > 1:
                msg = "MCX polarities must be 0 or 1"
                raise ValueError(msg)
        elif self.polarities:
            msg = f"{self.kind} takes no polarities"
            raise ValueError(msg)
        if self.kind == "RZ":
            if self.theta is None:
                msg = "RZ needs an angle"
                raise ValueError(msg)
            object.__setattr__(self, "theta", _finite(self.theta, "'theta'"))
        elif self.theta is not None:
            msg = f"{self.kind} takes no angle"
            raise ValueError(msg)
        wires = self.qubits
        if len(set(wires)) != len(wires):
            msg = f"{self.kind} wires must be distinct, got {wires}"
            raise ValueError(msg)

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls


# Gate's slot setters set a field without the frozen __setattr__, at half
# the cost of object.__setattr__.  Slots, not an instance dict written
# directly, because reads from such a dict are 4x slower in CPython 3.11.
_set_kind, _set_targets, _set_controls, _set_polarities, _set_theta = (
    getattr(Gate, name).__set__ for name in Gate.__slots__
)


def _checked_gate(kind: str, targets, controls, polarities, theta) -> Gate:
    """The Gate of fields that already passed Gate's checks, without checking them again."""
    g = object.__new__(Gate)
    _set_kind(g, kind)
    _set_targets(g, targets)
    _set_controls(g, controls)
    _set_polarities(g, polarities)
    _set_theta(g, theta)
    return g


def _listed(value, field: str, items: str) -> tuple:
    """value as a tuple; a one-line ValueError naming ``field`` unless it is a list or a tuple."""
    if not isinstance(value, (list, tuple)):
        msg = f"{field} must be a list of {items}, got {value!r}"
        raise ValueError(msg)
    return tuple(value)


def _int_at_least(value, field: str, low: int) -> int:
    """value as an int; a one-line ValueError naming ``field`` unless it is an integer >= ``low`` (0 or 1)."""
    if not (type(value) is int or _is_int(value)) or value < low:  # plain ints skip the call
        msg = f"{field} must be a {'positive' if low else 'nonnegative'} integer, got {value!r}"
        raise ValueError(msg)
    return int(value)


def _is_int(value) -> bool:
    """An integer (Python or numpy) that is not a boolean."""
    if type(value) is int:  # the common case, without the slow ABC check
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value, field: str) -> float:
    """value as a float; a one-line ValueError naming ``field`` unless it is a finite real number.

    Booleans, NaN, infinities and integers beyond float range are rejected.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    msg = f"{field} must be a finite number, got {value!r}"
    raise ValueError(msg)


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
    controls = _listed(controls, "controls", "integers")
    return Gate("MCX", (target,), controls, (1,) * len(controls) if polarities is None else polarities)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``width`` qubits, applied left to right.

    Construction is the package's one wire-range check; ``parse_circuit``
    relies on it too.
    """

    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        width = _int_at_least(self.width, "width", 1)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "gates", _listed(self.gates, "gates", "Gates"))
        for i, g in enumerate(self.gates):
            if not isinstance(g, Gate):
                msg = f"gate {i} is not a Gate: {g!r}"
                raise ValueError(msg)
            if max(g.qubits) >= width:
                bad = next(q for q in g.qubits if q >= width)
                msg = f"gate {i} ({g.kind}) uses qubit {bad} on a {width}-qubit circuit"
                raise ValueError(msg)


def _checked_circuit(width: int, gates: tuple) -> Circuit:
    """The Circuit of fields that already passed Circuit's checks, without checking them again."""
    c = object.__new__(Circuit)
    object.__setattr__(c, "width", width)
    object.__setattr__(c, "gates", gates)
    return c


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
            out.append(_checked_gate(_INVERSE_KIND[g.kind], g.targets, g.controls, g.polarities, None))
        else:  # RZ
            out.append(_checked_gate("RZ", g.targets, g.controls, g.polarities, -g.theta))
    return _checked_circuit(c.width, tuple(out))


def shift_qubits(c: Circuit, offset: int, width: int) -> Circuit:
    """The same gate list with every wire moved up by ``offset`` on a wider register."""
    width = _int_at_least(width, "width", 1)
    if not _is_int(offset) or offset < 0 or width < c.width + offset:
        msg = f"cannot shift a {c.width}-qubit circuit by {offset} into width {width}"
        raise ValueError(msg)
    offset = int(offset)
    # Tuples of lists build faster than tuples of generators; most gates have no controls.
    gates = [
        _checked_gate(
            g.kind,
            tuple([q + offset for q in g.targets]),
            tuple([q + offset for q in g.controls]) if g.controls else (),
            g.polarities,
            g.theta,
        )
        for g in c.gates
    ]
    return _checked_circuit(width, tuple(gates))


@dataclass(frozen=True)
class PolyF2:
    """A polynomial over GF(2) of degree at most 3, as a monomial set.

    There is no constant term: it would only flip the sign of every
    summand of the gap at once, so it stays unrepresentable.  Monomials
    are given as lists or tuples, in a list or a tuple, and stored as
    strictly increasing index tuples; the outer tuple is kept sorted so
    equal polynomials compare equal.
    """

    n_vars: int
    monomials: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_vars", _int_at_least(self.n_vars, "n_vars", 1))
        monos = []
        for i, m in enumerate(_listed(self.monomials, "monomials", "monomials")):
            if not isinstance(m, (list, tuple)):
                msg = f"monomial {i} must be a list of integers, got {m!r}"
                raise ValueError(msg)
            if not all(_is_int(v) for v in m):
                msg = f"monomial {i}: variables must be integers, got {m!r}"
                raise ValueError(msg)
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
    normalized on construction); ``fields`` holds (j, theta).  Each is
    given as a list or a tuple of entries, and each entry as a list or a
    tuple of that shape.
    """

    n_spins: int
    couplings: tuple[tuple[int, int, float], ...] = ()
    fields: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_spins", _int_at_least(self.n_spins, "n_spins", 1))

        pairs = []
        for i, entry in enumerate(_listed(self.couplings, "couplings", "[j, k, theta] entries")):
            j, k, angle = self._entry(f"coupling {i}", entry, "[j, k, theta]")
            if j == k:
                msg = f"coupling {i}: self-coupling on spin {j}"
                raise ValueError(msg)
            if j > k:
                j, k = k, j
            if j < 0 or k >= self.n_spins:
                msg = f"coupling {i}: ({j}, {k}) outside 0..{self.n_spins - 1}"
                raise ValueError(msg)
            pairs.append((j, k, angle))
        if len({(j, k) for j, k, _ in pairs}) != len(pairs):
            msg = "duplicate coupling pair"
            raise ValueError(msg)
        object.__setattr__(self, "couplings", tuple(sorted(pairs)))

        sites = []
        for i, entry in enumerate(_listed(self.fields, "fields", "[j, theta] entries")):
            j, angle = self._entry(f"field {i}", entry, "[j, theta]")
            if j < 0 or j >= self.n_spins:
                msg = f"field {i}: spin {j} outside 0..{self.n_spins - 1}"
                raise ValueError(msg)
            sites.append((j, angle))
        if len({j for j, _ in sites}) != len(sites):
            msg = "duplicate field spin"
            raise ValueError(msg)
        object.__setattr__(self, "fields", tuple(sorted(sites)))

    @staticmethod
    def _entry(where: str, entry, shape: str) -> tuple:
        """``entry`` of the form ``shape`` as int spins and a finite float; ValueError naming ``where``."""
        if not isinstance(entry, (list, tuple)) or len(entry) != shape.count(",") + 1:
            msg = f"{where} must be {shape}, got {entry!r}"
            raise ValueError(msg)
        *spins, theta = entry
        if not all(_is_int(j) for j in spins):
            msg = f"{where}: spins must be integers, got {spins!r}"
            raise ValueError(msg)
        return (*(int(j) for j in spins), _finite(theta, f"{where}: theta"))


def _checked_poly(n_vars: int, monomials: tuple) -> PolyF2:
    """The PolyF2 of fields that already passed PolyF2's checks, without checking them again.

    ``monomials`` must be sorted, as PolyF2 keeps them.
    """
    f = object.__new__(PolyF2)
    object.__setattr__(f, "n_vars", n_vars)
    object.__setattr__(f, "monomials", monomials)
    return f


_PHASE_KIND = {1: "Z", 2: "CZ", 3: "CCZ"}


def compile_iqp_from_poly(f: PolyF2) -> Circuit:
    """Hadamard sandwich around one phase gate per monomial.

    The circuit's all-zero amplitude is the polynomial's gap divided by
    2**n_vars: the diagonal layer multiplies basis state x by (-1)**f(x),
    and the sandwich averages those signs.
    """
    n = f.n_vars
    # PolyF2 already checked n_vars and each monomial: distinct in-range integer wires.
    layer = tuple(_checked_gate("H", (q,), (), (), None) for q in range(n))
    phases = tuple(_checked_gate(_PHASE_KIND[len(m)], m, (), (), None) for m in f.monomials)
    return _checked_circuit(n, layer + phases + layer)


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
#
# A parser checks JSON structure only: valid JSON, a top-level object, known
# and required fields, and the lists it walks.  Every other rule (gate kinds,
# entry shapes, integers, ranges) is the constructor's, and ``_built`` puts
# where the document failed in front of the constructor's message.


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


def _positive(obj: dict, key: str, what: str) -> int:
    """The required field ``key`` as a positive integer."""
    return _built(what, _int_at_least, _require(obj, key, what), repr(key), 1)


def _built(where: str, make, *args):
    """``make(*args)``, whose ValueError becomes a CircuitFormatError prefixed with ``where``."""
    try:
        return make(*args)
    except ValueError as e:
        msg = f"{where}: {e}"
        raise CircuitFormatError(msg) from None


_GATE_FIELDS = {"g", "t", "c", "pol", "theta"}


def parse_circuit(text: str) -> Circuit:
    """Parse the circuit wire format; errors carry the offending gate index."""
    obj = _loads(text, "circuit")
    _no_extra_fields(obj, {"qubits", "gates"}, "circuit")
    width = _positive(obj, "qubits", "circuit")
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
        targets = _require(entry, "t", where)
        controls = entry.get("c", [])
        pol = entry.get("pol")
        if pol is None:  # an MCX without 'pol' fires on |1> at each control
            pol = [1] * len(controls) if kind == "MCX" and isinstance(controls, list) else []
        gates.append(_built(where, Gate, kind, targets, controls, pol, entry.get("theta")))
    return _built("circuit", Circuit, width, gates)


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


def parse_poly(text: str) -> PolyF2:
    obj = _loads(text, "polynomial")
    _no_extra_fields(obj, {"n", "monomials"}, "polynomial")
    n = _positive(obj, "n", "polynomial")
    monomials = _require(obj, "monomials", "polynomial")
    if not isinstance(monomials, list):
        msg = "polynomial: 'monomials' must be a list"
        raise CircuitFormatError(msg)
    return _built("polynomial", PolyF2, n, monomials)


def load_poly(path) -> PolyF2:
    return parse_poly(Path(path).read_text())


def parse_ising(text: str) -> IsingInstance:
    obj = _loads(text, "ising")
    _no_extra_fields(obj, {"n", "couplings", "fields"}, "ising")
    n = _positive(obj, "n", "ising")
    couplings = obj.get("couplings", [])
    fields = obj.get("fields", [])
    if not isinstance(couplings, list) or not isinstance(fields, list):
        msg = "ising: 'couplings' and 'fields' must be lists"
        raise CircuitFormatError(msg)
    return _built("ising", IsingInstance, n, couplings, fields)


def load_ising(path) -> IsingInstance:
    return parse_ising(Path(path).read_text())
