"""Dense state-vector simulation of circuits and the one-clean-qubit model.

The maximally mixed register is never materialized as a density matrix.
Every quantity is assembled from pure forward passes: the input
|0><0| (x) I/2**n is the uniform mixture of the basis states |0 x>, so the
output distribution is the average of the 2**n pure output distributions.

Two paths apply gates:

* ``dqc1_distribution`` compiles the circuit once into a plan of fused
  steps and runs it over chunks of columns (see the plan section).
* ``apply_circuit``, ``amplitude_zero`` and ``f_value`` run one column
  through ``_single_pass``: in-place kernels on basic-index views of one
  buffer, with X gates kept as bit flips instead of data moves.  A pass
  from a basis state keeps each qubit settled at a known bit until a gate
  first mixes it, and works only where the settled qubits sit at that bit,
  so gates on unmixed qubits cost little or nothing.

Index layout (see circuits module): qubit q owns bit (width-1-q) of the
amplitude index, so viewing a state as a (2,)*width array puts qubit q on
axis q.
"""

from __future__ import annotations

import bisect
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, adjoint

__all__ = [
    "StateVector",
    "Distribution",
    "apply_circuit",
    "amplitude_zero",
    "f_value",
    "dqc1_distribution",
    "sample",
    "bits_to_index",
    "index_to_bits",
    "DEFAULT_MAX_MIXED_QUBITS",
    "MAX_SINGLE_PASS_WIDTH",
]

# dqc1_distribution runs 2**n forward passes; this cap stops accidental
# exponential blowups.  Single-pass ops only pay one state vector and get a
# far looser cap.
DEFAULT_MAX_MIXED_QUBITS = 14
MAX_SINGLE_PASS_WIDTH = 26

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASE_S = 1.0j
_PHASE_T = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

# Factor on the |1> half of each single-qubit phase gate.
_SINGLE_PHASE = {
    "Z": -1.0,
    "S": _PHASE_S,
    "SDG": -_PHASE_S,
    "T": _PHASE_T,
    "TDG": _PHASE_T.conjugate(),
}
_PERMUTATION_KINDS = frozenset({"X", "CX", "MCX"})

# Entries per batch chunk (16 MiB of complex128 per buffer): large enough
# to amortize per-step dispatch.  Output bytes do not depend on it.
_CHUNK_ENTRIES = 1 << 20


def bits_to_index(zbits, width: int) -> int:
    """Index of |z> for a bit string ('010') or bit sequence, qubit 0 first."""
    if isinstance(zbits, str):
        if len(zbits) != width or any(ch not in "01" for ch in zbits):
            msg = f"need a {width}-bit string of 0/1, got {zbits!r}"
            raise ValueError(msg)
        return int(zbits, 2)
    bits = [int(b) for b in zbits]
    if len(bits) != width or any(b not in (0, 1) for b in bits):
        msg = f"need {width} bits of 0/1, got {zbits!r}"
        raise ValueError(msg)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def index_to_bits(index: int, width: int) -> str:
    """Bit string of |index> with qubit 0 as the leftmost character."""
    if not 0 <= index < (1 << width):
        msg = f"index {index} out of range for width {width}"
        raise ValueError(msg)
    return format(index, f"0{width}b")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable amplitudes over 2**width basis states.

    The constructor takes ownership of the array and marks it read-only.
    """

    width: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.width,):
            msg = f"need {1 << self.width} amplitudes for width {self.width}, got shape {amps.shape}"
            raise ValueError(msg)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, width: int) -> "StateVector":
        return cls.basis(width, 0)

    @classmethod
    def basis(cls, width: int, index_or_bits) -> "StateVector":
        idx = (
            index_or_bits
            if isinstance(index_or_bits, int)
            else bits_to_index(index_or_bits, width)
        )
        amps = np.zeros(1 << width, dtype=np.complex128)
        amps[idx] = 1.0
        return cls(width, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over the 2**(n+1) outcomes of measuring all n+1 qubits.

    Construction checks nonnegativity (to 1e-12) and normalization (to
    1e-9) only.  The per-outcome ceiling 2**-n holds for every simulator
    output and is enforced where those are produced; deliberately
    perturbed distributions may exceed it slightly.
    """

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 0:
            msg = f"n must be a nonnegative integer, got {self.n!r}"
            raise ValueError(msg)
        object.__setattr__(self, "n", int(self.n))
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (1 << (self.n + 1),):
            msg = f"need {1 << (self.n + 1)} probabilities for n={self.n}, got shape {p.shape}"
            raise ValueError(msg)
        if not p.min(initial=0.0) >= -1e-12:
            msg = f"negative or non-finite probability {p.min()}"
            raise ValueError(msg)
        total = float(p.sum())
        if not abs(total - 1.0) <= 1e-9:
            msg = f"probabilities sum to {total}, not 1"
            raise ValueError(msg)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def outcome_bits(self, index: int) -> str:
        return index_to_bits(index, self.n + 1)


# --- the single-column pass --------------------------------------------------
#
# The state lives in one buffer, seen as a (2,)*width array ``full`` so
# qubit q is axis q and every block the kernels touch is a basic-index view
# ``full[bits]``.  Nothing is reshaped after that, so no kernel copies the
# state behind the caller's back, and copies between interleaved halves go
# through ufuncs (``np.positive(lo, out=hi)``), never ``view[...] = view``.
#
# Two pieces of bookkeeping avoid sweeps of the state:
#
# * ``flip[q]``: qubit q's logical bit is its stored bit XOR flip[q], so an
#   X, and a CX/MCX whose controls are all settled (below), moves no data;
#   an H on a flipped qubit folds the flip into its butterfly.
# * ``index[q]``: 0 while qubit q is settled (not mixed yet), _LIVE after.
#   While q is settled the buffer is zero wherever q's stored bit is 1, so
#   every kernel indexes q's axis at 0 and q's logical bit is flip[q].  An H
#   makes q live by writing its stored-1 half from its stored-0 half; a
#   CX/MCX with a control on a live qubit makes its target live with no
#   write at all.  A pass from a basis state starts with every qubit
#   settled, so a leading H layer costs about one sweep in all.
#
# A diagonal gate on settled qubits becomes a scalar ``phase`` or a gate on
# fewer qubits, and a control on a settled qubit either always fires or
# never does.

# Largest temporary of a single-column kernel, in entries (256 KiB).
_TEMP_ENTRIES = 1 << 14
# How a live qubit's axis is indexed; a settled qubit's axis is indexed by 0.
_LIVE = slice(None)


def _part(full: np.ndarray, index: list, fixed: dict[int, int]) -> np.ndarray:
    """The view ``full[index]`` with qubit q's axis at stored bit fixed[q]."""
    sel = list(index)
    for q, bit in fixed.items():
        sel[q] = bit
    sel.append(...)
    return full[tuple(sel)]


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    """Exchange two disjoint equal-shape views, through at most _TEMP_ENTRIES of temporary."""
    if a.size > _TEMP_ENTRIES:
        for i in range(a.shape[0]):
            _swap(a[i], b[i])
        return
    tmp = a.copy()
    np.positive(b, out=a)
    np.positive(tmp, out=b)


def _sq_norm(v: np.ndarray) -> float:
    """Sum of |v|**2, copying at most _TEMP_ENTRIES entries of v at a time."""
    if v.size <= _TEMP_ENTRIES or v.flags.c_contiguous:
        return float(np.vdot(v, v).real)
    return _sq_norm(v[0]) + _sq_norm(v[1])


def _single_pass(width: int, gates, start):
    """Apply ``gates`` to one column; returns (full, flip, index, phase).

    ``start`` is a basis index (every qubit starts settled) or an amplitude
    array (every qubit starts live; the array is copied).  The logical state
    is ``phase`` times ``full`` with the axes q where flip[q] is 1 reversed.
    """
    if isinstance(start, np.ndarray):
        buf = np.array(start, dtype=np.complex128)
        index = [_LIVE] * width
        flip = [0] * width
    else:
        buf = np.zeros(1 << width, dtype=np.complex128)
        buf[0] = 1.0
        index = [0] * width
        flip = [(start >> (width - 1 - q)) & 1 for q in range(width)]
    full = buf.reshape((2,) * width)
    phase = complex(1.0)
    for g in gates:
        kind = g.kind
        if kind == "H":
            q = g.targets[0]
            lo = _part(full, index, {q: 0})
            hi = _part(full, index, {q: 1})
            if index[q] is not _LIVE:
                lo *= _INV_SQRT2
                (np.negative if flip[q] else np.positive)(lo, out=hi)
                index[q] = _LIVE
            elif flip[q]:
                # H X = Z H: the butterfly of the swapped halves.
                lo += hi
                lo *= _INV_SQRT2
                hi *= 2.0 * _INV_SQRT2
                hi -= lo
            else:
                # lo' = (lo + hi)/sqrt2, hi' = lo' - sqrt2*hi.
                lo += hi
                lo *= _INV_SQRT2
                hi *= -2.0 * _INV_SQRT2
                hi += lo
            flip[q] = 0
        elif kind in _PERMUTATION_KINDS:
            pols = g.polarities if kind == "MCX" else (1,) * len(g.controls)
            fixed = {}
            for c, pol in zip(g.controls, pols):
                if index[c] is _LIVE:
                    fixed[c] = pol ^ flip[c]
                elif flip[c] != pol:
                    break  # a settled control that never fires
            else:
                t = g.targets[0]
                if not fixed:
                    flip[t] ^= 1
                    continue
                index[t] = _LIVE  # its stored-1 half is still zero
                a = _part(full, index, {**fixed, t: 0})
                b = _part(full, index, {**fixed, t: 1})
                _swap(a, b)
        else:
            # A factor on the block where every target's logical bit is 1;
            # RZ(theta) is exp(-i theta/2) times the factor exp(i theta).
            if kind == "RZ":
                phase *= complex(math.cos(0.5 * g.theta), -math.sin(0.5 * g.theta))
                factor = complex(math.cos(g.theta), math.sin(g.theta))
            else:
                factor = _SINGLE_PHASE.get(kind, -1.0)  # CZ and CCZ flip the sign
            fixed = {}
            for q in g.targets:
                if index[q] is _LIVE:
                    fixed[q] = 1 ^ flip[q]
                elif not flip[q]:
                    break  # a settled target at 0: the factor never applies
            else:
                if fixed:
                    blk = _part(full, index, fixed)
                    blk *= factor
                else:
                    phase *= factor
    return full, flip, index, phase


def _check_width(width: int) -> None:
    if width > MAX_SINGLE_PASS_WIDTH:
        msg = f"{width} qubits exceeds the single-pass cap of {MAX_SINGLE_PASS_WIDTH}"
        raise ValueError(msg)


def apply_circuit(psi: StateVector, c: Circuit) -> StateVector:
    """Pure function: returns the circuit applied to psi, inputs untouched."""
    if psi.width != c.width:
        msg = f"state width {psi.width} != circuit width {c.width}"
        raise ValueError(msg)
    _check_width(c.width)
    full, flip, _, phase = _single_pass(c.width, c.gates, psi.amplitudes)
    axes = tuple(q for q in range(c.width) if flip[q])
    if axes or phase != 1.0:
        out = np.empty(1 << c.width, dtype=np.complex128)
        np.multiply(np.flip(full, axes), phase, out=out.reshape(full.shape))
        return StateVector(c.width, out)
    return StateVector(c.width, full.reshape(-1))


def amplitude_zero(c: Circuit) -> complex:
    """<0...0| C |0...0>: first amplitude of the circuit applied to the zero state."""
    _check_width(c.width)
    full, flip, _, phase = _single_pass(c.width, c.gates, 0)
    return phase * complex(full[tuple(flip)])


def f_value(u: Circuit, zbits) -> float:
    """Probability weight 2**n * p_z: squared norm of U^dagger |z> on the clean-0 block.

    Equals <z| U (|0><0| (x) I) U^dagger |z>, which is 2**n times the
    probability of outcome z when U runs on one clean qubit plus n
    maximally mixed ones.  Result lies in [0, 1] up to 1e-12 float slack.
    """
    _check_width(u.width)
    if isinstance(zbits, int):
        if not 0 <= zbits < (1 << u.width):
            msg = f"outcome index {zbits} out of range for width {u.width}"
            raise ValueError(msg)
        idx = zbits
    else:
        idx = bits_to_index(zbits, u.width)
    full, flip, index, _ = _single_pass(u.width, adjoint(u).gates, idx)
    return _sq_norm(_part(full, index, {0: flip[0]}))


# --- compiled plan for the 2**n-pass distribution ----------------------------
#
# dqc1_distribution runs the same circuit on every column chunk, so it
# compiles the circuit once into a short list of steps over the 2**(n+1)
# stored rows of a (rows, columns) chunk:
#
# * ("gather", idx, phase): a = phase * a[idx], one maximal run of diagonal
#   and permutation gates fused into one row gather and one multiply
#   (either half is None when trivial);
# * ("h", bit): an unnormalised butterfly [[1, 1], [1, -1]] on a stored bit;
# * ("scale",): an exact rescale that keeps unnormalised norms bounded.
#
# Rows are stored under a qubit layout that the plan chooses: before an H
# on a qubit whose stored halves would be short strided runs, a gather
# moves it to a top bit.  Per column the arithmetic never depends on the
# layout, the chunk width or the thread, which keeps output bytes fixed.

# numpy buffers ufuncs over strided runs shorter than this many float64
# entries, which makes them 2.5-3x slower per element.
_MIN_RUN = 4096
# Each unnormalised H doubles the squared norm; rescaling by 2**-256 every
# 512 H keeps every amplitude and probability far from overflow.
_RESCALE_EVERY = 512


def _monomial(gates, bits: np.ndarray):
    """(src, phase) with out[r] = phase[r] * in[src[r]] for a run of non-H gates.

    ``bits[q]`` is qubit q's bit of every row index.  ``phase`` is None when
    every factor is 1.
    """
    width, dim = bits.shape
    rows = np.arange(dim)
    src = rows
    phase = None
    for g in gates:
        if g.kind in _PERMUTATION_KINDS:
            flip = np.ones(dim, dtype=bool)
            pols = g.polarities if g.kind == "MCX" else (1,)
            for c, pol in zip(g.controls, pols):
                flip &= bits[c] == pol
            sigma = rows ^ (flip.astype(rows.dtype) << (width - 1 - g.targets[0]))
            src = src[sigma]
            if phase is not None:
                phase = phase[sigma]
            continue
        if phase is None:
            phase = np.ones(dim, dtype=np.complex128)
        if g.kind == "RZ":
            half = 0.5 * g.theta
            hi = bits[g.targets[0]] == 1
            np.multiply(phase, complex(math.cos(half), -math.sin(half)), out=phase, where=~hi)
            np.multiply(phase, complex(math.cos(half), math.sin(half)), out=phase, where=hi)
            continue
        hit = np.logical_and.reduce(bits[list(g.targets)] == 1)
        # CZ and CCZ flip the sign.
        np.multiply(phase, _SINGLE_PHASE.get(g.kind, -1.0), out=phase, where=hit)
    if phase is not None and np.all(phase == 1.0):
        phase = None
    return src, phase


@dataclass(frozen=True)
class _Plan:
    start_rows: np.ndarray  # stored row of input column x after the leading run
    start_vals: np.ndarray | None  # and its phase (None: all 1)
    steps: tuple
    final_rows: np.ndarray  # stored row whose probability is outcome r
    pending_h: int  # butterflies not undone by a scale step


def _compile(u: Circuit, cols: int) -> _Plan:
    """Plan for chunks of ``cols`` columns; layout choices depend on ``cols`` only."""
    width = u.width
    gates = u.gates
    h_uses: dict[int, list[int]] = {}
    for i, g in enumerate(gates):
        if g.kind == "H":
            h_uses.setdefault(g.targets[0], []).append(i)
    top = [b for b in range(width) if 2 * cols << b >= min(_MIN_RUN, 2 * cols << (width - 1))]

    def next_use(q: int, i: int) -> int:
        later = h_uses.get(q, [])
        k = bisect.bisect_right(later, i)
        return later[k] if k < len(later) else len(gates)

    # A gather is [gates, slot]; its slot may still change for qubits no
    # butterfly has touched since it, so an H that needs a top bit can be
    # moved there for free by the gather before it.
    placement = [[], [width - 1 - q for q in range(width)]]
    program: list = []
    current = placement
    touched: set[int] = set()
    run: list[Gate] = []
    n_h = 0
    for i, g in enumerate(gates):
        if g.kind != "H":
            run.append(g)
            continue
        if n_h == 0:
            placement[0] = run
        elif run:
            current = [run, list(current[1])]
            program.append(current)
            touched = set()
        run = []
        slot = current[1]
        q = g.targets[0]
        if slot[q] not in top:
            free = [b for b in top if b not in touched]
            if not free:
                current = [[], list(slot)]
                program.append(current)
                touched = set()
                slot = current[1]
                free = top
            owner = {slot[p]: p for p in range(width)}
            b = max(free, key=lambda b: next_use(owner[b], i))
            slot[owner[b]], slot[q] = slot[q], b
        touched.add(slot[q])
        program.append(("h", slot[q]))
        n_h += 1
        if n_h % _RESCALE_EVERY == 0:
            program.append(("scale",))

    dim = 1 << width
    rows = np.arange(dim)
    bits = (rows >> np.arange(width - 1, -1, -1)[:, None]) & 1

    def stored(slot: list[int]) -> np.ndarray:
        """Stored row of each logical row when qubit q sits on stored bit slot[q]."""
        return (bits << np.array(slot)[:, None]).sum(axis=0)

    src, phase = _monomial(placement[0], bits)
    first = np.empty_like(src)
    first[src] = rows
    first = first[: dim >> 1]  # inputs |0 x> have the clean bit 0
    start_vals = None if phase is None else phase[first]
    steps = []
    prev = stored(placement[1])
    start_rows = prev[first]
    for item in program:
        if isinstance(item, tuple):
            steps.append(item)
            continue
        gates_run, slot = item
        src, phase = _monomial(gates_run, bits)
        new = stored(slot)
        logical = np.empty_like(new)
        logical[new] = rows
        idx = prev[src[logical]]
        if np.array_equal(idx, rows):
            idx = None
        if phase is not None:
            phase = phase[logical]
        if idx is not None or phase is not None:
            steps.append(("gather", idx, phase))
        prev = new
    src, _ = _monomial(run, bits)  # trailing phases do not change |amplitude|**2
    return _Plan(
        start_rows=start_rows,
        start_vals=start_vals,
        steps=tuple(steps),
        final_rows=prev[src],
        pending_h=n_h % _RESCALE_EVERY,
    )


def _run_plan(plan: _Plan, c0: int, amps: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Sum of |amplitude|**2 over the chunk's columns, one value per stored row.

    Columns are summed by an adjacent-pair tree, so a chunk's result is a
    subtree of the tree over all columns, whatever the chunk width.
    """
    dim, cols = amps.shape
    amps.fill(0.0)
    vals = 1.0 if plan.start_vals is None else plan.start_vals[c0 : c0 + cols]
    amps[plan.start_rows[c0 : c0 + cols], np.arange(cols)] = vals
    for step in plan.steps:
        if step[0] == "h":
            bit = step[1]
            view = amps.view(np.float64).reshape(dim >> (bit + 1), 2, (2 * cols) << bit)
            lo = view[:, 0]
            hi = view[:, 1]
            lo += hi
            hi *= -2.0
            hi += lo
        elif step[0] == "gather":
            _, idx, phase = step
            if idx is not None:
                np.take(amps, idx, axis=0, out=spare, mode="clip")
                amps, spare = spare, amps
            if phase is not None:
                amps *= phase[:, None]
        else:
            flat = amps.view(np.float64)
            flat *= 2.0 ** -(_RESCALE_EVERY // 2)
    flat = amps.view(np.float64)
    src = spare.view(np.float64)
    np.multiply(flat, flat, out=src)
    dst = flat
    width = 2 * cols
    while width > 1:
        width //= 2
        np.add(src[:, 0 : 2 * width : 2], src[:, 1 : 2 * width : 2], out=dst[:, :width])
        src, dst = dst, src
    return src[:, 0].copy()


def _tree_sum(parts) -> np.ndarray:
    """Adjacent-pair tree over a power-of-two count of vectors, in index order.

    A binary-counter stack holds at most log2(count) + 1 partial sums.
    """
    stack: list[tuple[int, np.ndarray]] = []
    for part in parts:
        size = 1
        while stack and stack[-1][0] == size:
            part = stack.pop()[1] + part
            size *= 2
        stack.append((size, part))
    (_, total), = stack
    return total


def _parallel_map(fn, items, threads: int):
    """Yield fn(item) for each item, in order, from up to ``threads`` worker threads.

    A generator, so the caller can fold each result in as it arrives.
    """
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            yield from pool.map(fn, items)
    else:
        yield from map(fn, items)


def dqc1_distribution(
    u: Circuit,
    *,
    max_n: int = DEFAULT_MAX_MIXED_QUBITS,
    threads: int = 1,
) -> Distribution:
    """Exact output distribution of u on |0><0| (x) I/2**n, all qubits measured.

    Runs one forward pass per mixed-register basis state |0 x> and averages
    the 2**n output distributions.  The circuit is compiled once into a
    plan of fused steps; passes run through it in fixed column chunks, and
    every column's squared amplitudes are summed by one adjacent-pair tree
    over all 2**n columns.  Output bits therefore depend on neither
    ``threads`` nor the chunk size.
    """
    n = u.width - 1
    if n < 0:
        msg = "need at least the clean qubit"
        raise ValueError(msg)
    if n > max_n:
        msg = f"n={n} mixed qubits exceeds the cap of {max_n} (2**n passes); raise max_n to override"
        raise ValueError(msg)
    dim = 1 << (n + 1)
    ncols = 1 << n
    cols = max(1, min(ncols, _CHUNK_ENTRIES // dim))
    plan = _compile(u, cols)
    starts = range(0, ncols, cols)
    local = threading.local()  # two chunk buffers per worker thread

    def one_chunk(c0: int) -> np.ndarray:
        if not hasattr(local, "bufs"):
            local.bufs = [np.empty((dim, cols), dtype=np.complex128) for _ in range(2)]
        return _run_plan(plan, c0, *local.bufs)

    probs = _tree_sum(_parallel_map(one_chunk, starts, threads))[plan.final_rows]
    probs *= math.ldexp(1.0, -(plan.pending_h + n))

    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-9:  # unitarity self-check
        msg = f"distribution sums to {total}"
        raise RuntimeError(msg)
    ceiling = 2.0 ** (-n) + 1e-12
    if not float(probs.max()) <= ceiling:  # clean-qubit ceiling self-check
        msg = f"outcome probability {probs.max()} exceeds 2**-{n}"
        raise RuntimeError(msg)
    return Distribution(n, probs)


def sample(d: Distribution, count: int, seed: int) -> list[str]:
    """Draw ``count`` outcome bit strings; identical (d, count, seed) give identical draws."""
    if count < 0:
        msg = f"count must be nonnegative, got {count}"
        raise ValueError(msg)
    rng = np.random.default_rng(seed)
    p = np.maximum(d.probs, 0.0)
    p = p / p.sum()
    width = d.n + 1
    draws = rng.choice(len(p), size=count, p=p)
    return [format(int(i), f"0{width}b") for i in draws]
