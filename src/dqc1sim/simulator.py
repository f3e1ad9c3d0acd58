"""Dense state-vector simulation of circuits and the one-clean-qubit model.

The maximally mixed register is never materialized as a density matrix.
Every quantity is assembled from pure forward passes: the input
|0><0| (x) I/2**n is the uniform mixture of the basis states |0 x>, so the
output distribution is the average of the 2**n pure output distributions.
Passes are batched column-wise so one gate sweep covers many inputs.

Index layout (see circuits module): qubit q owns bit (width-1-q) of the
amplitude index, so reshaping a state to (2**q, 2, -1) exposes qubit q on
the middle axis as a zero-copy view.  Kernels mutate such views in place
on an array the caller owns.
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


# --- in-place gate kernels ---------------------------------------------------
#
# _axis_view reshapes a (2**width,) or (2**width, batch) array so each
# involved qubit gets its own length-2 axis; basic indexing then yields
# zero-copy views of the matching amplitude blocks.


def _axis_view(amps: np.ndarray, qubits: tuple[int, ...]):
    shape = []
    prev = 0
    for q in qubits:
        shape.append(1 << (q - prev))
        shape.append(2)
        prev = q + 1
    shape.append(-1)
    view = amps.reshape(shape)
    axes = tuple(2 * i + 1 for i in range(len(qubits)))
    return view, axes


def _block(view: np.ndarray, axes: tuple[int, ...], bits: tuple[int, ...]) -> np.ndarray:
    idx: list = [slice(None)] * view.ndim
    for a, b in zip(axes, bits):
        idx[a] = b
    return view[tuple(idx)]


def _swap_blocks(view, axes, bits0, bits1) -> None:
    b0 = _block(view, axes, bits0)
    b1 = _block(view, axes, bits1)
    tmp = b0.copy()
    b0[...] = b1
    b1[...] = tmp


def _apply_gate(amps: np.ndarray, width: int, g: Gate) -> None:
    kind = g.kind
    if kind == "H":
        view, axes = _axis_view(amps, g.targets)
        lo = _block(view, axes, (0,))
        hi = _block(view, axes, (1,))
        # In-place butterfly: lo' = (lo + hi)/sqrt2, hi' = lo' - sqrt2*hi.
        lo += hi
        lo *= _INV_SQRT2
        hi *= -2.0 * _INV_SQRT2
        hi += lo
    elif kind == "X":
        view, axes = _axis_view(amps, g.targets)
        _swap_blocks(view, axes, (0,), (1,))
    elif kind in ("Z", "S", "SDG", "T", "TDG"):
        view, axes = _axis_view(amps, g.targets)
        hi = _block(view, axes, (1,))
        hi *= _SINGLE_PHASE[kind]
    elif kind == "RZ":
        view, axes = _axis_view(amps, g.targets)
        half = 0.5 * g.theta
        lo = _block(view, axes, (0,))
        hi = _block(view, axes, (1,))
        lo *= complex(math.cos(half), -math.sin(half))
        hi *= complex(math.cos(half), math.sin(half))
    elif kind == "CZ":
        view, axes = _axis_view(amps, tuple(sorted(g.targets)))
        blk = _block(view, axes, (1, 1))
        blk *= -1.0
    elif kind == "CCZ":
        view, axes = _axis_view(amps, tuple(sorted(g.targets)))
        blk = _block(view, axes, (1, 1, 1))
        blk *= -1.0
    elif kind in ("CX", "MCX"):
        pols = g.polarities if kind == "MCX" else (1,)
        wanted = dict(zip(g.controls, pols))
        qubits = tuple(sorted(g.qubits))
        view, axes = _axis_view(amps, qubits)
        # Controls pinned at their polarity; the free bit is the target.
        bits0 = tuple(wanted.get(q, 0) for q in qubits)
        bits1 = tuple(wanted.get(q, 1) for q in qubits)
        _swap_blocks(view, axes, bits0, bits1)
    else:  # pragma: no cover - Gate validation makes this unreachable
        msg = f"unhandled gate kind {kind}"
        raise ValueError(msg)


def _run_gates(amps: np.ndarray, width: int, gates: tuple[Gate, ...]) -> None:
    for g in gates:
        _apply_gate(amps, width, g)


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
    amps = np.array(psi.amplitudes, dtype=np.complex128)
    _run_gates(amps, c.width, c.gates)
    return StateVector(c.width, amps)


def amplitude_zero(c: Circuit) -> complex:
    """<0...0| C |0...0>: first amplitude of the circuit applied to the zero state."""
    _check_width(c.width)
    amps = np.zeros(1 << c.width, dtype=np.complex128)
    amps[0] = 1.0
    _run_gates(amps, c.width, c.gates)
    return complex(amps[0])


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
    amps = np.zeros(1 << u.width, dtype=np.complex128)
    amps[idx] = 1.0
    _run_gates(amps, u.width, adjoint(u).gates)
    half = amps[: 1 << (u.width - 1)]
    return float(np.sum(half.real * half.real + half.imag * half.imag))


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

_PERMUTATION_KINDS = frozenset({"X", "CX", "MCX"})
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

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(starts))) as pool:
            probs = _tree_sum(pool.map(one_chunk, starts))
    else:
        probs = _tree_sum(map(one_chunk, starts))
    probs = probs[plan.final_rows]
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
