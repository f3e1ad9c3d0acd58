"""Dense state-vector simulation of circuits and the one-clean-qubit model.

The maximally mixed register is never materialized as a density matrix.
Every quantity is assembled from pure forward passes: the input
|0><0| (x) I/2**n is the uniform mixture of the basis states |0 x>, so the
output distribution is the average of the 2**n pure output distributions.

Two paths apply gates, with one gate arithmetic:

* ``dqc1_distribution`` compiles the circuit once into a plan of fused
  steps and runs it over chunks of columns (see the plan section).  Only
  the columns that qubits untouched by later mixing gates leave
  undetermined run: one for a worst-case embedding, all 2**n when every
  qubit is mixed.
* ``apply_circuit``, ``amplitude_zero`` and ``f_value`` run one column
  through ``_single_pass``: in-place kernels on basic-index views of one
  buffer, with X gates kept as bit flips instead of data moves.  A pass
  from a basis state keeps each qubit settled at a known bit until a gate
  first mixes it, and works only where the settled qubits sit at that bit,
  so gates on unmixed qubits cost little or nothing.  One run kernel
  applies a run of diagonal gates as one multiply by a table of eighth
  turns, with no more than a block of temporary memory; an H on a live
  qubit is one butterfly on the state.  The copies that the first H on
  each qubit makes wait for the first step that needs the data, and when
  that step is a diagonal run, the run writes its table entries straight
  into the state: the leading H layer of a worst-case embedding sweeps
  nothing of its own.
  ``amplitude_zero`` and ``f_value`` pass a read-out, the logical bits they
  read: the circuit's trailing X, CX and MCX gates fold into it, and the
  last H gates on read qubits compute only the half that is read, so the
  last H layer of a worst-case embedding costs about one sweep in all.
  ``f_value`` runs in a float64 buffer, half the bytes, when every gate is
  real (H, X, Z, CZ, CCZ, CX or MCX), as on every worst-case embedding;
  everything else runs in complex128 (see the single-pass section).

Both paths apply H as the unnormalised butterfly ``_butterfly``,
[[1, 1], [1, -1]], rescale by 2**-256 every _RESCALE_EVERY butterflies and
undo the rest with one power of two at the end, and take every power of i
from the one table ``_EIGHTH_TURN`` (a float64 pass reads its real
parts).  The scales and the powers of i are
exact and a butterfly rounds only its sums, so dyadic amplitudes, such as
gap/2**n on the IQP circuits of the paper, come out exact: f_value on a
worst-case embedding is (gap/2**n)**2 to the bit.  Both paths sum squares
with one adjacent-pair tree, ``_square_sums``, so no output depends on
the BLAS library.

Index layout (see circuits module): qubit q owns bit (width-1-q) of the
amplitude index, so viewing a state as a (2,)*width array puts qubit q on
axis q.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from types import MappingProxyType

import numpy as np

from .circuits import Circuit, Gate, _int_at_least, _is_int, adjoint

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

# dqc1_distribution runs up to 2**n columns of up to 2**(n+1) rows; this
# cap stops accidental exponential blowups.  Single-pass ops only pay one
# state vector and get a far looser cap.
DEFAULT_MAX_MIXED_QUBITS = 14
MAX_SINGLE_PASS_WIDTH = 26

_PHASE_T = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))

# Each diagonal gate with a fixed angle puts exp(i pi e/4) on the block
# where all its targets are 1: e eighth turns (CZ and CCZ flip the sign).
_EIGHTHS = {"Z": 4, "S": 2, "SDG": 6, "T": 1, "TDG": 7, "CZ": 4, "CCZ": 4}
# exp(i pi e/4) at entry e, repeated so any uint8 count indexes it mod 8.
# Entries 0, 2, 4 and 6 are exactly 1, i, -1 and -i.
_EIGHTH_TURN = np.tile(
    np.array([1.0, _PHASE_T, 1j, 1j * _PHASE_T, -1.0, -_PHASE_T, -1j, _PHASE_T.conjugate()]),
    32,
)
# The real parts, for a float64 pass: exactly 1 and -1 at entries 0 and 4,
# the only entries a circuit of _REAL_KINDS reaches.
_EIGHTH_TURN_REAL = _EIGHTH_TURN.real.copy()
_PERMUTATION_KINDS = frozenset({"X", "CX", "MCX"})
# Gates with real matrices: from a basis state every amplitude stays real.
_REAL_KINDS = frozenset({"H", "X", "Z", "CZ", "CCZ", "CX", "MCX"})
# Gates that may leave their target in a superposition.
_MIXING_KINDS = frozenset({"H", "CX", "MCX"})

# Each unnormalised H doubles the squared norm; rescaling the amplitudes by
# _RESCALE = 2**-256 every 512 H keeps every amplitude and probability far
# from overflow, and the scale is exact.
_RESCALE_EVERY = 512
_RESCALE = 2.0 ** -(_RESCALE_EVERY // 2)

# Entries per batch chunk (16 MiB of complex128 per buffer): large enough
# to amortize per-step dispatch.  Output bytes do not depend on it.
_CHUNK_ENTRIES = 1 << 20
# Fewest entries in a chunk that dqc1_distribution halves chunks down to
# for more threads.  On a 2-core Xeon, with random 60-gate H, T and CX
# circuits, two threads ran a plan of 2**17 entries as two chunks in 5.9
# ms against 10.3 ms as one chunk on one thread; at 2**16 entries the two
# chunks tied (6.8 against 7.0 ms), and at 2**15 they lost (4.1-4.4
# against 3.6 ms).
_MIN_CHUNK_ENTRIES = 1 << 15


def _condition(g: Gate) -> tuple:
    """(qubit, logical bit) pairs on which a non-H gate acts, in both gate paths.

    A CX's or MCX's controls at their polarities (an X has none), or a
    diagonal gate's targets at 1.
    """
    qubits = g.controls if g.kind in _PERMUTATION_KINDS else g.targets
    return tuple(zip(qubits, g.polarities or (1,) * len(qubits)))


def bits_to_index(zbits: str, width: int) -> int:
    """Index of |z> for a bit string such as '010', qubit 0 first."""
    if not isinstance(zbits, str) or len(zbits) != width or any(ch not in "01" for ch in zbits):
        msg = f"need a {width}-bit string of 0/1, got {zbits!r}"
        raise ValueError(msg)
    return int(zbits, 2)


def _index(index, width: int) -> int:
    """index as an int; a one-line ValueError unless it is an integer in [0, 2**width)."""
    if not _is_int(index):
        msg = f"index must be an integer, got {index!r}"
        raise ValueError(msg)
    if not 0 <= index < (1 << width):
        msg = f"index {int(index)} out of range for width {width}"
        raise ValueError(msg)
    return int(index)


def _basis_index(z, width: int) -> int:
    """Index of the basis state z: an integer in [0, 2**width) or a bit string."""
    return _index(z, width) if _is_int(z) else bits_to_index(z, width)


def index_to_bits(index: int, width: int) -> str:
    """Bit string of |index> with qubit 0 as the leftmost character."""
    width = _int_at_least(width, "width", 0)
    return format(_index(index, width), f"0{width}b")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable amplitudes over 2**width basis states.

    The constructor takes ownership of the array and marks it read-only.
    """

    width: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "width", _int_at_least(self.width, "width", 0))
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
        amps = np.zeros(1 << _int_at_least(width, "width", 0), dtype=np.complex128)
        amps[_basis_index(index_or_bits, width)] = 1.0
        return cls(width, amps)


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
        object.__setattr__(self, "n", _int_at_least(self.n, "n", 0))
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


# --- the single-column pass --------------------------------------------------
#
# The state lives in one buffer, seen as a (2,)*width array ``full`` so
# qubit q is axis q and every block the kernels touch is a basic-index view
# ``full[bits]``.  Only contiguous views are reshaped after that, which
# never copies, so no kernel copies the state behind the caller's back, and
# copies between interleaved halves go through ufuncs
# (``np.positive(lo, out=hi)``), never ``view[...] = view``.
#
# Two pieces of bookkeeping avoid sweeps of the state:
#
# * ``flip[q]``: qubit q's logical bit is its stored bit XOR flip[q], so an
#   X, and a CX/MCX whose controls are all settled (below), moves no data;
#   an H on a flipped qubit folds the flip into its butterfly.
# * ``index[q]``: 0 while qubit q is settled (not mixed yet), _LIVE after.
#   While q is settled the buffer is zero wherever q's stored bit is 1, so
#   every kernel indexes q's axis at 0 and q's logical bit is flip[q].  An H
#   makes q live by copying its stored-0 half, negated if q is flipped, into
#   its stored-1 half: the unnormalised butterfly of a half that is zero.  A
#   CX/MCX with a control on a live qubit makes its target live with no
#   write at all.
# * ``deferred``: the qubits whose first H has not made its copy yet.  A
#   pass from a basis state starts with every qubit settled and the start
#   entry alone.  While every live qubit is deferred and no diagonal run
#   is pending, the live view is that entry copied, so an H on a settled,
#   unflipped qubit only marks it live and counts its butterfly.  The
#   first step that needs the data ends the deferral.  A diagonal run of
#   two or more gates writes ``turn[count]`` straight into the live view,
#   times the start entry where that is not exact (always in complex128:
#   (1+0j) * (-1j) has a real part of +0.0), so the copies and the
#   multiply become one write.  Every other step (a run of one gate, RZ,
#   an H or CX/MCX that moves data, the end of the pass) first makes the
#   copies, in gate order (``_activate``).  An H on a flipped settled
#   qubit copies at once: its negated copy cannot fold into the count,
#   since _EIGHTH_TURN[e + 4] is not -_EIGHTH_TURN[e] bit for bit (entry
#   7 against entry 3 in the last bit, and the sign of a zero imaginary
#   part at entries 0 and 4).
#
# A diagonal gate on settled qubits becomes a scalar ``phase`` or a gate on
# fewer qubits, and a control on a settled qubit either always fires or
# never does: ``_where`` resolves a gate's ``_condition`` into both cases.
#
# One run kernel turns many strided sweeps into one.  Z, S, SDG, T, TDG,
# CZ and CCZ gates on live qubits are held back until a gate that moves
# data (H, or a CX/MCX with a live control) or the end of the pass.  They
# are recorded by stored bit, so a free flip does not end the run, and RZ,
# which commutes with them, is still applied at once.  A run of two or
# more gates is summed, one block of the live view at a time, into a uint8
# count of eighth turns (``_EIGHTHS``) and applied as
# ``v *= _EIGHTH_TURN[count]``: one sweep in all, or one write where the
# run ends a deferral.  Every add to a count walks whole rows of
# 2**_ROW_BITS contiguous entries: a gate's bits on the row axes become a
# one-row pattern.  A run of one gate is applied directly.  An H on a live
# qubit is one butterfly on the state.
#
# Every H, activation included, is an unnormalised butterfly, and the pass
# counts them.  Before each gate, once _RESCALE_EVERY of them are not undone
# yet, it scales the live view by _RESCALE, as the plan does, so the count
# never exceeds _RESCALE_EVERY.  It returns the count left, and the caller
# undoes it once: 2**(-count/2) on an amplitude, which rounds only for an
# odd count, or 2**-count on a squared norm, which is exact.
#
# A read-out ({qubit: logical bit}, from a basis start) asks for the
# amplitudes at those bits alone; ``amplitude_zero`` reads every qubit at 0
# and ``f_value`` reads qubit 0 at 0 and sums the squares.  ``_fold_tail``
# scans back from the last gate, and each rule is an exact identity on the
# read amplitudes:
#
# * An X on a read qubit flips its read bit; a CX or MCX whose target and
#   controls are all read flips the target's bit or does nothing.
# * A CX or MCX on a read target t with controls that are not read (free),
#   where no earlier H, CX or MCX targets t, so t is settled at a bit s that
#   the start and the earlier X gates give.  If s differs from t's read
#   bit, the gate must fire: its free controls are read at their
#   polarities.  Otherwise it must not: one free control is read at the
#   opposite polarity.  Two or more free controls that must not fire, or a
#   read control at the wrong value, end the scan.
# * Then the maximal run of H gates on distinct read qubits becomes
#   contractions, in gate order; any other gate ends the scan.
#
# The pass runs the gates before the scan's stop, indexes every read qubit
# that no contraction takes at its stored bit, and then runs the
# contractions, each an H that counts toward the rescale like any other.
# A contraction on live q computes only the half at its read bit
# (``_contract``) and indexes q there, so each one works on half the view
# of the one before; on settled q it is the activation copy, which is lo
# itself, negated where the copy would be.  Where a fold removes a CX or
# MCX, f_value's norm sums fewer exact zeros and may round differently.
#
# Every temporary of a pass, apart from the second state ``apply_circuit``
# may write, holds at most as many bytes as _TEMP_ENTRIES complex entries.
#
# The buffer's dtype follows from the gate kinds alone.  ``f_value`` runs
# in float64 when every gate is in _REAL_KINDS: the amplitudes are then
# real, the state takes half the bytes, and each butterfly and table
# multiply moves half as many.  The diagonal runs read
# ``_EIGHTH_TURN_REAL``, and every other step does the complex pass's
# arithmetic on the real parts, so its amplitudes are the complex pass's
# real parts to the bit.  ``_sq_norm`` sums the squares of either dtype by
# one adjacent-pair tree in which a zero imaginary part adds +0, so the
# f-value bits depend neither on the dtype, nor on _TEMP_ENTRIES, nor on
# BLAS.  ``amplitude_zero``
# and ``apply_circuit`` stay complex128: they return complex amplitudes,
# and ``iqp-amp`` prints the sign of a zero imaginary part, which a float
# pass does not keep.  The plan of ``dqc1_distribution`` is not a single
# pass and keeps complex128 chunks.
#
# Every negation goes through ``_negate``.  numpy 2.4.6 computes
# ``np.negative(src, out=dst)`` wrongly when the views have a 64-byte
# float64 stride, as the halves of a qubit on stored bit 3 do; a multiply
# by -1.0 gives negation's bytes, signed zeros included.  complex128 keeps
# ``np.negative``: a complex multiply by -1 would change the sign of zero
# imaginary parts.

# Largest temporary of a single-column kernel, in entries (256 KiB).
_TEMP_ENTRIES = 1 << 14
# Axes in one row of a diagonal-run count block.  On a 2-core Xeon the
# runs of the three seeded fvalue-w23 inputs took 44 ms together, best of
# 9, at 8 bits; 41 ms at 10 and 12, 57 ms at 6, 79 ms at 4 and 126 ms at
# 2, where each add walks runs of a few bytes.  A gate's row pattern
# takes 2**_ROW_BITS bytes, so the smallest size at the flat bottom wins.
_ROW_BITS = 8
# How a live qubit's axis is indexed; a settled qubit's axis is indexed by 0.
_LIVE = slice(None)


def _part(full: np.ndarray, index: list, fixed: dict[int, int]) -> np.ndarray:
    """The view ``full[index]`` with qubit q's axis at stored bit fixed[q]."""
    sel = list(index)
    for q, bit in fixed.items():
        sel[q] = bit
    sel.append(...)
    return full[tuple(sel)]


def _lead_axes(v: np.ndarray, limit: int) -> int:
    """How many leading axes of v to fix for blocks of at most ``limit`` entries."""
    lead, size = 0, v.size
    while size > limit:
        size //= v.shape[lead]
        lead += 1
    return lead


def _blocks(v: np.ndarray):
    """Views that tile v in index order, each of at most _TEMP_ENTRIES entries."""
    for i in np.ndindex(v.shape[: _lead_axes(v, _TEMP_ENTRIES)]):
        yield v[i + (...,)]


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    """Exchange two disjoint equal-shape views, through at most _TEMP_ENTRIES of temporary."""
    for x, y in zip(_blocks(a), _blocks(b)):
        tmp = x.copy()
        np.positive(y, out=x)
        np.positive(tmp, out=y)


def _square_sums(flat: np.ndarray, spare: np.ndarray, groups: int) -> np.ndarray:
    """Sum of squares of each of ``groups`` equal runs of ``flat``, by an adjacent-pair tree.

    ``flat`` is a contiguous float64 array, a complex one's float view, of
    ``groups`` times a power of two entries.  The squares go into
    ``spare``, and every level adds the adjacent pairs of one contiguous
    array into the other, so both are overwritten; returns a view of one.
    """
    np.multiply(flat, flat, out=spare[: len(flat)])
    src, dst = spare, flat
    count = len(flat)
    while count > groups:
        count //= 2
        np.add(src[0 : 2 * count : 2], src[1 : 2 * count : 2], out=dst[:count])
        src, dst = dst, src
    return src[:groups]


def _tree_sum(parts) -> np.ndarray:
    """Adjacent-pair tree over a power-of-two count of vectors or scalars, in order.

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


def _sq_norm(v: np.ndarray) -> float:
    """Sum of |v|**2 by the adjacent-pair tree over v in index order (``_square_sums``).

    Each block of ``_blocks`` is copied and summed alone, and the block
    sums are added by the rest of the tree: a block's tree is a subtree,
    so the bits depend neither on _TEMP_ENTRIES nor on BLAS.  A zero
    imaginary part adds +0 at the first level, so a complex v with real
    entries gives the bits of its float64 twin.
    """
    flats = (b.copy().reshape(-1).view(np.float64) for b in _blocks(v))
    return float(_tree_sum(_square_sums(x, np.empty_like(x), 1)[0] for x in flats))


def _negate(src: np.ndarray, out: np.ndarray) -> None:
    """out = -src, bit for bit, in float64 or complex128; out may be src."""
    if src.dtype == np.float64:
        np.multiply(src, -1.0, out=out)
    else:
        np.negative(src, out=out)


def _butterfly(lo: np.ndarray, hi: np.ndarray, flipped: int) -> None:
    """Unnormalised H, [[1, 1], [1, -1]], on the stored halves lo and hi, in place.

    lo' = lo + hi and hi' = lo' - 2 hi, one rounding each (the doubling is
    exact).  ``flipped``: H X = Z H, the butterfly of the swapped halves,
    hi' = 2 hi - lo'.  The halves may be complex or their float64 views.
    """
    lo += hi
    if flipped:
        hi *= 2.0
        hi -= lo
    else:
        hi *= -2.0
        hi += lo


def _contract(lo: np.ndarray, hi: np.ndarray, bit: int, flipped: int) -> None:
    """``_butterfly`` computed only where it is read: at stored bit ``bit`` of the result.

    Bit 0 is the butterfly's own lo, lo + hi; bit 1 is the whole butterfly.
    """
    if bit:
        _butterfly(lo, hi, flipped)
    else:
        lo += hi


@contextmanager
def _ufunc_buffer(entries: int):
    """Run the block with numpy's ufunc buffer at ``entries``, and restore the old size.

    ufuncs copy strided runs shorter than their buffer through it, which
    makes short runs up to 2.5 times slower per element than walking them.
    """
    old = np.setbufsize(entries)
    try:
        yield
    finally:
        np.setbufsize(old)


def _activate(full: np.ndarray, index: list, qubits: list, flipped: int) -> None:
    """Make ``qubits`` live in order, each by the copy its first H makes, and clear the list.

    The copy puts the stored-0 half, negated if ``flipped``, into the
    stored-1 half, which is zero: the unnormalised butterfly of the two.
    A deferred qubit is live in ``index`` already; it is settled again
    first, so each copy reads the view its H saw.
    """
    for q in qubits:
        index[q] = 0
    for q in qubits:
        lo, hi = _part(full, index, {q: 0}), _part(full, index, {q: 1})
        if flipped:
            _negate(lo, hi)
        else:
            np.positive(lo, out=hi)
        index[q] = _LIVE
    qubits.clear()


def _diagonal_run(full: np.ndarray, index: list, run: list, deferred: list) -> None:
    """Apply the pending diagonal run [(fixed, eighths)], if any, to the live view and clear it.

    A run of two or more gates is counted in uint8 eighth turns one block
    of the live view at a time; the leading axes pick the block.  The
    block's count is rows of 2**_ROW_BITS contiguous entries, on its lowest
    axes.  A gate adds to the rows its middle bits select: a scalar, or
    the one-row pattern of its bits on the row axes, built once per run.
    Gates with no bits on the leading axes make up the count every block
    starts from; the others are added in the blocks whose number matches.
    That start and the count of a block are uint8 arrays that together
    hold as many bytes as a complex temporary of _TEMP_ENTRIES entries.
    The count is applied as ``v *= turn[count]`` through one temporary of
    _TEMP_ENTRIES entries; a float64 state reads the real table
    ``_EIGHTH_TURN_REAL``.  Counts wrap mod 256 in any order, so the
    bytes do not depend on the layout.

    ``deferred`` lists the qubits whose activation copies are not done yet
    (see the single-pass section); the run ends that deferral and clears
    the list.  A run of two or more gates then writes ``turn[count]``
    straight into the live view, with no temporary, and a shorter one
    does the copies first.
    """
    turn = _EIGHTH_TURN_REAL if full.dtype == np.float64 else _EIGHTH_TURN
    if len(run) <= 1:
        _activate(full, index, deferred, 0)
        for fixed, e in run:
            blk = _part(full, index, fixed)
            blk *= turn[e]
        run.clear()
        return
    live = _part(full, index, {})
    lead = _lead_axes(live, 8 * _TEMP_ENTRIES)
    axis = {q: a for a, q in enumerate(q for q, i in enumerate(index) if i is _LIVE)}
    start = np.zeros(live.shape[lead:], dtype=np.uint8)
    low = min(_ROW_BITS, start.ndim)
    row_shape = start.shape[: start.ndim - low] + (1 << low,)
    start_rows = start.reshape(row_shape)
    outer = []  # (mask, value) on the block number, rows in the block, eighths per row entry
    for fixed, e in run:
        mask = value = 0
        sel = [_LIVE] * start.ndim
        for q, bit in fixed.items():
            a = axis[q]
            if a < lead:
                mask |= 1 << (lead - 1 - a)
                value |= bit << (lead - 1 - a)
            else:
                sel[a - lead] = bit
        eighths = np.uint8(e)
        if any(s is not _LIVE for s in sel[-low:]):
            pattern = np.zeros((2,) * low, dtype=np.uint8)
            pattern[tuple(sel[-low:])] = e
            eighths = pattern.reshape(-1)
        rows = tuple(sel[:-low])
        if mask:
            outer.append((mask, value, rows, eighths))
        else:
            start_rows[rows] += eighths
    count = np.empty_like(start)
    count_rows = count.reshape(row_shape)
    if deferred:
        # The live view is the start entry copied: turn[count] times it.
        # 1.0 * x is x to the bit, but (1+0j) * x makes the -0.0 real part
        # of -1j (entry 6) +0.0, so complex128 keeps the multiply.
        one = live[(0,) * live.ndim]
        scale = full.dtype != np.float64 or one != 1.0
    else:
        tmp = np.empty(start.shape[_lead_axes(start, _TEMP_ENTRIES):], dtype=full.dtype)
    for b, i in enumerate(np.ndindex(live.shape[:lead])):
        np.copyto(count, start)
        for mask, value, rows, eighths in outer:
            if b & mask == value:
                count_rows[rows] += eighths
        for v, c in zip(_blocks(live[i + (...,)]), _blocks(count)):
            # 256 entries: a uint8 never clips.
            if deferred:
                np.take(turn, c, out=v, mode="clip")
                if scale:
                    v *= one
            else:
                np.take(turn, c, out=tmp, mode="clip")
                v *= tmp
    deferred.clear()
    run.clear()


def _fold_tail(width: int, gates: tuple, start: int, read: dict[int, int]):
    """(head, contractions, read-out) that give the amplitudes of ``read`` after ``gates``.

    ``read`` maps qubits to the logical bits the caller reads, from the
    basis state ``start``.  The amplitudes are those of the returned
    read-out after ``head`` and then the contractions [(qubit, bit)], in
    gate order, of the trailing H gates on distinct read qubits.  See the
    single-pass section for the rules.
    """
    read = dict(read)
    mixed_at: dict[int, int] = {}  # the first gate that may mix each qubit
    for i, g in enumerate(gates):
        if g.kind in _MIXING_KINDS:
            mixed_at.setdefault(g.targets[0], i)
    k = len(gates)
    while k and gates[k - 1].kind in _PERMUTATION_KINDS and gates[k - 1].targets[0] in read:
        g = gates[k - 1]
        t = g.targets[0]
        free = [(c, pol) for c, pol in _condition(g) if c not in read]
        fires = all(read[c] == pol for c, pol in _condition(g) if c in read)
        if not free:
            read[t] ^= fires
        elif not fires or mixed_at[t] < k - 1:
            break  # a read control at the wrong value, or t may be mixed
        else:
            # t is settled: its start bit, flipped by the X gates before g.
            s = (start >> (width - 1 - t)) & 1
            s ^= sum(e.kind == "X" and e.targets[0] == t for e in gates[: k - 1]) & 1
            if s != read[t]:
                read.update(free)  # g must fire
                read[t] = s
            elif len(free) == 1:
                (c, pol), = free  # g must not fire
                read[c] = pol ^ 1
            else:
                break
        k -= 1
    contractions = []
    while k and gates[k - 1].kind == "H" and gates[k - 1].targets[0] in read:
        q = gates[k - 1].targets[0]
        contractions.append((q, read.pop(q)))
        k -= 1
    return gates[:k], contractions[::-1], read


def _rescaled(full: np.ndarray, index: list, pending: int) -> int:
    """``pending`` after scaling the live view by _RESCALE once _RESCALE_EVERY butterflies are due."""
    if pending >= _RESCALE_EVERY:
        live = _part(full, index, {})
        live *= _RESCALE
        pending -= _RESCALE_EVERY
    return pending


def _where(cond: tuple, index: list, flip: list) -> dict | None:
    """The stored bits {live qubit: bit} where ``cond`` holds, or None when a settled qubit never meets it."""
    fixed = {}
    for q, bit in cond:
        if index[q] is _LIVE:
            fixed[q] = bit ^ flip[q]
        elif flip[q] != bit:
            return None
    return fixed


def _single_pass(width: int, gates, start, read=None, dtype=np.complex128):
    """Apply ``gates`` to one column; returns (full, flip, index, phase, pending).

    ``start`` is a basis index (every qubit starts settled) or an amplitude
    array (every qubit starts live; the array is copied).  The logical state
    is ``phase * 2**(-pending/2)`` times ``full`` with the axes q where
    flip[q] is 1 reversed: ``pending`` butterflies are not undone yet.
    ``dtype`` is the buffer's for a basis start: float64 only for gates of
    _REAL_KINDS.

    ``read`` ({qubit: logical bit}, from a basis start) computes only the
    amplitudes at those bits: the tail is folded into the read-out, and on
    return every read qubit's axis is indexed, so the read amplitudes are
    the same factor times ``_part(full, index, {})``.
    """
    gates = tuple(gates)
    contractions: list = []
    if read:
        gates, contractions, read = _fold_tail(width, gates, start, read)
    if isinstance(start, np.ndarray):
        buf = np.array(start, dtype=np.complex128)
        index = [_LIVE] * width
        flip = [0] * width
    else:
        buf = np.zeros(1 << width, dtype=dtype)
        buf[0] = 1.0
        index = [0] * width
        flip = [(start >> (width - 1 - q)) & 1 for q in range(width)]
    full = buf.reshape((2,) * width)
    phase = complex(1.0)
    pending = 0
    run: list = []  # the pending diagonal run on live qubits
    deferred: list = []  # H targets whose activation copies are not done yet
    for g in gates:
        # A deferral holds at most ``width`` H, far below _RESCALE_EVERY, so
        # no rescale is due while one is open.
        pending = _rescaled(full, index, pending)
        kind = g.kind
        if kind == "H":
            pending += 1
            q = g.targets[0]
            if (
                index[q] is not _LIVE and not flip[q] and not run
                and index.count(_LIVE) == len(deferred)
            ):
                deferred.append(q)  # the live view is still the start entry copied
            else:
                _diagonal_run(full, index, run, deferred)
                if index[q] is _LIVE:
                    _butterfly(_part(full, index, {q: 0}), _part(full, index, {q: 1}), flip[q])
                else:
                    _activate(full, index, [q], flip[q])
            index[q] = _LIVE
            flip[q] = 0
        else:
            fixed = _where(_condition(g), index, flip)
            if kind == "RZ":
                # RZ(theta) is exp(-i theta/2) times exp(i theta) where its target is 1.
                phase *= complex(math.cos(0.5 * g.theta), -math.sin(0.5 * g.theta))
            if fixed is None:
                continue  # a settled qubit off the condition: the gate never acts
            if kind in _PERMUTATION_KINDS:
                t = g.targets[0]
                if fixed:
                    _diagonal_run(full, index, run, deferred)
                    index[t] = _LIVE  # its stored-1 half is still zero
                    _swap(_part(full, index, {**fixed, t: 0}), _part(full, index, {**fixed, t: 1}))
                else:
                    flip[t] ^= 1
            elif kind == "RZ":
                factor = complex(math.cos(g.theta), math.sin(g.theta))
                if fixed:
                    _activate(full, index, deferred, 0)
                    blk = _part(full, index, fixed)
                    blk *= factor
                else:
                    phase *= factor
            elif fixed:
                run.append((fixed, _EIGHTHS[kind]))
            else:
                phase *= complex(_EIGHTH_TURN[_EIGHTHS[kind]])
    _diagonal_run(full, index, run, deferred)
    for q, bit in (read or {}).items():
        index[q] = bit ^ flip[q]
    for q, bit in contractions:
        pending = _rescaled(full, index, pending) + 1
        if index[q] is _LIVE:
            _contract(_part(full, index, {q: 0}), _part(full, index, {q: 1}), bit, flip[q])
            index[q] = bit
        elif bit & flip[q]:
            # The activation copy at stored bit 1 would be -lo: negate lo in place.
            lo = _part(full, index, {})
            _negate(lo, lo)
    return full, flip, index, phase, pending


def _amplitude_scale(pending: int) -> float:
    """2**(-pending/2), which undoes ``pending`` butterflies; rounded only for odd counts."""
    return math.ldexp(math.sqrt(0.5) if pending & 1 else 1.0, -(pending >> 1))


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
    full, flip, _, phase, pending = _single_pass(c.width, c.gates, psi.amplitudes)
    factor = phase * _amplitude_scale(pending)
    axes = tuple(q for q in range(c.width) if flip[q])
    if axes:
        out = np.empty(1 << c.width, dtype=np.complex128)
        np.multiply(np.flip(full, axes), factor, out=out.reshape(full.shape))
        return StateVector(c.width, out)
    if factor != 1.0:
        full *= factor
    return StateVector(c.width, full.reshape(-1))


def amplitude_zero(c: Circuit) -> complex:
    """<0...0| C |0...0>: first amplitude of the circuit applied to the zero state.

    The pass reads every qubit at 0, so it folds the circuit's trailing X,
    CX and MCX gates into that read-out and computes, for the H gates
    before them, only the halves the read-out keeps.
    """
    _check_width(c.width)
    read = dict.fromkeys(range(c.width), 0)
    full, _, index, phase, pending = _single_pass(c.width, c.gates, 0, read)
    return phase * (complex(_part(full, index, {})) * _amplitude_scale(pending))


def f_value(u: Circuit, zbits) -> float:
    """Probability weight 2**n * p_z: squared norm of U^dagger |z> on the clean-0 block.

    Equals <z| U (|0><0| (x) I) U^dagger |z>, which is 2**n times the
    probability of outcome z when U runs on one clean qubit plus n
    maximally mixed ones.  Result lies in [0, 1] up to 1e-12 float slack.
    The butterflies are undone by one exact power of two, so f is exact
    wherever the squared norm is, as on a worst-case embedding.

    The pass reads qubit 0 at 0 and computes only what that read-out
    needs: on a worst-case embedding the trailing X and MCX fold into
    reading qubits 1..n at 0, qubit 0 is never mixed, and the last H
    layer keeps one half per gate, about one sweep in all.  It runs in
    float64 when every gate is in _REAL_KINDS, as on every embedding.
    The squares add by the fixed tree of ``_sq_norm``, so the bits depend
    neither on BLAS, nor on the block size, nor on the dtype.
    """
    _check_width(u.width)
    idx = _basis_index(zbits, u.width)
    real = _REAL_KINDS.issuperset(g.kind for g in u.gates)
    full, _, index, _, pending = _single_pass(
        u.width, adjoint(u).gates, idx, {0: 0}, np.float64 if real else np.complex128
    )
    f = math.ldexp(_sq_norm(_part(full, index, {})), -pending)
    if not -1e-12 <= f <= 1.0 + 1e-12:  # unitarity self-check; NaN fails it too
        msg = f"f value {f} outside [0, 1]"
        raise RuntimeError(msg)
    return f


# --- compiled plan for the distribution --------------------------------------
#
# dqc1_distribution runs the same circuit on many columns, so it compiles
# the circuit once into a short list of steps over the stored rows of a
# (rows, columns) chunk:
#
# * ("gather", idx, phase): a = phase * a[idx], one maximal run of diagonal
#   and permutation gates fused into one row gather and one multiply
#   (either half is None when trivial);
# * ("h", bit): ``_butterfly`` on a stored bit;
# * ("scale",): the exact rescale by _RESCALE after every _RESCALE_EVERY H.
#
# A gather's phase table takes its phase gates in gate order: a lone one
# is one multiply where it acts, and each stretch of several between two
# permutations is one ``np.multiply.reduce`` down a stack of their factor
# rows (``_fold``), whose values are those of one multiply per gate.
#
# The compiler holds only 1-D arrays over row indices, never a table of
# every qubit's bit of every row: ``_monomial`` finds the rows a gate acts
# on with one mask and compare of the row index, and every move of bits
# between index layouts goes through ``_pack``, one shift and mask per run
# of consecutive bits.  On a worst-case embedding its peak traced memory is
# about 10.5 times 8 bytes per row.
#
# The stored rows index the run qubits A then D (see below), each in qubit
# order, the first most significant, so every qubit keeps its stored bit
# and a gather only applies gates.  The D-values are the low bits of every
# row and the A qubits, the only ones a butterfly touches, the high ones.
# Output bytes do not depend on which stored bit a qubit holds.  An H on a
# low bit works on short strided halves, which are slow only because
# ufuncs copy runs shorter than their buffer through it; the plan runs
# under a buffer of _PLAN_BUFFER entries (see there).  Per column the
# arithmetic never depends on the chunk width or the thread, which keeps
# output bytes fixed.
#
# Only the columns that the untouched qubits leave undetermined run.  The
# leading run of non-H gates sends input |0 x> to one basis row times a
# phase, a global phase of that input's pure branch that no probability
# sees: the plan starts each input at its row with an amplitude of 1 and
# reads only the leading X, CX and MCX gates (``_leading``).  Let B be the
# qubits that no later H, CX or MCX targets and A the rest.  After the
# leading run B holds bits b that later X gates only flip, so the rest of
# the circuit maps row (b, a) to |b'> (x) W_b|a>, with b' = b xor (the
# later X gates on B) and W_b on A.  The plan's W_b is
# 2**(ph/2) times a unitary (ph: the butterflies no scale step undid), so
# with S_b the A-values that inputs reach under b,
#
#     2**(n + ph) p(b', y) = sum over a in S_b of |<y|W_b|a>|**2
#                          = 2**ph - sum over a not in S_b of |<y|W_b|a>|**2,
#
# so each b runs the smaller side (the direct one on a tie) and a b with
# nothing to run costs nothing.  The qubits of B that later gates read (as
# a control or a phase target; the set D) stay in the rows beside A: rows
# with different D-values never mix, so one column carries a column of
# each D-value.  The other qubits of B (F) leave the rows.  With B empty this
# is one direct side of all 2**n columns: the full plan.
#
# Columns are grouped into slots of a power-of-two width, one side of one
# b per D-value, and each slot's rows are summed over its columns by an
# adjacent-pair tree.  A chunk is a whole slot or a power-of-two part of
# one, so its sum is a subtree of its slot's tree, and the chunk sums of
# a slot are added by the rest of that tree.  The trailing permutation of
# the run qubits is composed into ``out_row``, the stored row each outcome
# reads.  The full plan sums over x by such a tree in which
# the inputs of other b's are exact zeros, so a direct side puts input x
# at x with the bits at which no two of its inputs first differ deleted:
# the tree keeps its shape and the rows keep the full plan's bytes.  A
# complement side puts its columns in order of a, or, when a direct side
# with the same D-value runs exactly its A-values (the two sides of a
# worst-case embedding), uses that side's sums.
#
# A chunk runs only on its block, the rows its start entries can reach:
# the plan's version of the single pass's settled qubits.  The block is
# the set of stored rows whose bits outside a mask ``live`` equal
# ``fixed``, kept packed in row order at the front of the chunk buffer.
# It starts as the smallest such set that holds the chunk's start rows.
# An ``h`` on a live bit is the butterfly on the packed view; an ``h`` on
# a settled bit doubles the block to (x, x), or to (x, -x) when its fixed
# bit is 1, the unnormalised butterfly of (x, 0) or (0, x).  A gather
# writes the smallest block that holds every row whose source lies in
# the block, and its other rows read an exact zero.  So every nonzero
# amplitude gets the operations of a sweep over every row, in the same
# order, and every row the block leaves out is an exact zero, whose
# square adds +0 to its sums: output bytes do not depend on the block.
# Once the block holds every row it costs no bookkeeping, and a chunk
# with no start entries runs no step.
#
# Each level of a chunk's tree, the first one re**2 + im**2, adds the
# adjacent pairs of one contiguous array into the next, whose entries
# stay in row and column order: ``_square_sums``, which also sums
# f_value's squares.  One add thus runs over the whole block, however few
# columns the chunk has.
#
# A plan is a layout, its chunks and its steps.  The layout (``_layout``)
# is the start entries, the slots, and the maps from outcomes to slots,
# sides and run-qubit values.  It depends only on the key it is memoised
# on: the width, the leading X, CX and MCX gates, the qubits of A and of D
# and the later X gates on B.  So every embedding of one n, and a chain
# over them, compiles one layout.  The chunks (from _CHUNK_ENTRIES, _MIN_CHUNK_ENTRIES
# and the thread count), the steps (``_program``) and ``out_row`` are
# compiled per call.  The cache keeps the last layout only, with
# read-only arrays that stay resident after the call: at most 25 bytes per
# outcome, 25 * 2**(n + 1) bytes (0.8 MiB at n = 14, 50 MiB at n = 20), and
# 17 on a worst-case embedding (34 MiB at n = 20).
#
# A sequence of circuits runs through one generator, ``_distributions``.
# Consecutive plans that are one chunk each on one cached layout, with the
# same steps but for the gather phase tables (every worst-case embedding
# of one n), run as one batch (``_batch``): member j takes the columns
# after member j - 1's, each gather multiplies by a (rows, members) table,
# and the run sums each member's columns on their own.  Per column the
# arithmetic is that of the member's own plan, so batches move no byte.  A
# batch holds at most _CHUNK_ENTRIES entries and is cut into chunks of
# whole members by the halving rule of a plan's chunks.  Each member is
# then finished, in circuit order, as the generator yields it.  A chain
# reads ahead (``_reading_ahead``): its per-circuit dqc1_distribution
# calls take their distributions from one generator over the ensemble.

# The ufunc buffer of a plan run.  On a 2-core Xeon, in a chunk of 2**20
# entries at n = 12 (2**13 rows of 128 columns, its block holding every
# row) a butterfly on stored bits 0-3 takes 4.3-5.4 ms at numpy's default
# of 8192 entries and 1.9-2.4 ms at 512, against 1.7-1.9 ms on a high bit
# either way; at n = 14 (32 columns) bit 0 takes 5.2-5.8 ms and 3.1-4.0
# ms.  A buffer of 16 entries slows the other steps: n = 14 chunks ran
# 30.5-33.6 ms against 27.5-29.4 ms at 512.
_PLAN_BUFFER = 512


def _monomial(gates, rows, pos):
    """(src, phase) with out[r] = phase[r] * in[src[r]] for a run of non-H gates.

    ``rows`` is every row index in order and qubit q sits on index bit
    ``pos[q]``.  Each gate acts on the rows where its ``_condition``
    holds.  The phase gates between two permutations are folded into the
    table together (``_fold``), as many at once as keep the fold's stack
    within _TEMP_ENTRIES entries, and at least one.  ``phase`` is None
    when every factor is 1.
    """
    src = rows
    phase = None
    most = max(1, _TEMP_ENTRIES // len(rows) - 1)
    pending = []  # (mask, value, factor elsewhere, factor where it acts) of each phase gate not folded yet
    for g in gates:
        if pending and (g.kind in _PERMUTATION_KINDS or len(pending) == most):
            phase, pending = _fold(phase, pending, rows), []
        mask = value = 0
        for q, bit in _condition(g):
            mask |= 1 << pos[q]
            value |= bit << pos[q]
        if g.kind in _PERMUTATION_KINDS:
            hit = (rows & mask) == value
            sigma = rows ^ (hit.astype(rows.dtype) << pos[g.targets[0]])
            src = src[sigma]
            if phase is not None:
                phase = phase[sigma]
        elif g.kind == "RZ":
            cos, sin = math.cos(0.5 * g.theta), math.sin(0.5 * g.theta)
            pending.append((mask, value, complex(cos, -sin), complex(cos, sin)))
        else:
            pending.append((mask, value, 1.0, _EIGHTH_TURN[_EIGHTHS[g.kind]]))
    if pending:
        phase = _fold(phase, pending, rows)
    if phase is not None and np.all(phase == 1.0):
        phase = None
    return src, phase


def _fold(phase, gates: list, rows) -> np.ndarray:
    """The table ``phase`` (None: all 1) times each gate's factors, gate by gate.

    ``gates`` are (mask, value, factor elsewhere, factor where it acts),
    each acting on the rows r with ``r & mask == value``.  One gate is
    one multiply where it acts (and RZ one elsewhere).  Several are one
    ``np.multiply.reduce`` down a stack whose row 0 is the table and each
    further row one gate's factors, exactly 1 where a gate other than RZ
    does not act.  An outer-axis reduce multiplies in gate order, so the
    values are those of the one-gate multiplies; only the signs of zero
    parts may differ, and no |amplitude|**2 sees them.
    """
    if phase is None:
        phase = np.ones(len(rows), dtype=np.complex128)
    if len(gates) == 1:
        ((mask, value, lo, hi),) = gates
        hit = (rows & mask) == value
        if lo != 1.0:
            np.multiply(phase, lo, out=phase, where=~hit)
        np.multiply(phase, hi, out=phase, where=hit)
        return phase
    mask, value, lo, hi = (np.array(c)[:, None] for c in zip(*gates))
    stack = np.empty((1 + len(gates), len(rows)), dtype=np.complex128)
    stack[0], stack[1:] = phase, lo
    np.copyto(stack[1:], hi, where=(rows & mask) == value)
    return np.multiply.reduce(stack, axis=0)


def _runs(seq) -> list[tuple[int, int]]:
    """(first position, length) of each maximal run of ``seq`` that counts up by one."""
    runs: list[tuple[int, int]] = []
    for i, v in enumerate(seq):
        if runs and v == seq[i - 1] + 1:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((i, 1))
    return runs


def _pack(rows: np.ndarray, qubits, width: int) -> np.ndarray:
    """The bits of width-qubit row indices on ``qubits``, the first one most significant."""
    out = np.zeros_like(rows)
    for i, k in _runs(qubits):
        # Consecutive qubits own consecutive bits, first qubit highest.
        out = (out << k) | ((rows >> (width - qubits[i] - k)) & ((1 << k) - 1))
    return out


def _tree_positions(keys: np.ndarray, groups: np.ndarray, ngroups: int, nbits: int):
    """(position of each key, level count of each group) once one-child tree levels are deleted.

    ``keys`` are nbits-bit and ascend within each group, and ``groups``
    ascend.  Of the adjacent-pair tree over a group's keys only the levels
    where two of its keys first differ are kept: the set bits of the
    group's mask, packed highest first.
    """
    same = groups[1:] == groups[:-1]
    first_diff = np.frexp((keys[1:] ^ keys[:-1])[same])[1] - 1
    mask = np.zeros(ngroups, dtype=np.int64)
    np.bitwise_or.at(mask, groups[1:][same], np.left_shift(1, first_diff, dtype=np.int64))
    keep = mask[groups]
    pos = np.zeros_like(keys)
    levels = np.zeros_like(mask)
    for m in set(mask.tolist()) - {0}:
        levels[mask == m] = bin(m).count("1")
        at = keep == m
        pos[at] = _compress(keys[at], m, nbits)
    return pos, levels


@dataclass(frozen=True)
class _Plan:
    steps: tuple
    rows: int  # stored rows of a chunk
    pending_h: int  # butterflies not undone by a scale step
    start_rows: np.ndarray  # stored row of each start entry (an amplitude of 1), in column order
    start_cols: np.ndarray  # and its column
    cols: int  # columns of a full chunk
    chunks: tuple  # (first column, columns), each inside one slot
    slot_sizes: tuple  # columns of each slot, in column order
    out_slot: np.ndarray  # slot summed into outcome o (len(slot_sizes): none)
    out_row: np.ndarray  # stored row of outcome o
    out_comp: np.ndarray  # outcome o comes from a complement side


def _leading(moves, width: int) -> np.ndarray:
    """The row that each input |0 x> reaches through ``moves``, the leading X, CX and MCX gates."""
    rows = np.arange(1 << width)
    src, _ = _monomial(moves, rows, [width - 1 - q for q in range(width)])
    first = np.empty_like(src)
    first[src] = rows
    return first[: len(rows) >> 1]  # inputs |0 x> have the clean bit 0


def _sides(blk: np.ndarray, a_of: np.ndarray, nd: int, na: int, nbits: int):
    """Each b's side and the start entries of its columns.

    Input x sits in block blk[x] (its D-value in the low nd bits) at A-value
    a_of[x].  Returns (comp, ncols, levels, owner, entries).  b takes its
    complement side when comp[b] and sums the columns that block owner[b]
    runs: ncols of them, at positions below 2**levels.  owner[b] is b,
    except that a complement side reuses the columns of a direct side with
    the same D-value that runs exactly its A-values (a complement may be
    summed in any order).  ``entries`` are the arrays (block, A-value,
    position).
    """
    nblocks = 1 << (nbits + 1 - na)
    count = np.bincount(blk, minlength=nblocks)
    comp = count > (1 << na) - count
    present = np.zeros((nblocks, 1 << na), dtype=bool)
    present[blk, a_of] = True
    owner = np.arange(nblocks)
    runs = {}
    for b in np.flatnonzero(~comp & (count > 0)):
        runs.setdefault((b & ((1 << nd) - 1), present[b].tobytes()), b)
    for b in np.flatnonzero(comp & (count < 1 << na)):
        owner[b] = runs.get((b & ((1 << nd) - 1), (~present[b]).tobytes()), b)
    ncols = np.where(comp, (1 << na) - count, count)
    ncols[owner != np.arange(nblocks)] = 0

    xs = np.flatnonzero(~comp[blk])
    xs = xs[np.argsort(blk[xs], kind="stable")]
    pos, levels = _tree_positions(xs, blk[xs], nblocks, nbits)
    cb = np.flatnonzero(comp & (ncols > 0))
    which, avals = np.nonzero(~present[cb])
    levels[cb] = np.frexp(ncols[cb] - 1)[1]
    entries = (
        np.concatenate([blk[xs], cb[which]]),
        np.concatenate([a_of[xs], avals]),
        np.concatenate([pos, np.arange(len(avals)) - (np.cumsum(ncols[cb]) - ncols[cb])[which]]),
    )
    return comp, ncols, levels, owner, entries


def _slots(ncols: np.ndarray, levels: np.ndarray, nd: int):
    """(slot of each b, log2 width of each slot).

    Slot k holds the k-th widest side of each D-value.  Slot widths do not
    increase, so every slot starts at a multiple of its width.  A b with no
    columns gets the slot number len(slots).
    """
    jobs = np.flatnonzero(ncols)
    job_d = jobs & ((1 << nd) - 1)
    order = np.lexsort((jobs, -levels[jobs], job_d))
    jobs, job_d = jobs[order], job_d[order]
    idx = np.arange(len(jobs))
    new_d = np.ones(len(jobs), dtype=bool)
    new_d[1:] = job_d[1:] != job_d[:-1]
    rank = idx - np.maximum.accumulate(np.where(new_d, idx, 0))
    slot_levels = np.zeros(int(rank.max(initial=-1)) + 1, dtype=np.int64)
    np.maximum.at(slot_levels, rank, levels[jobs])
    slot_of = np.full(len(ncols), len(slot_levels))
    slot_of[jobs] = rank
    return slot_of, slot_levels


def _program(body, rows_of: tuple[int, ...]):
    """(steps, final rows, H count) of ``body`` on the qubits ``rows_of``.

    Rows index the qubits in ``rows_of``, the first most significant, so
    qubit rows_of[i] sits on stored bit nr-1-i throughout.
    """
    nr = len(rows_of)
    rows = np.arange(1 << nr)
    pos = {q: nr - 1 - i for i, q in enumerate(rows_of)}
    steps = []
    run: list[Gate] = []
    n_h = 0
    for g in body:
        if g.kind != "H":
            run.append(g)
            continue
        if run:
            idx, phase = _monomial(run, rows, pos)
            if np.array_equal(idx, rows):
                idx = None
            if idx is not None or phase is not None:
                steps.append(("gather", idx, phase))
            run = []
        steps.append(("h", pos[g.targets[0]]))
        n_h += 1
        if n_h % _RESCALE_EVERY == 0:
            steps.append(("scale",))
    src, _ = _monomial(run, rows, pos)  # trailing phases do not change |amplitude|**2
    return tuple(steps), src, n_h


def _chunk_list(slot_sizes: tuple, cols: int) -> tuple:
    """(first column, columns) of each chunk: each slot cut into chunks of min(cols, its width) columns."""
    chunks = []
    c0 = 0
    for span in slot_sizes:
        size = min(cols, span)
        chunks.extend((c, size) for c in range(c0, c0 + span, size))
        c0 += span
    return tuple(chunks)


@functools.lru_cache(maxsize=1)
def _layout(width: int, moves: tuple, a_qubits: tuple, d_qubits: tuple, flip_b: int) -> tuple:
    """The plan fields that depend on neither the body nor the chunks: (fields, out_index).

    ``fields`` maps start_rows, start_cols, slot_sizes, out_slot and
    out_comp to their values, and ``out_index`` is each outcome's run-qubit
    value, which indexes the final rows of the steps to give out_row.
    ``moves`` is the leading X, CX and MCX gates and ``flip_b`` the later X
    gates on B as a mask of outcome bits.  The arrays are read-only: every
    plan whose circuit hits the cache shares them.
    """
    r_qubits = a_qubits + d_qubits
    fd_qubits = tuple(q for q in range(width) if q not in r_qubits) + d_qubits  # F, then D
    nd = len(d_qubits)
    first = _leading(moves, width)

    # A block b is (F-value, D-value), the D-value in the low bits.
    blk = _pack(first, fd_qubits, width)
    a_of = _pack(first, a_qubits, width)
    comp, ncols, levels, owner, (e_blk, e_a, e_pos) = _sides(blk, a_of, nd, len(a_qubits), width - 1)
    slot_of, slot_levels = _slots(ncols, levels, nd)
    slot_of = slot_of[owner]
    sizes = np.left_shift(1, slot_levels)
    e_col = (np.cumsum(sizes) - sizes)[slot_of[e_blk]] + e_pos
    by_col = np.argsort(e_col, kind="stable")
    e_row = (e_a << nd) | (e_blk & ((1 << nd) - 1))

    rows = np.arange(1 << width)
    out_blk = _pack(rows ^ flip_b, fd_qubits, width)
    fields = {
        "start_rows": e_row[by_col],
        "start_cols": e_col[by_col],
        "slot_sizes": tuple(sizes.tolist()),
        "out_slot": slot_of[out_blk],
        "out_comp": comp[out_blk],
    }
    out_index = _pack(rows, r_qubits, width)
    for a in (*fields.values(), out_index):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return MappingProxyType(fields), out_index


def _compile(u: Circuit, *, threads: int = 1) -> _Plan:
    """Plan for chunks of at most _CHUNK_ENTRIES entries, each inside one slot.

    Only the chunk columns depend on _CHUNK_ENTRIES and ``threads``.
    With ``threads`` > 1 the chunks are halved until there are ``threads``
    of them or a half would hold fewer than _MIN_CHUNK_ENTRIES entries, so
    a plan of at least twice that many entries runs in two chunks or more
    and a one-column plan stays one chunk.

    Only the steps, the chunks and ``out_row`` are compiled per call; every
    other field comes from the memoised ``_layout`` (see the plan section).
    """
    width = u.width
    gates = u.gates
    lead = next((i for i, g in enumerate(gates) if g.kind == "H"), len(gates))
    body = gates[lead:]
    mixed = {g.targets[0] for g in body if g.kind in _MIXING_KINDS}
    read = {q for g in body if g.kind != "H" for q, _ in _condition(g)}
    a_qubits = tuple(q for q in range(width) if q in mixed)
    d_qubits = tuple(q for q in range(width) if q not in mixed and q in read)
    # Later X gates on B; on F they are all there is, so they leave the plan.
    flip_b = 0
    for g in body:
        if g.kind == "X" and g.targets[0] not in mixed:
            flip_b ^= 1 << (width - 1 - g.targets[0])
    body = [g for g in body if g.targets[0] in mixed or g.targets[0] in read]

    moves = tuple(g for g in gates[:lead] if g.kind in _PERMUTATION_KINDS)
    fields, out_index = _layout(width, moves, a_qubits, d_qubits, flip_b)
    nr = len(a_qubits) + len(d_qubits)
    sizes = fields["slot_sizes"]
    cols = max(1, min(_CHUNK_ENTRIES >> nr, sizes[0] if sizes else 1))
    chunks = _chunk_list(sizes, cols)
    # Halve the chunks for more threads while each keeps _MIN_CHUNK_ENTRIES.
    while len(chunks) < threads and (cols >> 1) << nr >= _MIN_CHUNK_ENTRIES:
        cols >>= 1
        chunks = _chunk_list(sizes, cols)

    steps, final_rows, n_h = _program(body, a_qubits + d_qubits)
    return _Plan(
        steps=steps,
        rows=len(final_rows),
        pending_h=n_h % _RESCALE_EVERY,
        cols=cols,
        chunks=chunks,
        out_row=final_rows[out_index],
        **fields,
    )


def _block_rows(dim: int, live: int, fixed: int) -> np.ndarray:
    """The stored rows of the block (live, fixed) in order: those r < dim with r & ~live == fixed."""
    return np.flatnonzero((np.arange(dim) & ~live) == fixed)


def _compress(rows: np.ndarray, live: int, nbits: int) -> np.ndarray:
    """The bits of nbits-bit ``rows`` on the set bits of ``live``, in order: their places in the block."""
    return _pack(rows, [q for q in range(nbits) if live >> (nbits - 1 - q) & 1], nbits)


def _run_plan(plan: _Plan, chunk: tuple, bufs) -> np.ndarray:
    """Sum of |amplitude|**2 over the columns of a chunk, per stored row.

    ``chunk`` is (first column, columns) and ``bufs`` holds two buffers of
    at least rows * columns entries.  Columns are summed by an
    adjacent-pair tree, so the sum is a subtree of the tree over the
    chunk's slot, whatever the chunk width.  A batch chunk (``_batch``)
    is wider than ``plan.cols`` and holds whole members of that many
    columns each: it gives their sums side by side, per stored row.

    The steps run on the chunk's block of rows (see the plan section):
    the stored rows r with ``r & ~live == fixed``, packed in order, and
    the rows outside it come back as exact zeros.
    """
    c0, cols = chunk
    members = max(1, cols // plan.cols)
    dim = plan.rows
    nbits = dim.bit_length() - 1
    a, b = np.searchsorted(plan.start_cols, (c0, c0 + cols))
    if a == b:
        return np.zeros(dim * members)
    start = plan.start_rows[a:b]
    live = int(np.bitwise_or.reduce(start ^ start[0]))
    fixed = int(start[0]) & ~live
    size = 1 << live.bit_count()
    buf, spare = bufs
    amps = buf[: size * cols].reshape(size, cols)
    amps.fill(0.0)
    amps[_compress(start, live, nbits), plan.start_cols[a:b] - c0] = 1.0
    with _ufunc_buffer(_PLAN_BUFFER):
        for step in plan.steps:
            if step[0] == "h":
                bit = step[1]
                low = (live & ((1 << bit) - 1)).bit_count()  # the bit's place in the block
                # Float views: halves on the block's bit 0 are runs of
                # 2 * cols floats; as runs of cols complex entries they took
                # 2.4 ms against 1.6 ms at n = 12, even under the small buffer.
                flat = amps.view(np.float64)
                if live >> bit & 1:
                    view = flat.reshape(size >> (low + 1), 2, (2 * cols) << low)
                    _butterfly(view[:, 0], view[:, 1], 0)
                    continue
                # A settled bit doubles the block: the butterfly of (x, 0) is
                # (x, x) and that of (0, x) is (x, -x).  Above every live bit
                # x already lies in the first half, so only the second is written.
                x = flat.reshape(size >> low, (2 * cols) << low)
                top = size >> low == 1
                grown = (buf if top else spare)[: 2 * size * cols].view(np.float64)
                grown = grown.reshape(size >> low, 2, (2 * cols) << low)
                if not top:
                    np.positive(x, out=grown[:, 0])
                    buf, spare = spare, buf
                if fixed >> bit & 1:
                    _negate(x, grown[:, 1])
                else:
                    np.positive(x, out=grown[:, 1])
                live |= 1 << bit
                fixed &= ~live
                size *= 2
                amps = buf[: size * cols].reshape(size, cols)
            elif step[0] == "gather":
                _, idx, phase = step
                rows = slice(None)  # the block's rows, for the phase
                if idx is not None:
                    block = amps
                    if size < dim:
                        # The new block is the smallest that holds every row
                        # whose source lies in the block; the other rows read
                        # the zero row just past it.
                        inside = (idx & ~live) == fixed
                        hit = np.flatnonzero(inside)
                        reach = int(np.bitwise_or.reduce(hit ^ hit[0]))
                        base = int(hit[0]) & ~reach
                        rows = hit if len(hit) == 1 << reach.bit_count() else _block_rows(dim, reach, base)
                        idx = _compress(idx[rows], live, nbits)
                        idx[~inside[rows]] = size
                        buf[size * cols : (size + 1) * cols] = 0.0
                        block = buf[: (size + 1) * cols].reshape(size + 1, cols)
                        live, fixed, size = reach, base, len(rows)
                    np.take(block, idx, axis=0, out=spare[: size * cols].reshape(size, cols), mode="clip")
                    buf, spare = spare, buf
                    amps = buf[: size * cols].reshape(size, cols)
                elif size < dim and phase is not None:
                    rows = _block_rows(dim, live, fixed)
                if phase is not None:
                    if phase.ndim == 2:  # a batch's (rows, members) table
                        phase = phase[:, c0 // plan.cols : c0 // plan.cols + members]
                    v = amps.reshape(size, members, -1)
                    np.multiply(v, phase[rows].reshape(size, members, 1), out=v)
            else:
                flat = amps.view(np.float64)
                flat *= _RESCALE
        sums = _square_sums(amps.view(np.float64).reshape(-1), spare.view(np.float64), size * members)
    if size == dim:
        return sums.copy()
    out = np.zeros((dim, members))
    out[_block_rows(dim, live, fixed)] = sums.reshape(size, members)
    return out.reshape(-1)


def _joins(a: _Plan, b: _Plan) -> bool:
    """Whether b runs beside a in one batch: one chunk each on one cached layout, same steps but the phase tables."""

    def shape(p: _Plan) -> list:
        return [s if s[0] != "gather" else (s[1] is None or s[1].tobytes(), s[2] is None) for s in p.steps]

    return len(a.chunks) == len(b.chunks) == 1 and a.start_rows is b.start_rows and shape(a) == shape(b)


def _batch(plans: list, threads: int) -> _Plan:
    """One plan that runs ``plans``, which ``_joins`` the first, side by side: member j on its own columns.

    Each gather multiplies by a (rows, members) table of the members'
    phases.  A chunk holds whole members: all of them, halved for
    ``threads`` as ``_compile`` halves a plan's chunks.
    """
    p = plans[0]
    k, w = len(plans), p.cols
    steps = tuple(
        (*s[:2], np.stack([q.steps[i][2] for q in plans], axis=1)) if s[0] == "gather" and s[2] is not None else s
        for i, s in enumerate(p.steps)
    )
    m = k  # members per chunk
    while -(-k // m) < threads and (m >> 1) * w * p.rows >= _MIN_CHUNK_ENTRIES:
        m >>= 1
    return replace(
        p,
        steps=steps,
        start_rows=np.tile(p.start_rows, k),
        start_cols=(w * np.arange(k)[:, None] + p.start_cols).reshape(-1),
        chunks=tuple((c * w, min(m, k - c) * w) for c in range(0, k, m)),
    )


def _finished(plan: _Plan, parts, n: int) -> Distribution:
    """The distribution from the chunk sums ``parts`` of ``plan``, in chunk order, after both self-checks."""
    sums = np.zeros((len(plan.slot_sizes) + 1, plan.rows))  # the last row: no columns
    for i, size in enumerate(plan.slot_sizes):
        sums[i] = _tree_sum(islice(parts, max(1, size // plan.cols)))
    probs = sums[plan.out_slot, plan.out_row]
    np.subtract(2.0**plan.pending_h, probs, out=probs, where=plan.out_comp)
    np.maximum(probs, 0.0, out=probs, where=plan.out_comp)
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


def _distributions(circuits, threads: int):
    """Yield the distribution of each circuit in order, as ``dqc1_distribution`` defines it.

    Consecutive plans that ``_joins`` the first of them, such as the
    worst-case embeddings of one n, run as one ``_batch`` of at most
    _CHUNK_ENTRIES entries; every other plan runs alone.  Each member is
    finished as it is yielded, so a failure surfaces at its own circuit.
    The package's one worker pool, of ``threads`` workers, opens on the
    first run of more than one chunk and closes when the generator ends
    or is closed.  Each thread keeps two chunk buffers, grown as the
    plans need.
    """
    local = threading.local()
    pool = None

    def parts(plan: _Plan):
        nonlocal pool

        def one_chunk(chunk: tuple) -> np.ndarray:
            need = plan.rows * chunk[1]
            if getattr(local, "size", 0) < need:
                local.bufs, local.size = [np.empty(need, dtype=np.complex128) for _ in range(2)], need
            return _run_plan(plan, chunk, local.bufs)

        if threads == 1 or len(plan.chunks) < 2:
            return map(one_chunk, plan.chunks)
        pool = pool or stack.enter_context(ThreadPoolExecutor(max_workers=threads))
        return pool.map(one_chunk, plan.chunks)

    def run(batch: list):
        if len(batch) == 1:
            ((n, plan),) = batch
            yield _finished(plan, parts(plan), n)
        elif batch:
            joint = _batch([plan for _, plan in batch], threads)
            sums = np.concatenate([s.reshape(joint.rows, -1) for s in parts(joint)], axis=1)
            for (n, plan), column in zip(batch, sums.T):
                yield _finished(plan, iter((column,)), n)

    batch: list = []  # (n, plan) of the circuits compiled but not run
    with ExitStack() as stack:
        for u in circuits:
            plan = _compile(u, threads=threads)
            if batch and not (len(batch) < _CHUNK_ENTRIES // (plan.rows * plan.cols) and _joins(batch[0][1], plan)):
                yield from run(batch)
                batch = []
            batch.append((u.width - 1, plan))
        yield from run(batch)


# The read-ahead of a chain on this thread: (its circuits not taken yet,
# last first; the generator of their distributions).  See _reading_ahead.
_AHEAD = threading.local()


@contextmanager
def _reading_ahead(circuits, threads: int):
    """Run the block with ``dqc1_distribution`` reading ahead over ``circuits``.

    Inside it, a call on the next of ``circuits``, in order, takes its
    distribution from one ``_distributions`` over all of them, so
    consecutive same-shape plans run as one batch; any other call runs
    alone.  The generator, and its worker pool, close with the block.
    """
    dists = _distributions(circuits, threads)
    _AHEAD.chain = (list(circuits)[::-1], dists)
    try:
        yield
    finally:
        del _AHEAD.chain
        dists.close()


def dqc1_distribution(
    u: Circuit,
    *,
    max_n: int = DEFAULT_MAX_MIXED_QUBITS,
    threads: int = 1,
) -> Distribution:
    """Exact output distribution of u on |0><0| (x) I/2**n, all qubits measured.

    The output is the average of the pure output distributions of the
    inputs |0 x>.  The circuit is compiled once into a plan of fused steps
    that runs only the columns the untouched qubits leave undetermined (at
    most 2**n, one for a worst-case embedding; see the plan section), in
    column chunks on up to ``threads`` worker threads.  Consecutive calls
    whose circuits share the leading X, CX and MCX gates and the qubit
    roles, such as the embeddings of one n in a chain, share one compiled
    layout of the plan (the last one stays cached) and compile only its
    chunks and steps.  With ``threads`` > 1 the chunks are halved, down
    to _MIN_CHUNK_ENTRIES entries each, until there is one per thread, so
    a plan of at least twice that many entries runs in two chunks or more;
    a plan of one chunk, such as the one column of a worst-case embedding,
    runs on the calling thread.  Inside a chain's
    read-ahead (``_reading_ahead``) a call on the chain's next circuit
    takes its distribution from one generator over the chain, which runs
    consecutive one-chunk plans of one shape as a batch; the bytes are
    those of the call alone.
    Each row is summed over columns by an adjacent-pair tree: a chunk lies
    inside one slot and gives one sum per row, a subtree of its slot's, so
    output bits depend on neither ``threads`` nor the chunk size.  A chunk
    runs its steps only on the rows its inputs can reach, a block that the
    H gates on settled qubits and the gathers grow, and each level of its
    tree is one add over a contiguous array; neither changes a byte.

    Rows summed from their own inputs (direct sides) have the bytes of the
    full plan over all 2**n columns.  Rows found from the complement,
    (1 - s)/2**n, are exact wherever the amplitudes are, as on IQP
    circuits.  Elsewhere they carry the rounding of the unitarity sum
    sum_a |<y|W_b|a>|**2 = 1 in place of that of s: to first order at
    most (2 * gates + n) * ulp(1) * 2**-n from the full plan, and a few
    ulp(1) * 2**-n in practice (at most 2, 8 and 11 on random circuits of
    20, 100 and 400 gates).  A complement row that this rounding takes
    below 0 (s a few ulp above 1) is clamped to 0; a NaN passes through to
    the unitarity self-check.

    ``max_n`` must be an integer >= 0 and ``threads`` one >= 1; other
    values raise a one-line ValueError before any work.
    """
    max_n = _int_at_least(max_n, "max_n", 0)
    threads = _int_at_least(threads, "threads", 1)
    n = u.width - 1
    if n > max_n:
        msg = f"n={n} mixed qubits exceeds the cap of {max_n} (up to 2**n columns); raise max_n to override"
        raise ValueError(msg)
    rest, dists = getattr(_AHEAD, "chain", ((), None))
    if rest and rest[-1] is u:
        rest.pop()
        return next(dists)
    (d,) = _distributions((u,), threads)
    return d


def sample(d: Distribution, count: int, seed: int) -> list[str]:
    """Draw ``count`` outcome bit strings; identical (d, count, seed) give identical draws."""
    count = _int_at_least(count, "count", 0)
    rng = np.random.default_rng(_int_at_least(seed, "seed", 0))
    p = np.maximum(d.probs, 0.0)
    p = p / p.sum()
    width = d.n + 1
    draws = rng.choice(len(p), size=count, p=p)
    return [format(int(i), f"0{width}b") for i in draws]
