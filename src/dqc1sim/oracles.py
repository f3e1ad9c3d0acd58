"""Brute-force reference evaluators.

Everything here recomputes a quantity the fast paths also produce, by the
most literal route available: exhaustive enumeration over assignments, or
one full matrix that each gate updates row by row, by its textbook
definition.  None of it shares kernels with the simulator module, so
agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, IsingInstance, PolyF2
from .simulator import Distribution

__all__ = [
    "gap",
    "ising_partition_function",
    "circuit_unitary",
    "density_matrix_dqc1",
]

# Caps on each brute-force route: 2**n entries per enumeration, and one
# dense 2**w x 2**w matrix per circuit.
_MAX_VARS = 24
_MAX_SPINS = 20
_MAX_WIDTH = 10
_MAX_N = 6


def gap(f: PolyF2) -> int:
    """#(f=0) - #(f=1) over all 2**n assignments, as an exact integer.

    Bit-parallel: variable v lives in bit (n-1-v) of the assignment index,
    matching the qubit convention, though the sum is order-blind anyway.
    """
    n = f.n_vars
    if n > _MAX_VARS:
        msg = f"n_vars={n} exceeds the cap of {_MAX_VARS}"
        raise ValueError(msg)
    xs = np.arange(1 << n, dtype=np.uint32)
    values = np.zeros(1 << n, dtype=np.uint32)
    for mono in f.monomials:
        term = np.ones(1 << n, dtype=np.uint32)
        for v in mono:
            term &= xs >> (n - 1 - v)
        values ^= term & 1
    ones = int(values.sum(dtype=np.int64))
    return (1 << n) - 2 * ones


def ising_partition_function(m: IsingInstance) -> complex:
    """Sum of exp(i * energy(s)) over all spin strings s in {+1, -1}**n.

    energy(s) = sum_{j<k} theta_jk s_j s_k + sum_j theta_j s_j.  Spin j
    reads bit (n-1-j) of the enumeration index, with bit 0 -> s = +1.
    """
    n = m.n_spins
    if n > _MAX_SPINS:
        msg = f"n_spins={n} exceeds the cap of {_MAX_SPINS}"
        raise ValueError(msg)
    xs = np.arange(1 << n, dtype=np.uint32)

    def spins(j: int) -> np.ndarray:
        return 1.0 - 2.0 * ((xs >> (n - 1 - j)) & 1)

    energy = np.zeros(1 << n, dtype=np.float64)
    for j, k, theta in m.couplings:
        energy += theta * spins(j) * spins(k)
    for j, theta in m.fields:
        energy += theta * spins(j)
    return complex(np.exp(1j * energy).sum())


# The phase each diagonal gate but RZ puts on the rows where all its
# targets read 1.
_PHASE = {
    "Z": -1.0, "S": 1.0j, "SDG": -1.0j, "T": np.exp(0.25j * np.pi), "TDG": np.exp(-0.25j * np.pi),
    "CZ": -1.0, "CCZ": -1.0,
}


def circuit_unitary(c: Circuit) -> np.ndarray:
    """The circuit's full 2**w x 2**w matrix, each gate applied to its rows.

    Starts from the identity and applies each gate, by its textbook
    definition, to the rows of that one matrix; qubit q is bit (w-1-q) of
    the row index.  H replaces each row pair (r0, r1) of its qubit by
    ((r0 + r1)/sqrt 2, (r0 - r1)/sqrt 2).  X, CX and MCX swap the row pairs
    of their target where the controls hold at their polarities.  The
    diagonal gates scale the rows where all their targets read 1, and RZ
    also scales the other rows, by exp(-i theta/2).  Each gate costs
    O(4**w).  The cap, width 10, keeps the one matrix at 16 MiB; at width
    12 it would take 256 MiB.
    """
    w = c.width
    if w > _MAX_WIDTH:
        msg = f"width {w} exceeds the dense-matrix cap of {_MAX_WIDTH}"
        raise ValueError(msg)
    rows = np.arange(1 << w)
    u = np.eye(1 << w, dtype=np.complex128)

    def rows_where(*reads) -> np.ndarray:
        """The rows at which every qubit q of the (q, value) pairs reads value."""
        return rows[np.all([((rows >> (w - 1 - q)) & 1) == value for q, value in reads], axis=0)]

    for g in c.gates:
        t = g.targets[0]
        flip = 1 << (w - 1 - t)
        if g.kind == "H":
            r0 = rows_where((t, 0))
            r1 = r0 | flip
            u[r0], u[r1] = (u[r0] + u[r1]) / np.sqrt(2.0), (u[r0] - u[r1]) / np.sqrt(2.0)
        elif g.kind in ("X", "CX", "MCX"):
            r0 = rows_where((t, 0), *zip(g.controls, g.polarities or (1,)))
            u[r0], u[r0 | flip] = u[r0 | flip], u[r0]
        elif g.kind == "RZ":
            u[rows_where((t, 0))] *= np.exp(-0.5j * g.theta)
            u[rows_where((t, 1))] *= np.exp(0.5j * g.theta)
        else:
            u[rows_where(*((q, 1) for q in g.targets))] *= _PHASE[g.kind]
    return u


def density_matrix_dqc1(u: Circuit) -> Distribution:
    """Literal route to the one-clean-qubit distribution.

    Builds the full unitary, conjugates rho = |0><0| (x) I/2**n as an
    explicit matrix product, and reads off the diagonal.
    """
    n = u.width - 1
    if n > _MAX_N:
        msg = f"n={n} exceeds the density-matrix cap of {_MAX_N}"
        raise ValueError(msg)
    half = 1 << n
    rho = np.zeros((2 * half, 2 * half), dtype=np.complex128)
    rho[:half, :half] = np.eye(half) / half
    mat = circuit_unitary(u)
    out = mat @ rho @ mat.conj().T
    diag = np.real(np.diagonal(out)).copy()
    if diag.min(initial=0.0) < -1e-12:
        msg = f"diagonal entry {diag.min()} is negative; oracle defect"
        raise RuntimeError(msg)
    np.maximum(diag, 0.0, out=diag)
    return Distribution(n, diag)
