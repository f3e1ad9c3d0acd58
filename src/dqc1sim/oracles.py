"""Brute-force reference evaluators.

Everything here recomputes a quantity the fast paths also produce, by the
most literal route available: exhaustive enumeration over assignments, or
explicit dense matrices multiplied together.  None of it shares kernels
with the simulator module, so agreement between the two is evidence, not
tautology.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, Gate, IsingInstance, PolyF2
from .simulator import Distribution

__all__ = [
    "gap",
    "ising_partition_function",
    "circuit_unitary",
    "density_matrix_dqc1",
]

# Caps on each brute-force route: 2**n entries per enumeration, and a
# dense 2**w x 2**w matrix per gate.
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


_SINGLE_QUBIT_MATRIX = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.diag([1.0, -1.0]).astype(np.complex128),
    "S": np.diag([1.0, 1.0j]),
    "SDG": np.diag([1.0, -1.0j]),
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    "TDG": np.diag([1.0, np.exp(-1j * np.pi / 4)]),
}


def _gate_matrix(g: Gate, width: int) -> np.ndarray:
    dim = 1 << width
    if g.kind in _SINGLE_QUBIT_MATRIX or g.kind == "RZ":
        if g.kind == "RZ":
            m2 = np.diag([np.exp(-0.5j * g.theta), np.exp(0.5j * g.theta)])
        else:
            m2 = _SINGLE_QUBIT_MATRIX[g.kind]
        q = g.targets[0]
        left = np.eye(1 << q, dtype=np.complex128)
        right = np.eye(1 << (width - 1 - q), dtype=np.complex128)
        return np.kron(np.kron(left, m2), right)

    idx = np.arange(dim)

    def bit(q: int) -> np.ndarray:
        return (idx >> (width - 1 - q)) & 1

    if g.kind in ("CZ", "CCZ"):
        mask = np.ones(dim, dtype=bool)
        for q in g.targets:
            mask &= bit(q) == 1
        return np.diag(np.where(mask, -1.0, 1.0)).astype(np.complex128)

    # CX / MCX: a permutation flipping the target where controls match.
    pols = g.polarities if g.kind == "MCX" else (1,)
    fire = np.ones(dim, dtype=bool)
    for q, want in zip(g.controls, pols):
        fire &= bit(q) == want
    flipped = idx ^ (1 << (width - 1 - g.targets[0]))
    image = np.where(fire, flipped, idx)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[image, idx] = 1.0
    return mat


def circuit_unitary(c: Circuit) -> np.ndarray:
    """The circuit's full 2**w x 2**w matrix, one explicit matmul per gate.

    The cap, width 10, is what this route can serve: each matrix
    takes 16 MiB and each gate is a 1024**3 matmul.  At width 12 each
    matrix would take 256 MiB and each gate a 4096**3 matmul.
    """
    if c.width > _MAX_WIDTH:
        msg = f"width {c.width} exceeds the dense-matrix cap of {_MAX_WIDTH}"
        raise ValueError(msg)
    u = np.eye(1 << c.width, dtype=np.complex128)
    for g in c.gates:
        u = _gate_matrix(g, c.width) @ u
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
