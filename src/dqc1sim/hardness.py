"""The worst-case constructions and every bound in the hardness chain.

The chain being checked, per circuit ensemble and noise model:

1.  Anti-concentration is free: every outcome probability of a
    one-clean-qubit circuit is at most 2**-n.
2.  A sampler within total-variation budget eps has few per-outcome
    outliers (Markov's inequality): the fraction of pairs (z, U) with
    |p_z - q_z| >= eps / (2**(n+1) * delta), not counting p_z = q_z, is at
    most delta.
3.  The heavy set, pairs with eps / (2**(n+1) * delta) <= p_z / 3 and
    p_z > 0, always holds more than (1 - 3 eps/delta) / (2 - 3 eps/delta)
    of all pairs (at eps = 0, at least half of them).
4.  Feeding the sampler's q_z through a relative-error counter therefore
    estimates 2**n p_z within a factor of 1/2 on more than
    F = 1 - delta - 1/(2 - 3 eps/delta) of the pairs.

Total variation distance here is the unhalved L1 form, sum_z |p_z - q_z|,
so disjoint distributions are at distance 2 and the budget eps pairs off
directly against the Markov threshold above.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .circuits import Circuit, _checked_circuit, _checked_gate, _finite, _int_at_least, _listed, adjoint, cx, mcx, shift_qubits, x
from .simulator import DEFAULT_MAX_MIXED_QUBITS, Distribution, _reading_ahead, dqc1_distribution

__all__ = [
    "ErrorBudget",
    "SamplerModel",
    "Ensemble",
    "ChainReport",
    "build_worst_case_embedding",
    "build_postselection_pair",
    "total_variation_distance",
    "make_noisy_distribution",
    "approximate_count",
    "success_fraction_bound",
    "verify_chain",
]


@dataclass(frozen=True)
class ErrorBudget:
    """The three error knobs of the chain.

    eps: total-variation budget granted to the sampler.
    delta: Markov outlier budget; the defaults tie delta = 6 * eps.
    eta: relative error of the counting oracle.

    The chain needs 3*eps/delta < 1 to say anything at all.  eps = 0 is
    allowed (an exact sampler) so the bound formulas can be evaluated at
    that corner too.  Each knob is stored as a float.
    """

    eps: float = 1.0 / 36.0
    delta: float = 1.0 / 6.0
    eta: float = 1.0 / 100.0

    def __post_init__(self) -> None:
        for field in ("eps", "delta", "eta"):
            object.__setattr__(self, field, _finite(getattr(self, field), field))
        if not 0.0 <= self.eps:
            msg = f"eps must be nonnegative, got {self.eps}"
            raise ValueError(msg)
        if not 0.0 < self.delta < 1.0:
            msg = f"delta must lie in (0, 1), got {self.delta}"
            raise ValueError(msg)
        if not 0.0 <= self.eta < 1.0:
            msg = f"eta must lie in [0, 1), got {self.eta}"
            raise ValueError(msg)
        if 3.0 * self.eps / self.delta >= 1.0:
            msg = f"need 3*eps/delta < 1, got {3.0 * self.eps / self.delta}"
            raise ValueError(msg)


@dataclass(frozen=True)
class SamplerModel:
    """How the hypothetical classical sampler deviates from the exact p.

    exact:          q = p.
    mixture(lam):   q = (1-lam) p + lam * uniform; TV <= 2*lam.
    mass_shift(t):  moves t/2 of mass from the largest entries to the
                    smallest entry that gives nothing, so TV is exactly t
                    unless every entry gives (full support at t = 2).
                    That entry is at most the mean 2**-(n+1), so it ends
                    under 2**-n + t/2.
    """

    kind: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "mixture", "mass_shift"):
            msg = f"unknown sampler kind {self.kind!r}"
            raise ValueError(msg)
        object.__setattr__(self, "param", _finite(self.param, "sampler parameter"))
        if self.kind == "mixture" and not 0.0 <= self.param <= 1.0:
            msg = f"mixture weight must lie in [0, 1], got {self.param}"
            raise ValueError(msg)
        if self.kind == "mass_shift" and not 0.0 <= self.param <= 2.0:
            msg = f"mass_shift distance must lie in [0, 2], got {self.param}"
            raise ValueError(msg)

    @classmethod
    def exact(cls) -> "SamplerModel":
        return cls("exact")

    @classmethod
    def mixture(cls, lam: float) -> "SamplerModel":
        return cls("mixture", lam)

    @classmethod
    def mass_shift(cls, tv: float) -> "SamplerModel":
        return cls("mass_shift", tv)

    @classmethod
    def parse(cls, text: str) -> "SamplerModel":
        kind, sep, param = text.partition(":")
        if kind == "exact" and not sep:
            return cls.exact()
        if kind in ("mixture", "mass_shift") and sep:
            try:
                value = float(param)
            except ValueError:
                msg = f"sampler parameter must be a number, got {param!r}"
                raise ValueError(msg) from None
            return cls(kind, value)
        msg = f"sampler must be 'exact', 'mixture:LAMBDA' or 'mass_shift:TV', got {text!r}"
        raise ValueError(msg)

    def __str__(self) -> str:
        if self.kind == "exact":
            return "exact"
        return f"{self.kind}:{self.param!r}"


@dataclass(frozen=True)
class Ensemble:
    """A finite stand-in for a circuit family: n mixed qubits, width n+1 each."""

    n: int
    circuits: tuple[Circuit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _int_at_least(self.n, "n", 0))
        object.__setattr__(self, "circuits", _listed(self.circuits, "circuits", "Circuits"))
        if not self.circuits:
            msg = "ensemble must contain at least one circuit"
            raise ValueError(msg)
        for i, c in enumerate(self.circuits):
            if not isinstance(c, Circuit):
                msg = f"circuit {i} is not a Circuit: {c!r}"
                raise ValueError(msg)
            if c.width != self.n + 1:
                msg = f"circuit {i} has width {c.width}, ensemble needs {self.n + 1}"
                raise ValueError(msg)

    def __len__(self) -> int:
        return len(self.circuits)


def build_worst_case_embedding(c: Circuit) -> Circuit:
    """Wrap an n-qubit circuit so one clean qubit reveals its zero-zero amplitude.

    Returns the (n+1)-qubit U with f_value(U, 0**(n+1)) = |<0..0|C|0..0>|**2:
    the adjoint of U runs C on qubits 1..n and then flips qubit 0 unless
    the rest is all zero (an X undone by an anti-controlled MCX).
    """
    n = c.width
    # The flip gates are valid by construction: distinct wires 0..n, n >= 1 controls.
    flip = (_checked_gate("X", (0,), (), (), None), _checked_gate("MCX", (0,), tuple(range(1, n + 1)), (0,) * n, None))
    return adjoint(_checked_circuit(n + 1, shift_qubits(c, 1, n + 1).gates + flip))


def build_postselection_pair(v: Circuit) -> tuple[Circuit, Circuit]:
    """Two embeddings of V whose f-values are its one- and two-qubit zero marginals.

    For V on n >= 2 qubits, returns (U1, U2) on n+1 qubits with
    f_value(U1, 0...0) = Pr[first output qubit of V|0..0> is 0] and
    f_value(U2, 0...0) = Pr[first two output qubits are 00], so their
    ratio is the postselected conditional probability.
    """
    n = v.width
    if n < 2:
        msg = f"need at least 2 qubits to take a two-qubit marginal, got {n}"
        raise ValueError(msg)
    shifted = list(shift_qubits(v, 1, n + 1).gates)

    u1_dagger = Circuit(n + 1, tuple(shifted + [cx(1, 0)]))
    u2_dagger = Circuit(
        n + 1,
        tuple(shifted + [x(0), mcx(0, (1, 2), (0, 0))]),
    )
    return adjoint(u1_dagger), adjoint(u2_dagger)


def _prob_array(p) -> np.ndarray:
    if isinstance(p, Distribution):
        return p.probs
    return np.asarray(p, dtype=np.float64)


def total_variation_distance(p, q) -> float:
    """Unhalved L1 distance sum_z |p_z - q_z| (disjoint supports give 2)."""
    a = _prob_array(p)
    b = _prob_array(q)
    if a.shape != b.shape:
        msg = f"length mismatch: {a.shape} vs {b.shape}"
        raise ValueError(msg)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        msg = "probabilities must be finite, got NaN or infinity"
        raise ValueError(msg)
    return float(np.abs(a - b).sum())


def make_noisy_distribution(p: Distribution, model: SamplerModel) -> Distribution:
    """Apply a sampler model to an exact distribution, returning the sampler's q."""
    probs = p.probs
    if model.kind == "exact":
        return Distribution(p.n, probs.copy())
    if model.kind == "mixture":
        lam = model.param
        uniform = 1.0 / len(probs)
        return Distribution(p.n, (1.0 - lam) * probs + lam * uniform)

    # mass_shift: donate t/2 from the largest entries (stable index order on
    # ties) and deposit it all on the smallest entry that gave nothing (the
    # lowest index on ties).
    half = model.param / 2.0
    q = probs.copy()
    if half == 0.0:
        return Distribution(p.n, q)

    gave = np.zeros(len(probs), dtype=bool)
    left = half
    for i in np.argsort(-probs, kind="stable"):
        if left <= 0.0:
            break
        take = min(left, q[i])
        if take > 0.0:
            q[i] -= take
            left -= take
            gave[i] = True
    if left > 1e-15:
        msg = f"cannot move {half} of mass: only {half - left} available"
        raise ValueError(msg)
    if gave.all():
        msg = f"cannot place {half} of mass: every entry gave"
        raise ValueError(msg)
    # Donors are taken largest first, so the smallest entry that gave
    # nothing is at most the mean 2**-(n+1) and ends at most 2**-n + t/2:
    # no cap on the receiver can bind.
    q[np.argmin(np.where(gave, np.inf, probs))] += half
    return Distribution(p.n, q)


def approximate_count(
    q: float | np.ndarray, eta: float, seed: int | np.random.SeedSequence
) -> float | np.ndarray:
    """A counting oracle with relative error eta: q * (1 + u), u ~ U[-eta, eta].

    ``q`` is a count or an array of counts, each with its own draw.
    Deterministic in ``seed`` (an int or a ``SeedSequence``); eta = 0 or
    q = 0 return q unchanged.
    """
    counts = np.asarray(q, dtype=np.float64)
    if not (counts >= 0.0).all():
        msg = f"counts must be nonnegative, got {counts.min()}"
        raise ValueError(msg)
    if not 0.0 <= eta < 1.0:
        msg = f"eta must lie in [0, 1), got {eta}"
        raise ValueError(msg)
    u = np.random.default_rng(seed).uniform(-eta, eta, size=counts.shape)
    out = counts * (1.0 + u)
    return float(out) if out.ndim == 0 else out


def _markov_threshold(n: int, budget: ErrorBudget) -> float:
    return budget.eps / (2.0 ** (n + 1) * budget.delta)


def _heavy_bound(budget: ErrorBudget) -> float:
    r = 3.0 * budget.eps / budget.delta
    return (1.0 - r) / (2.0 - r)


def success_fraction_bound(budget: ErrorBudget) -> float:
    """F = 1 - delta - 1/(2 - 3 eps/delta): guaranteed success fraction.

    At the default budget this is exactly 1/6.  Near 3 eps/delta = 1 the
    value goes negative, i.e. the bound is vacuous; callers treat F <= 0
    as nothing-to-check.
    """
    r = 3.0 * budget.eps / budget.delta
    return 1.0 - budget.delta - 1.0 / (2.0 - r)


def _pair_counts(
    ens: Ensemble, sampler: SamplerModel, budget: ErrorBudget, seed: int, threads: int
) -> tuple[int, int, int]:
    """Markov-outlier, heavy and counter-success pairs (z, U) over the ensemble.

    One pass per circuit, in order: p_z from ``dqc1_distribution``, which
    reads ahead over the ensemble (``_reading_ahead``), so consecutive
    embeddings of one n run as one batch and one chunk pool of up to
    ``threads`` workers serves every circuit; q_z from the sampler model
    (which must honor the TV budget), and q~_z from the eta-relative
    counter on stream (seed, i) for circuit i, so counts do not depend on
    ``threads``.  A batch holds at most _CHUNK_ENTRIES entries of member
    row sums, and each distribution is dropped once counted.  A pair
    succeeds when |q~_z * 2**n - f| < f/2 with f = p_z * 2**n; pairs with
    f = 0 succeed only if q~_z = 0.  ``threads`` must be an integer >= 1, and n at most
    the simulator's default cap: the chain takes no ``max_n``, so a larger
    n fails here before any circuit runs.
    """
    threads = _int_at_least(threads, "threads", 1)
    n = ens.n
    if n > DEFAULT_MAX_MIXED_QUBITS:
        msg = f"n={n} mixed qubits exceeds the chain's cap of {DEFAULT_MAX_MIXED_QUBITS}"
        raise ValueError(msg)
    thr = _markov_threshold(n, budget)

    def per_circuit(i: int) -> tuple[int, int, int]:
        p = dqc1_distribution(ens.circuits[i], threads=threads)
        q = make_noisy_distribution(p, sampler)
        tv = total_variation_distance(p, q)
        if tv > budget.eps + 1e-12:
            msg = f"circuit {i}: sampler TV {tv} exceeds the TV budget eps={budget.eps}"
            raise ValueError(msg)
        q_tilde = approximate_count(
            q.probs, budget.eta, np.random.SeedSequence(seed, spawn_key=(i,))
        )

        f = p.probs * float(1 << n)
        estimate = q_tilde * float(1 << n)
        zero = p.probs == 0.0
        good = np.where(zero, q_tilde == 0.0, np.abs(estimate - f) < f / 2.0)

        # At eps = 0 the threshold is 0, and both steps take the limit
        # t -> 0+: a pair with p_z = q_z is never an outlier, and a pair
        # with p_z = 0 is never heavy.
        diff = np.abs(p.probs - q.probs)
        markov = int(np.count_nonzero((diff >= thr) & (diff > 0.0)))
        heavy = int(np.count_nonzero((thr <= p.probs / 3.0) & (p.probs > 0.0)))
        return markov, heavy, int(np.count_nonzero(good))

    with _reading_ahead(ens.circuits, threads):
        return tuple(map(sum, zip(*map(per_circuit, range(len(ens))))))


@dataclass(frozen=True)
class ChainReport:
    """Observed fractions, their theoretical thresholds, and pass flags."""

    n: int
    ensemble_size: int
    budget: ErrorBudget
    sampler: str
    seed: int
    markov_fraction: float
    markov_bound: float
    markov_pass: bool
    heavy_fraction: float
    heavy_bound: float
    heavy_pass: bool
    success_fraction: float
    success_bound: float
    success_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.markov_pass and self.heavy_pass and self.success_pass

    def to_dict(self) -> dict:
        """Every field in order, the budget as eps, delta and eta, then all_pass."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "budget":
                out.update(asdict(value))
            else:
                out[f.name] = value
        out["all_pass"] = self.all_pass
        return out

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_dict().items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}={value}")
        return "\n".join(lines)


def verify_chain(
    ens: Ensemble,
    sampler: SamplerModel,
    budget: ErrorBudget,
    seed: int = 0,
    *,
    threads: int = 1,
) -> ChainReport:
    """Run the whole chain on an ensemble and report every bound.

    Pairs are counted as in ``_pair_counts``.  The counter precondition
    eta <= 1/8 keeps the estimate's worst case inside the factor-1/2 window
    on the heavy set: a heavy pair that is not an outlier has q < 4p/3,
    and q * (1 + eta) < 3p/2 holds for all such q only while eta <= 1/8.

    Bounds are recorded, not raised: the report carries observed fraction,
    threshold, and pass flag for the Markov, heavy-set, and success steps.
    At eps = 0 the heavy bound is 1/2, which a circuit whose every nonzero
    p_z sits at the ceiling 2**-n meets exactly; the step then passes at
    equality, the limit t -> 0+ of the strict bound.  ``seed`` must be an
    integer >= 0.
    """
    seed = _int_at_least(seed, "seed", 0)
    if not budget.eta <= 1.0 / 8.0:
        msg = f"need eta <= 1/8 for the factor-1/2 window, got {budget.eta}"
        raise ValueError(msg)
    markov, heavy, success = _pair_counts(ens, sampler, budget, seed, threads)
    pairs = len(ens) * (1 << (ens.n + 1))
    markov_fraction = markov / pairs
    heavy_fraction = heavy / pairs
    success_fraction = success / pairs
    heavy_bound = _heavy_bound(budget)
    success_bound = success_fraction_bound(budget)
    heavy_pass = heavy_fraction > heavy_bound or (
        budget.eps == 0.0 and heavy_fraction == heavy_bound
    )
    return ChainReport(
        n=ens.n,
        ensemble_size=len(ens),
        budget=budget,
        sampler=str(sampler),
        seed=seed,
        markov_fraction=markov_fraction,
        markov_bound=budget.delta,
        markov_pass=markov_fraction <= budget.delta,
        heavy_fraction=heavy_fraction,
        heavy_bound=heavy_bound,
        heavy_pass=heavy_pass,
        success_fraction=success_fraction,
        success_bound=success_bound,
        success_pass=success_bound <= 0.0 or success_fraction > success_bound,
    )
