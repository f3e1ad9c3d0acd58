"""Worst-case embeddings, sampler models, and the anti-concentration chain."""

import hashlib
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import dqc1sim.hardness as hardness
import dqc1sim.simulator as simulator
from dqc1sim.circuits import Circuit, PolyF2, compile_iqp_from_poly, cx, h, s, save_circuit, t, x
from dqc1sim.ensembles import (
    load_ensemble_dir,
    parse_ensemble_spec,
    random_circuit,
    random_htcx_ensemble,
    random_iqp_ensemble,
    random_poly,
)
from dqc1sim.hardness import (
    Ensemble,
    ErrorBudget,
    SamplerModel,
    approximate_count,
    build_postselection_pair,
    build_worst_case_embedding,
    make_noisy_distribution,
    success_fraction_bound,
    total_variation_distance,
    verify_chain,
)
from dqc1sim.simulator import (
    Distribution,
    StateVector,
    amplitude_zero,
    apply_circuit,
    dqc1_distribution,
    f_value,
)


def identity_ensemble(n: int) -> Ensemble:
    return Ensemble(n, (Circuit(n + 1),))


class TestErrorBudget:
    def test_defaults(self):
        b = ErrorBudget()
        assert (b.eps, b.delta, b.eta) == (1 / 36, 1 / 6, 1 / 100)

    def test_zero_eps_allowed(self):
        ErrorBudget(eps=0.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="eps"):
            ErrorBudget(eps=-0.1)
        with pytest.raises(ValueError, match="delta"):
            ErrorBudget(delta=0.0)
        with pytest.raises(ValueError, match="delta"):
            ErrorBudget(delta=1.0)
        with pytest.raises(ValueError, match="eta"):
            ErrorBudget(eta=1.0)
        with pytest.raises(ValueError, match="eta"):
            ErrorBudget(eta=-0.01)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("eps", False), ("eta", False), ("delta", True), ("eps", "0.1"), ("eps", None), ("delta", 0.5j),
            ("eps", float("nan")), ("delta", float("inf")), ("eps", float("inf")), ("eta", -float("inf")),
        ],
    )
    def test_rejects_non_reals(self, field, value):
        message = f"{field} must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ErrorBudget(**{field: value})

    def test_rejects_reals_out_of_float_range(self):
        with pytest.raises(ValueError, match=r"^eta must be a finite number, got 1\d+$"):
            ErrorBudget(eta=10**400)

    def test_stores_floats(self):
        b = ErrorBudget(eps=0, delta=np.float64(0.25), eta=Fraction(1, 50))
        assert [type(v) for v in (b.eps, b.delta, b.eta)] == [float] * 3
        assert (b.eps, b.delta, b.eta) == (0.0, 0.25, 0.02)

    def test_rejects_vacuous_combination(self):
        # 3*eps/delta must stay below 1 or the chain's bounds degenerate.
        with pytest.raises(ValueError, match="3"):
            ErrorBudget(eps=0.1, delta=0.2)


class TestSamplerModel:
    def test_parse(self):
        assert SamplerModel.parse("exact") == SamplerModel.exact()
        assert SamplerModel.parse("mixture:0.25") == SamplerModel.mixture(0.25)
        assert SamplerModel.parse("mass_shift:0.05") == SamplerModel.mass_shift(0.05)

    def test_str_round_trip(self):
        for m in (SamplerModel.exact(), SamplerModel.mixture(0.25), SamplerModel.mass_shift(1 / 36)):
            assert SamplerModel.parse(str(m)) == m

    def test_rejects(self):
        with pytest.raises(ValueError):
            SamplerModel.parse("bogus")
        with pytest.raises(ValueError):
            SamplerModel.parse("mixture:nope")
        with pytest.raises(ValueError, match="mixture"):
            SamplerModel.mixture(1.5)
        with pytest.raises(ValueError, match="mass_shift"):
            SamplerModel.mass_shift(2.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown sampler kind 'nope'$"):
            SamplerModel("nope")

    @pytest.mark.parametrize(
        ("kind", "param"),
        [("mixture", True), ("mass_shift", "0.02"), ("mixture", None), ("mixture", float("nan")),
         ("mass_shift", float("inf"))],
    )
    def test_rejects_non_real_parameters(self, kind, param):
        message = f"sampler parameter must be a finite number, got {param!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SamplerModel(kind, param)


class TestEnsembleType:
    def test_width_must_match(self):
        with pytest.raises(ValueError, match="width"):
            Ensemble(2, (Circuit(3), Circuit(2)))

    def test_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(2, ())

    def test_n_must_be_an_integer(self):
        # False used to pass as n = 0.
        with pytest.raises(ValueError, match=r"^n must be a nonnegative integer, got False$"):
            Ensemble(False, (Circuit(1),))
        with pytest.raises(ValueError, match=r"^n must be a nonnegative integer, got 1.0$"):
            Ensemble(1.0, (Circuit(2),))

    def test_member_must_be_a_circuit(self):
        # An int member used to raise AttributeError on its width.
        with pytest.raises(ValueError, match=r"^circuit 0 is not a Circuit: 1$"):
            Ensemble(2, [1, 2])
        with pytest.raises(ValueError, match=r"^circuit 1 is not a Circuit: 'u'$"):
            Ensemble(1, (Circuit(2), "u"))

    def test_len(self):
        assert len(Ensemble(1, (Circuit(2), Circuit(2)))) == 2


class TestWorstCaseEmbedding:
    def test_identity_reads_amplitude_one(self):
        u = build_worst_case_embedding(Circuit(2))
        assert u.width == 3
        assert f_value(u, "000") == pytest.approx(1.0, abs=1e-12)

    def test_x_reads_amplitude_zero(self):
        u = build_worst_case_embedding(Circuit(1, (x(0),)))
        assert f_value(u, "00") == pytest.approx(0.0, abs=1e-12)

    def test_cubic_poly_value(self):
        c = compile_iqp_from_poly(PolyF2(3, ((0, 1, 2),)))
        u = build_worst_case_embedding(c)
        assert f_value(u, "0000") == pytest.approx(0.5625, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_reads_squared_amplitude(self, seed):
        rng = np.random.default_rng(700 + seed)
        for _ in range(25):
            w = int(rng.integers(1, 6))
            c = random_circuit(w, int(rng.integers(0, 30)), rng)
            u = build_worst_case_embedding(c)
            want = abs(amplitude_zero(c)) ** 2
            assert f_value(u, "0" * (w + 1)) == pytest.approx(want, abs=1e-10)


class TestPostselectionPair:
    def test_needs_two_qubits(self):
        with pytest.raises(ValueError, match="2 qubits"):
            build_postselection_pair(Circuit(1))

    def test_hadamard_pair(self):
        v = Circuit(2, (h(0), h(1)))
        u1, u2 = build_postselection_pair(v)
        assert f_value(u1, "000") == pytest.approx(0.5, abs=1e-12)
        assert f_value(u2, "000") == pytest.approx(0.25, abs=1e-12)

    def test_marginals_and_conditional(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            w = int(rng.integers(2, 6))
            v = random_circuit(w, int(rng.integers(1, 30)), rng)
            out = apply_circuit(StateVector.zero(w), v).amplitudes
            probs = (out.real**2 + out.imag**2).reshape(2, 2, -1).sum(axis=2)
            p_first0 = probs[0].sum()
            p_first00 = probs[0, 0]
            u1, u2 = build_postselection_pair(v)
            f1 = f_value(u1, "0" * (w + 1))
            f2 = f_value(u2, "0" * (w + 1))
            assert f1 == pytest.approx(p_first0, abs=1e-10)
            assert f2 == pytest.approx(p_first00, abs=1e-10)
            if f1 > 1e-9:
                assert f2 / f1 == pytest.approx(p_first00 / p_first0, abs=1e-9)


class TestTotalVariation:
    def test_frozen_values(self):
        assert total_variation_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert total_variation_distance([1.0, 0.0], [0.0, 1.0]) == 2.0
        assert total_variation_distance([1.0, 0.0], [0.25, 0.75]) == pytest.approx(1.5)

    def test_accepts_distributions(self):
        d = dqc1_distribution(Circuit(2))
        assert total_variation_distance(d, d) == 0.0

    def test_metric_properties(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            a = rng.dirichlet(np.ones(8))
            b = rng.dirichlet(np.ones(8))
            c = rng.dirichlet(np.ones(8))
            ab = total_variation_distance(a, b)
            assert ab == pytest.approx(total_variation_distance(b, a))
            assert 0.0 <= ab <= 2.0 + 1e-12
            assert ab <= total_variation_distance(a, c) + total_variation_distance(c, b) + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            total_variation_distance([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        for p, q in (([0.5, bad], [0.5, 0.5]), ([0.5, 0.5], [bad, 0.5])):
            with pytest.raises(ValueError, match="finite") as err:
                total_variation_distance(p, q)
            assert "\n" not in str(err.value)


class TestNoisySamplers:
    def test_exact_is_copy(self):
        p = dqc1_distribution(Circuit(3))
        q = make_noisy_distribution(p, SamplerModel.exact())
        assert np.array_equal(p.probs, q.probs)
        assert q.probs is not p.probs

    def test_mixture_formula(self):
        p = dqc1_distribution(Circuit(2))
        q = make_noisy_distribution(p, SamplerModel.mixture(0.1))
        want = 0.9 * p.probs + 0.1 / len(p.probs)
        assert np.abs(q.probs - want).max() < 1e-15

    def test_mixture_tv_bound(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            p = dqc1_distribution(random_circuit(4, 25, rng))
            lam = float(rng.uniform(0, 1))
            q = make_noisy_distribution(p, SamplerModel.mixture(lam))
            assert total_variation_distance(p, q) <= 2.0 * lam + 1e-12

    def test_zero_param_is_identity(self):
        p = dqc1_distribution(Circuit(2, (h(0),)))
        for m in (SamplerModel.mixture(0.0), SamplerModel.mass_shift(0.0)):
            assert np.array_equal(make_noisy_distribution(p, m).probs, p.probs)

    def test_mass_shift_identity_case(self):
        # Identity on n=2: donate 1/72 from the largest entry, park it on a
        # zero entry; the distance comes out exactly as requested.
        p = dqc1_distribution(Circuit(3))
        q = make_noisy_distribution(p, SamplerModel.mass_shift(1 / 36))
        assert total_variation_distance(p, q) == pytest.approx(1 / 36, abs=1e-15)
        assert q.probs[0] == pytest.approx(0.25 - 1 / 72, abs=1e-15)
        assert q.probs[4] == pytest.approx(1 / 72, abs=1e-15)

    def test_mass_shift_hits_requested_distance(self):
        rng = np.random.default_rng(91)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            p = dqc1_distribution(random_circuit(n + 1, 20, rng))
            t = float(rng.uniform(0, 0.2))
            q = make_noisy_distribution(p, SamplerModel.mass_shift(t))
            assert total_variation_distance(p, q) == pytest.approx(t, abs=1e-12)
            assert q.probs.min() >= -1e-15

    def test_mass_shift_infeasible(self):
        # Uniform distribution, full distance: every entry donates, nobody
        # is left to receive.
        p = dqc1_distribution(Circuit(2, (h(0),)))
        with pytest.raises(ValueError, match="cannot place"):
            make_noisy_distribution(p, SamplerModel.mass_shift(2.0))


def _two_loop_mass_shift(p: Distribution, t: float) -> Distribution:
    """The mass shift with a recipient loop under the cap 2**-n + t/2: the oracle."""
    probs = p.probs
    half = t / 2.0
    q = probs.copy()
    if half == 0.0:
        return Distribution(p.n, q)
    cap = 2.0 ** (-p.n) + half

    donated = set()
    left = half
    for i in np.argsort(-probs, kind="stable"):
        if left <= 0.0:
            break
        take = min(left, q[i])
        if take > 0.0:
            q[i] -= take
            left -= take
            donated.add(int(i))
    if left > 1e-15:
        msg = f"cannot move {half} of mass: only {half - left} available"
        raise ValueError(msg)

    left = half
    for i in np.argsort(probs, kind="stable"):
        if left <= 0.0:
            break
        if int(i) in donated:
            continue
        give = min(left, cap - q[i])
        if give > 0.0:
            q[i] += give
            left -= give
    if left > 1e-15:
        msg = f"cannot place {half} of mass under the cap {cap}"
        raise ValueError(msg)
    return Distribution(p.n, q)


def _mass_shift(p: Distribution, t: float) -> Distribution:
    return make_noisy_distribution(p, SamplerModel.mass_shift(t))


def _shift_outcome(shift, p: Distribution, t: float):
    """q's bytes, or the error's leading words ('cannot move 0.5', 'cannot place 1.0')."""
    try:
        return shift(p, t).probs.tobytes()
    except ValueError as e:
        return str(e).partition(" of mass")[0]


_SHIFTS = (0.0, 1e-9, 1 / 36, 0.0277, 0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def shift_corpus():
    """The 220 distributions of six chain ensembles and one n = 12 embedding."""
    specs = (
        "random:iqp:4:50:24:1",
        "random:iqp:4:50:12:20260107",
        "random:htcx:3:50:20:20260108",
        "random:iqp:3:20:15:7",
        "random:htcx:6:20:40:3",
        "random:iqp:8:30:24:5",
    )
    dists = [dqc1_distribution(u) for spec in specs for u in parse_ensemble_spec(spec).circuits]
    poly = random_poly(12, 36, np.random.default_rng(12))
    dists.append(dqc1_distribution(build_worst_case_embedding(compile_iqp_from_poly(poly))))
    return dists


class TestMassShift:
    def test_matches_two_loop_reference(self, shift_corpus):
        assert len(shift_corpus) == 221
        for p in shift_corpus:
            for t in _SHIFTS:
                want = _shift_outcome(_two_loop_mass_shift, p, t)
                assert _shift_outcome(_mass_shift, p, t) == want, (p.n, t)

    def test_receiver_gains_exactly_half(self, shift_corpus):
        for p in shift_corpus:
            for t in (1e-9, 1 / 36, 0.5, 1.0):
                q = _mass_shift(p, t).probs
                gave = q < p.probs
                (receiver,) = np.flatnonzero(q > p.probs)
                smallest = np.flatnonzero(~gave & (p.probs == p.probs[~gave].min()))
                assert receiver == smallest[0]
                assert q[receiver] == p.probs[receiver] + t / 2.0

    def test_no_entry_exceeds_the_ceiling_plus_half(self, shift_corpus):
        uniform = [Distribution(n, np.full(2 << n, 0.5**(n + 1))) for n in (0, 1, 3)]
        # t = 0 leaves q = p, which the simulator lets exceed 2**-n by rounding.
        for p in shift_corpus + uniform:
            for t in _SHIFTS[1:-1]:
                q = _mass_shift(p, t).probs
                assert q.max() <= 2.0**-p.n + t / 2.0, (p.n, t)


class TestApproximateCount:
    def test_deterministic(self):
        assert approximate_count(0.5, 0.1, seed=3) == approximate_count(0.5, 0.1, seed=3)

    def test_relative_error(self):
        rng = np.random.default_rng(92)
        for i in range(200):
            q = float(rng.uniform(0, 2))
            eta = float(rng.uniform(0, 0.5))
            out = approximate_count(q, eta, seed=i)
            assert abs(out - q) <= eta * q + 1e-15

    def test_array_draws_one_factor_per_count(self):
        q = np.array([0.3, 0.0, 0.7, 0.2])
        seed = np.random.SeedSequence(5, spawn_key=(2,))
        out = approximate_count(q, 0.1, seed)
        assert out.shape == q.shape and out[1] == 0.0
        assert np.all(np.abs(out - q) <= 0.1 * q)
        assert np.array_equal(out, approximate_count(q, 0.1, np.random.SeedSequence(5, spawn_key=(2,))))
        assert out[0] == approximate_count(0.3, 0.1, np.random.SeedSequence(5, spawn_key=(2,)))

    def test_degenerate(self):
        assert approximate_count(0.7, 0.0, seed=1) == 0.7
        assert approximate_count(0.0, 0.3, seed=1) == 0.0

    def test_rejects(self):
        with pytest.raises(ValueError):
            approximate_count(-1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            approximate_count(1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            approximate_count(float("nan"), 0.1, seed=0)
        with pytest.raises(ValueError):
            approximate_count(np.array([0.5, float("nan")]), 0.1, seed=0)
        with pytest.raises(ValueError):
            approximate_count(1.0, float("nan"), seed=0)


class TestSuccessBound:
    def test_default_is_one_sixth(self):
        assert success_fraction_bound(ErrorBudget()) == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_eps_is_one_third(self):
        assert success_fraction_bound(ErrorBudget(eps=0.0)) == pytest.approx(1 / 3, abs=1e-12)

    def test_heavy_threshold_default(self):
        assert hardness._heavy_bound(ErrorBudget()) == pytest.approx(1 / 3, abs=1e-12)


class TestMarkovStep:
    def test_exact_sampler_no_outliers(self):
        ens = random_iqp_ensemble(3, 10, 12, seed=5)
        report = verify_chain(ens, SamplerModel.exact(), ErrorBudget())
        assert (report.markov_fraction, report.markov_pass) == (0.0, True)

    def test_budgeted_samplers_stay_under_delta(self):
        ens = random_htcx_ensemble(3, 10, 25, seed=6)
        budget = ErrorBudget()
        for m in (SamplerModel.mixture(1 / 72), SamplerModel.mass_shift(1 / 36)):
            report = verify_chain(ens, m, budget)
            assert report.markov_pass and report.markov_fraction <= budget.delta

    def test_exact_sampler_at_zero_eps(self):
        # The threshold is 0 there; a pair with p_z = q_z is still no outlier.
        ens = random_iqp_ensemble(3, 5, 6, seed=1)
        budget = ErrorBudget(eps=0.0)
        report = verify_chain(ens, SamplerModel.exact(), budget)
        assert (report.markov_fraction, report.markov_pass, report.all_pass) == (0.0, True, True)

    def test_tv_budget_enforced(self):
        ens = identity_ensemble(2)
        with pytest.raises(ValueError, match="TV budget"):
            verify_chain(ens, SamplerModel.mixture(0.5), ErrorBudget())

    def test_violation_clears_the_pass_flag(self, monkeypatch):
        # The bound is Markov's inequality, so real samplers cannot trip it;
        # shrink the threshold to force a failing report.
        ens = identity_ensemble(2)
        monkeypatch.setattr(hardness, "_markov_threshold", lambda n, budget: 1e-6)
        report = verify_chain(ens, SamplerModel.mass_shift(1 / 36), ErrorBudget())
        assert report.markov_fraction == 0.25 and not report.markov_pass


class TestHeavySetStep:
    def test_identity_is_exactly_half(self):
        report = verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget())
        assert (report.heavy_fraction, report.heavy_pass) == (0.5, True)

    def test_random_ensembles_clear_the_bound(self):
        budget = ErrorBudget()
        for ens in (random_iqp_ensemble(4, 15, 20, seed=7), random_htcx_ensemble(3, 15, 30, seed=8)):
            report = verify_chain(ens, SamplerModel.exact(), budget)
            assert report.heavy_pass and report.heavy_fraction > 1 / 3

    def test_zero_eps_counts_only_nonzero_pairs(self):
        # The threshold is 0 there; a pair with p_z = 0 is not heavy, the
        # limit t -> 0+ that the Markov step takes too.
        ens = random_iqp_ensemble(3, 5, 6, seed=1)
        nonzero = sum(np.count_nonzero(dqc1_distribution(u).probs) for u in ens.circuits)
        report = verify_chain(ens, SamplerModel.exact(), ErrorBudget(eps=0.0))
        assert nonzero == 76
        assert (report.heavy_fraction, report.heavy_pass) == (76 / 80, True)

    def test_zero_eps_passes_at_exactly_half(self):
        # Every nonzero p_z of the identity sits at the ceiling 2**-n.
        report = verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(eps=0.0))
        assert (report.heavy_fraction, report.heavy_bound, report.heavy_pass) == (0.5, 0.5, True)

    def test_violation_clears_the_pass_flag(self, monkeypatch):
        # Anti-concentration makes the bound unreachable for simulator
        # output; feed a concentrated fake to force a failing report.
        fake = Distribution(1, np.array([1.0, 0.0, 0.0, 0.0]))
        monkeypatch.setattr(hardness, "dqc1_distribution", lambda c, **_: fake)
        report = verify_chain(identity_ensemble(1), SamplerModel.exact(), ErrorBudget())
        assert report.heavy_fraction == 0.25 and not report.heavy_pass

    def test_threads_match(self):
        ens = random_iqp_ensemble(3, 8, 15, seed=9)
        a = verify_chain(ens, SamplerModel.exact(), ErrorBudget(), threads=1)
        b = verify_chain(ens, SamplerModel.exact(), ErrorBudget(), threads=4)
        assert (a.heavy_fraction, a.heavy_pass) == (b.heavy_fraction, b.heavy_pass)


class TestChainThreads:
    def test_embeddings_start_no_thread_pool(self, monkeypatch):
        # Circuits run in order, and each worst-case embedding is a
        # one-column plan: one chunk, run on the calling thread.
        ens = parse_ensemble_spec("random:iqp:8:10:24:5")
        want = verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget())

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk plan started a thread pool")

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
        got = verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget(), threads=2)
        assert got == want

    def test_large_plans_split_their_chunks(self, monkeypatch):
        ens = parse_ensemble_spec("random:htcx:9:3:60:3")
        want = verify_chain(ens, SamplerModel.mass_shift(1 / 36), ErrorBudget(), seed=4)
        workers = []
        pool = simulator.ThreadPoolExecutor

        def spy(max_workers):
            workers.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", spy)
        got = verify_chain(ens, SamplerModel.mass_shift(1 / 36), ErrorBudget(), seed=4, threads=2)
        assert got == want
        assert workers == [2]  # one pool of two workers for the chain

    def test_concurrent_chains_read_ahead_on_their_own_threads(self):
        # More callers than cores, switching often: each chain's calls take
        # the distributions of its own ensemble, never another thread's.
        specs = ["random:iqp:5:12:15:1", "random:iqp:5:12:15:2", "random:iqp:6:8:18:3", "random:htcx:5:6:20:4"]
        ensembles = [parse_ensemble_spec(spec) for spec in specs]
        sampler, budget = SamplerModel.mass_shift(1 / 72), ErrorBudget()
        want = [verify_chain(ens, sampler, budget) for ens in ensembles]

        def run(k: int) -> list:
            return [verify_chain(ensembles[(k + j) % 4], sampler, budget, threads=1 + k % 2) for j in range(4)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = [job.result(timeout=120) for job in [pool.submit(run, k) for k in range(4)]]
        finally:
            sys.setswitchinterval(old)
        for k, got in enumerate(results):
            assert got == [want[(k + j) % 4] for j in range(4)], k


class _Boom(Exception):
    """Raised by a spy inside the chain."""


def _spy_on_the_sampler(monkeypatch, record) -> None:
    """Pass each p that the chain hands make_noisy_distribution to ``record`` first."""
    noisy = hardness.make_noisy_distribution

    def spy(p, model):
        record(p)
        return noisy(p, model)

    monkeypatch.setattr(hardness, "make_noisy_distribution", spy)


class TestChainBatches:
    """Consecutive embeddings of one n share a run; a circuit of another shape ends the batch, and the next resumes."""

    @staticmethod
    def _interleaved() -> Ensemble:
        # Batches of embeddings 0-2, 4-6 and 9-10; circuits 3, 7 and 8 run alone.
        iqp = parse_ensemble_spec("random:iqp:5:8:15:3").circuits
        htcx = parse_ensemble_spec("random:htcx:5:3:20:4").circuits
        return Ensemble(5, iqp[:3] + htcx[:1] + iqp[3:6] + htcx[1:] + iqp[6:])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_report_is_the_sum_of_one_circuit_reports(self, threads):
        # At eta = 0 the counter draws nothing, so each circuit counts the same alone.
        ens = self._interleaved()
        sampler, budget = SamplerModel.mass_shift(1 / 72), ErrorBudget(eta=0.0)
        got = verify_chain(ens, sampler, budget, threads=threads)
        alone = [verify_chain(Ensemble(ens.n, (u,)), sampler, budget) for u in ens.circuits]
        pairs = 1 << (ens.n + 1)
        for field in ("markov_fraction", "heavy_fraction", "success_fraction"):
            count = sum(getattr(r, field) * pairs for r in alone)
            assert getattr(got, field) == count / (len(ens) * pairs), field

    def test_failure_inside_a_batch_surfaces_at_its_circuit(self, monkeypatch):
        # The sampler fails on circuit 5, the middle of a batch: the chain
        # has handed it exactly the 5 distributions before, in order.
        ens = self._interleaved()
        seen = []

        def record(p):
            if len(seen) == 5:
                raise _Boom
            seen.append(p.probs.tobytes())

        _spy_on_the_sampler(monkeypatch, record)
        with pytest.raises(_Boom):
            verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget())
        assert seen == [dqc1_distribution(u).probs.tobytes() for u in ens.circuits[:5]]

    def test_gathers_that_move_rows_differently_share_no_run(self, monkeypatch):
        # One layout and the same steps but for what the middle gather
        # moves: each circuit still gets its own distribution.
        layer = tuple(h(q) for q in range(4))
        middles = [(t(0), cx(0, 1), s(1)), (t(0), cx(0, 2), s(1)), (t(0), cx(2, 0), s(1))]
        ens = Ensemble(3, tuple(Circuit(4, layer + m + layer) for m in middles))
        want = [dqc1_distribution(u).probs.tobytes() for u in ens.circuits]
        assert len(set(want)) == 3
        seen = []
        _spy_on_the_sampler(monkeypatch, lambda p: seen.append(p.probs.tobytes()))
        verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget())
        assert seen == want


class TestChainDistributions:
    """The distributions under a chain, pinned where its report cannot see them."""

    # sha256 of the 100 distributions of the ensemble, in circuit order.  Its
    # verify-chain --json bytes equal those of other ensembles of this shape.
    _DIGEST = "4ccaf1bc34b841d5f2debb68d5bb5a50216617d95b691bda0cc29fea2dbbeb0f"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chain_iqp8_distributions(self, threads):
        digest = hashlib.sha256()
        for u in parse_ensemble_spec("random:iqp:8:100:24:1016164991").circuits:
            digest.update(dqc1_distribution(u, threads=threads).probs.tobytes())
        assert digest.hexdigest() == self._DIGEST

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chain_sees_the_same_distributions(self, monkeypatch, threads):
        # The chain runs the 100 embeddings as one batch; the p it hands
        # the sampler are the bytes dqc1_distribution gives one by one.
        digest = hashlib.sha256()
        _spy_on_the_sampler(monkeypatch, lambda p: digest.update(p.probs.tobytes()))
        ens = parse_ensemble_spec("random:iqp:8:100:24:1016164991")
        verify_chain(ens, SamplerModel.mass_shift(0.0277), ErrorBudget(), threads=threads)
        assert digest.hexdigest() == self._DIGEST


class TestVerifyChain:
    def test_identity_frozen_fractions(self):
        # Fully deterministic: the sampler moves 1/72 from outcome 000 to
        # outcome 100, which is the only pair that can fail (f=0 there but
        # the sampler reports mass).  Classification is immune to the
        # counter's +/-1% jitter, so the fractions are exact.
        report = verify_chain(
            identity_ensemble(2), SamplerModel.mass_shift(1 / 36), ErrorBudget(), seed=123
        )
        assert report.markov_fraction == 0.0
        assert report.heavy_fraction == 0.5
        assert report.success_fraction == 0.875
        assert report.all_pass

    def test_exact_sampler_perfect_counter(self):
        ens = random_iqp_ensemble(3, 12, 15, seed=10)
        report = verify_chain(ens, SamplerModel.exact(), ErrorBudget(eta=0.0))
        assert report.markov_fraction == 0.0
        assert report.success_fraction == 1.0
        assert report.all_pass

    def test_noisy_chain_passes(self):
        ens = random_htcx_ensemble(4, 15, 30, seed=11)
        report = verify_chain(ens, SamplerModel.mass_shift(1 / 36), ErrorBudget(), seed=1)
        assert report.all_pass
        assert report.success_fraction > report.success_bound == pytest.approx(1 / 6, abs=1e-12)

    def test_eta_precondition(self):
        with pytest.raises(ValueError, match="1/8"):
            verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(eta=0.2))

    def test_eta_bound_is_one_eighth(self):
        # A heavy pair that is not an outlier has q < 4p/3, and the counter
        # may return q * (1 + eta): at eta = 0.15, p = 3 thr and
        # q = p + 0.999 thr give 1.533 p, outside the factor-1/2 window.
        n, budget = 4, ErrorBudget(eta=0.15)
        thr = budget.eps / (2 ** (n + 1) * budget.delta)
        p = 3 * thr
        assert (p + 0.999 * thr) * (1 + budget.eta) > 1.5 * p
        message = "need eta <= 1/8 for the factor-1/2 window, got 0.15"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_chain(identity_ensemble(n), SamplerModel.exact(), budget)
        report = verify_chain(identity_ensemble(n), SamplerModel.exact(), ErrorBudget(eta=1 / 8))
        assert report.all_pass

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "0"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        message = f"seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(), seed=seed)

    def test_numpy_integer_seed(self):
        report = verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(), seed=np.int64(3))
        assert type(report.seed) is int and report.to_dict()["seed"] == 3

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "2", None, True])
    def test_threads_must_be_a_positive_integer(self, monkeypatch, threads):
        def forbidden(*args, **kwargs):
            raise AssertionError("threads must be checked before any circuit runs")

        monkeypatch.setattr(hardness, "dqc1_distribution", forbidden)
        message = f"^{re.escape(f'threads must be a positive integer, got {threads!r}')}$"
        with pytest.raises(ValueError, match=message):
            verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(), threads=threads)

    def test_n_above_the_cap_fails_before_any_circuit(self, monkeypatch):
        ran = []
        monkeypatch.setattr(hardness, "dqc1_distribution", lambda u: ran.append(u))
        with pytest.raises(ValueError, match=r"^n=15 mixed qubits exceeds the chain's cap of 14$"):
            verify_chain(Ensemble(15, (Circuit(16),)), SamplerModel.exact(), ErrorBudget())
        assert ran == []

    def test_tv_violation_names_circuit(self):
        with pytest.raises(ValueError, match="circuit 0"):
            verify_chain(identity_ensemble(2), SamplerModel.mixture(0.5), ErrorBudget())

    def test_threads_identical_report(self):
        ens = random_iqp_ensemble(3, 10, 12, seed=12)
        a = verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget(), seed=4, threads=1)
        b = verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget(), seed=4, threads=4)
        assert a == b

    def test_report_dict_keys_in_order(self):
        report = verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(), seed=7)
        d = report.to_dict()
        assert list(d) == [
            "n", "ensemble_size", "eps", "delta", "eta", "sampler", "seed",
            "markov_fraction", "markov_bound", "markov_pass",
            "heavy_fraction", "heavy_bound", "heavy_pass",
            "success_fraction", "success_bound", "success_pass", "all_pass",
        ]
        assert (d["n"], d["ensemble_size"], d["seed"], d["sampler"]) == (2, len(identity_ensemble(2)), 7, report.sampler)
        assert (d["eps"], d["delta"], d["eta"]) == (1 / 36, 1 / 6, 1 / 100)

    def test_report_serialization(self):
        report = verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(), seed=0)
        d = report.to_dict()
        assert d["all_pass"] is True
        assert d["eps"] == 1 / 36
        text = report.to_text()
        assert text.splitlines()[-1] == "all_pass=true"
        assert "success_pass=true" in text.splitlines()
        assert f"markov_fraction={report.markov_fraction}" in text


class TestEnsembleSpecs:
    def test_random_specs(self):
        ens = parse_ensemble_spec("random:iqp:3:5:10:2")
        assert (ens.n, len(ens)) == (3, 5)
        ens = parse_ensemble_spec("random:htcx:2:4:20:3")
        assert (ens.n, len(ens)) == (2, 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_iqp_parts_equal_checked_ones(self, seed):
        # random_poly, compile_iqp_from_poly and the embedding build from
        # fields that are valid already, without checking them again: each
        # equals what the checking constructor makes of its fields.
        rng = np.random.default_rng(seed)
        poly = random_poly(int(rng.integers(1, 9)), int(rng.integers(0, 40)), rng)
        assert poly == PolyF2(poly.n_vars, poly.monomials[::-1])
        c = compile_iqp_from_poly(poly)
        for circuit in (c, build_worst_case_embedding(c)):
            assert circuit == Circuit(circuit.width, circuit.gates)

    @pytest.mark.parametrize("n_vars", [0, -2, 2.0, True])
    def test_random_poly_rejects_bad_n_vars(self, n_vars):
        with pytest.raises(ValueError, match=rf"^n_vars must be a positive integer, got {n_vars!r}$"):
            random_poly(n_vars, 3, np.random.default_rng(0))

    @pytest.mark.parametrize(
        ("make", "args", "message"),
        [
            (random_poly, (4, -1, np.random.default_rng(0)), "n_monomials must be a nonnegative integer, got -1"),
            (random_poly, (4, 2.5, np.random.default_rng(0)), "n_monomials must be a nonnegative integer, got 2.5"),
            (random_circuit, (3, -1, np.random.default_rng(0)), "n_gates must be a nonnegative integer, got -1"),
            (random_iqp_ensemble, (4, 2, -3, 1), "n_monomials must be a nonnegative integer, got -3"),
            (random_iqp_ensemble, (4, 2, 3, -1), "seed must be a nonnegative integer, got -1"),
            (random_htcx_ensemble, (2, 2, 5, -1), "seed must be a nonnegative integer, got -1"),
            (random_circuit, (2.5, 3, np.random.default_rng(0)), "width must be a positive integer, got 2.5"),
            (random_circuit, (0, 3, np.random.default_rng(0)), "width must be a positive integer, got 0"),
            (random_htcx_ensemble, (2.5, 2, 5, 1), "n must be a nonnegative integer, got 2.5"),
            (random_htcx_ensemble, (2, 0, 5, 1), "count must be a positive integer, got 0"),
            (random_iqp_ensemble, (2, 2.5, 5, 1), "count must be a positive integer, got 2.5"),
            (random_iqp_ensemble, (0, 2, 5, 1), "n must be a positive integer, got 0"),
        ],
    )
    def test_generators_name_a_bad_argument(self, make, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(*args)

    def test_generators_are_seeded(self):
        a = parse_ensemble_spec("random:iqp:3:5:10:2")
        b = parse_ensemble_spec("random:iqp:3:5:10:2")
        assert a == b

    def test_dir_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        circuits = tuple(random_circuit(4, 10, rng) for _ in range(3))
        for i, c in enumerate(circuits):
            save_circuit(c, tmp_path / f"c{i}.json")
        ens = parse_ensemble_spec(f"dir:{tmp_path}")
        assert ens == Ensemble(3, circuits)

    def test_dir_width_mismatch(self, tmp_path):
        save_circuit(Circuit(3), tmp_path / "a.json")
        save_circuit(Circuit(4), tmp_path / "b.json")
        with pytest.raises(ValueError, match="width"):
            load_ensemble_dir(tmp_path)

    def test_n_above_the_cap(self):
        message = "n=15 exceeds the cap of 14 mixed qubits in 'random:iqp:15:1:1:0'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_ensemble_spec("random:iqp:15:1:1:0")

    def test_dir_with_no_circuits(self, tmp_path):
        (tmp_path / "notes.txt").write_text("")
        message = f"no *.json circuit files in {tmp_path}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_ensemble_dir(tmp_path)

    def test_random_circuit_needs_a_gate_that_fits(self):
        with pytest.raises(ValueError, match=r"^no gate in \('CZ',\) fits on 1 qubit\(s\)$"):
            random_circuit(1, 3, np.random.default_rng(0), ("CZ",))

    def test_bad_specs(self):
        for spec in ("random:iqp:3:5:10", "random:foo:3:5:10:2", "random:iqp:0:5:10:2",
                     "random:iqp:a:b:c:d", "bogus", "dir:/nonexistent-path-xyz",
                     "random:iqp:500:1:5:0"):
            with pytest.raises(ValueError):
                parse_ensemble_spec(spec)

    @pytest.mark.parametrize("spec", ["random:iqp:2:2:3:-1", "random:htcx:2:2:3:-5"])
    def test_negative_seed(self, spec):
        with pytest.raises(ValueError, match=r"^need n >= 1, count >= 1, depth >= 0, seed >= 0 in "):
            parse_ensemble_spec(spec)
