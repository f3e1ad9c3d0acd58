"""Worst-case embeddings, sampler models, and the anti-concentration chain."""

import numpy as np
import pytest

import dqc1sim.hardness as hardness
from dqc1sim.circuits import Circuit, PolyF2, compile_iqp_from_poly, h, save_circuit, x
from dqc1sim.ensembles import (
    load_ensemble_dir,
    parse_ensemble_spec,
    random_circuit,
    random_htcx_ensemble,
    random_iqp_ensemble,
)
from dqc1sim.hardness import (
    BoundViolationError,
    ChainReport,
    Ensemble,
    ErrorBudget,
    SamplerModel,
    approximate_count,
    build_postselection_pair,
    build_worst_case_embedding,
    check_multiplicative_error,
    heavy_set_fraction,
    make_noisy_distribution,
    markov_outlier_fraction,
    ratio_bounds_check,
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


class TestEnsembleType:
    def test_width_must_match(self):
        with pytest.raises(ValueError, match="width"):
            Ensemble(2, (Circuit(3), Circuit(2)))

    def test_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(2, ())

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


class TestMultiplicativeError:
    def test_boundary(self):
        assert check_multiplicative_error(0.5, 1.0, 0.5) is True
        assert check_multiplicative_error(0.5, 1.0, 0.5, strict=True) is False
        assert check_multiplicative_error(1.49, 1.0, 0.5, strict=True) is True
        assert check_multiplicative_error(1.51, 1.0, 0.5) is False

    def test_zero_truth(self):
        assert check_multiplicative_error(0.0, 0.0, 0.3) is True
        assert check_multiplicative_error(0.01, 0.0, 0.3) is False

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_multiplicative_error(0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            check_multiplicative_error(0.5, 1.0, -0.5)
        with pytest.raises(ValueError):
            check_multiplicative_error(1.0, float("nan"), 0.1)
        with pytest.raises(ValueError):
            check_multiplicative_error(1.0, 1.0, float("nan"))


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


class TestRatioBounds:
    def test_example(self):
        assert ratio_bounds_check(1.0, 0.5, 1 / 3) is True

    def test_randomized_triples(self):
        rng = np.random.default_rng(93)
        for _ in range(300):
            f1 = float(rng.uniform(1e-3, 2.0))
            f2 = float(rng.uniform(0.0, 2.0))
            e = float(rng.uniform(0.0, 0.9))
            assert ratio_bounds_check(f1, f2, e)

    def test_corner_tightness(self):
        # The extreme ratios are attained exactly at the interval corners.
        f1, f2, e = 0.8, 0.3, 0.25
        lo = (1 - e) / (1 + e) * f2 / f1
        hi = (1 + e) / (1 - e) * f2 / f1
        assert f2 * (1 - e) / (f1 * (1 + e)) == pytest.approx(lo, rel=1e-12)
        assert f2 * (1 + e) / (f1 * (1 - e)) == pytest.approx(hi, rel=1e-12)

    def test_rejects(self):
        with pytest.raises(ValueError):
            ratio_bounds_check(0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            ratio_bounds_check(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            ratio_bounds_check(float("nan"), 1.0, 0.1)
        with pytest.raises(ValueError):
            ratio_bounds_check(1.0, float("nan"), 0.1)
        with pytest.raises(ValueError):
            ratio_bounds_check(1.0, 0.5, float("nan"))


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
        assert markov_outlier_fraction(ens, SamplerModel.exact(), ErrorBudget()) == 0.0

    def test_budgeted_samplers_stay_under_delta(self):
        ens = random_htcx_ensemble(3, 10, 25, seed=6)
        budget = ErrorBudget()
        for m in (SamplerModel.mixture(1 / 72), SamplerModel.mass_shift(1 / 36)):
            frac = markov_outlier_fraction(ens, m, budget)
            assert frac <= budget.delta

    def test_tv_budget_enforced(self):
        ens = identity_ensemble(2)
        with pytest.raises(ValueError, match="TV budget"):
            markov_outlier_fraction(ens, SamplerModel.mixture(0.5), ErrorBudget())

    def test_violation_raises(self, monkeypatch):
        # The bound is Markov's inequality, so real samplers cannot trip it;
        # shrink the threshold to force the defensive path.
        ens = identity_ensemble(2)
        monkeypatch.setattr(hardness, "_markov_threshold", lambda n, budget: 1e-6)
        with pytest.raises(BoundViolationError, match="Markov"):
            markov_outlier_fraction(ens, SamplerModel.mass_shift(1 / 36), ErrorBudget())
        frac = markov_outlier_fraction(
            ens, SamplerModel.mass_shift(1 / 36), ErrorBudget(), check=False
        )
        assert frac == 0.25


class TestHeavySetStep:
    def test_identity_is_exactly_half(self):
        assert heavy_set_fraction(identity_ensemble(2), ErrorBudget()) == 0.5

    def test_random_ensembles_clear_the_bound(self):
        budget = ErrorBudget()
        for ens in (random_iqp_ensemble(4, 15, 20, seed=7), random_htcx_ensemble(3, 15, 30, seed=8)):
            assert heavy_set_fraction(ens, budget) > 1 / 3

    def test_violation_raises(self, monkeypatch):
        # Anti-concentration makes the bound unreachable for simulator
        # output; feed a concentrated fake to exercise the defensive path.
        fake = Distribution(1, np.array([1.0, 0.0, 0.0, 0.0]))
        monkeypatch.setattr(hardness, "dqc1_distribution", lambda c: fake)
        with pytest.raises(BoundViolationError, match="heavy"):
            heavy_set_fraction(identity_ensemble(1), ErrorBudget())
        frac = heavy_set_fraction(identity_ensemble(1), ErrorBudget(), check=False)
        assert frac == 0.25

    def test_threads_match(self):
        ens = random_iqp_ensemble(3, 8, 15, seed=9)
        a = heavy_set_fraction(ens, ErrorBudget(), threads=1)
        b = heavy_set_fraction(ens, ErrorBudget(), threads=4)
        assert a == b


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
        with pytest.raises(ValueError, match="1/6"):
            verify_chain(identity_ensemble(2), SamplerModel.exact(), ErrorBudget(eta=0.2))

    def test_tv_violation_names_circuit(self):
        with pytest.raises(ValueError, match="circuit 0"):
            verify_chain(identity_ensemble(2), SamplerModel.mixture(0.5), ErrorBudget())

    def test_threads_identical_report(self):
        ens = random_iqp_ensemble(3, 10, 12, seed=12)
        a = verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget(), seed=4, threads=1)
        b = verify_chain(ens, SamplerModel.mass_shift(1 / 72), ErrorBudget(), seed=4, threads=4)
        assert a == b

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

    def test_bad_specs(self):
        for spec in ("random:iqp:3:5:10", "random:foo:3:5:10:2", "random:iqp:0:5:10:2",
                     "random:iqp:a:b:c:d", "bogus", "dir:/nonexistent-path-xyz",
                     "random:iqp:500:1:5:0"):
            with pytest.raises(ValueError):
                parse_ensemble_spec(spec)
