"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines; the
tolerances here are the ones promised in the README and must not be loosened.
"""

import itertools
import subprocess
import sys
import time

import numpy as np

from dqc1sim.circuits import (
    Circuit,
    IsingInstance,
    compile_iqp_from_ising,
    compile_iqp_from_poly,
    save_circuit,
)
from dqc1sim.ensembles import (
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
    build_postselection_pair,
    build_worst_case_embedding,
    verify_chain,
)
from dqc1sim.oracles import density_matrix_dqc1, gap, ising_partition_function
from dqc1sim.simulator import (
    StateVector,
    amplitude_zero,
    apply_circuit,
    dqc1_distribution,
    f_value,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_ising(n: int, rng: np.random.Generator) -> IsingInstance:
    pairs = list(itertools.combinations(range(n), 2))
    couplings = ()
    if pairs:
        take = int(rng.integers(0, len(pairs) + 1))
        picks = rng.choice(len(pairs), size=take, replace=False)
        couplings = tuple(
            (*pairs[int(i)], float(rng.uniform(-np.pi, np.pi))) for i in picks
        )
    n_fields = int(rng.integers(0, n + 1))
    fields = tuple(
        (int(j), float(rng.uniform(-np.pi, np.pi)))
        for j in rng.choice(n, size=n_fields, replace=False)
    )
    return IsingInstance(n, couplings, fields)


def test_01_gap_matches_iqp_amplitude():
    rng = np.random.default_rng(20260101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        f = random_poly(n, int(rng.integers(0, 2 * n + 5)), rng)
        amp = amplitude_zero(compile_iqp_from_poly(f))
        want = gap(f) / float(1 << n)
        worst = max(worst, abs(amp - want))
    _verdict(
        "01 circuit amplitude equals polynomial gap / 2^n",
        worst <= 1e-9,
        f"500 random polynomials, n in [1,12], worst |error| = {worst:.3e} (tol 1e-9)",
    )


def test_02_partition_function_matches_amplitude():
    rng = np.random.default_rng(20260102)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        m = _random_ising(n, rng)
        amp = amplitude_zero(compile_iqp_from_ising(m))
        want = ising_partition_function(m) / float(1 << n)
        worst = max(worst, abs(amp - want))
    _verdict(
        "02 circuit amplitude equals Ising partition sum / 2^n",
        worst <= 1e-9,
        f"200 random instances, n in [1,10], worst |error| = {worst:.3e} (tol 1e-9)",
    )


def test_03_embedding_reads_squared_amplitude():
    rng = np.random.default_rng(20260103)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        c = compile_iqp_from_poly(random_poly(n, int(rng.integers(0, 2 * n + 4)), rng))
        u = build_worst_case_embedding(c)
        got = f_value(u, "0" * (n + 1))
        want = abs(amplitude_zero(c)) ** 2
        worst = max(worst, abs(got - want))
    _verdict(
        "03 worst-case embedding exposes |<0|C|0>|^2 as f(0...0, U)",
        worst <= 1e-10,
        f"500 random circuits, n in [1,8], worst |error| = {worst:.3e} (tol 1e-10)",
    )


def test_04_postselection_marginals_and_ratio():
    rng = np.random.default_rng(20260104)
    worst_marginal = 0.0
    worst_ratio = 0.0
    ratios_checked = 0
    for _ in range(200):
        w = int(rng.integers(2, 9))
        v = random_circuit(w, int(rng.integers(1, 3 * w + 10)), rng)
        out = apply_circuit(StateVector.zero(w), v).amplitudes
        probs = (out.real**2 + out.imag**2).reshape(2, 2, -1).sum(axis=2)
        p_first0 = float(probs[0].sum())
        p_first00 = float(probs[0, 0])
        u1, u2 = build_postselection_pair(v)
        f1 = f_value(u1, "0" * (w + 1))
        f2 = f_value(u2, "0" * (w + 1))
        worst_marginal = max(worst_marginal, abs(f1 - p_first0), abs(f2 - p_first00))
        if f1 > 1e-6:
            worst_ratio = max(worst_ratio, abs(f2 / f1 - p_first00 / p_first0))
            ratios_checked += 1
    _verdict(
        "04 postselection pair gives zero-marginals and their conditional",
        worst_marginal <= 1e-10 and worst_ratio <= 1e-9 and ratios_checked > 100,
        f"200 random V, n in [2,8], worst marginal error = {worst_marginal:.3e} "
        f"(tol 1e-10), worst ratio error = {worst_ratio:.3e} "
        f"(tol 1e-9, {ratios_checked} ratios)",
    )


def test_05_anticoncentration_ceiling(tmp_path):
    rng = np.random.default_rng(20260105)
    checked = 0
    worst_head = np.inf
    worst_sum = 0.0
    circuits = [Circuit(2), Circuit(3), build_worst_case_embedding(Circuit(2))]
    for n in range(1, 7):
        for _ in range(6):
            circuits.append(random_circuit(n + 1, int(rng.integers(1, 40)), rng))
            circuits.append(
                build_worst_case_embedding(
                    compile_iqp_from_poly(random_poly(n, int(rng.integers(0, 12)), rng))
                )
            )
            circuits.append(random_circuit(n + 1, 30, rng, gate_set=("H", "T", "CX")))
    for c in circuits:
        d = dqc1_distribution(c)
        ceiling = 2.0 ** (-d.n) + 1e-12
        assert float(d.probs.max()) <= ceiling
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-9
        worst_head = min(worst_head, ceiling - float(d.probs.max()))
        worst_sum = max(worst_sum, abs(float(d.probs.sum()) - 1.0))
        checked += 1
    _verdict(
        "05 every output probability is at most 2^-n and masses sum to 1",
        checked >= 100,
        f"{checked} distributions over mixed circuit families, "
        f"min ceiling headroom = {worst_head:.3e}, worst |sum-1| = {worst_sum:.3e}",
    )


def test_06_heavy_set_exceeds_one_third(tmp_path):
    budget = ErrorBudget()
    rng = np.random.default_rng(20260106)
    results = []
    for n in range(2, 7):
        subdir = tmp_path / f"n{n}"
        subdir.mkdir()
        for i in range(50):
            save_circuit(random_circuit(n + 1, int(rng.integers(5, 35)), rng), subdir / f"{i:02d}.json")
        ensembles = {
            "iqp": random_iqp_ensemble(n, 50, 2 * n + 4, seed=1000 + n),
            "htcx": random_htcx_ensemble(n, 50, 6 * n, seed=2000 + n),
            "dir": parse_ensemble_spec(f"dir:{subdir}"),
        }
        for kind, ens in ensembles.items():
            report = verify_chain(ens, SamplerModel.exact(), budget)
            results.append((kind, n, report.heavy_fraction, report.heavy_pass))
    identity = verify_chain(Ensemble(2, (Circuit(3),)), SamplerModel.exact(), budget)
    identity_frac = identity.heavy_fraction
    lowest = min(r[2] for r in results)
    ok = all(r[2] > 1 / 3 and r[3] for r in results) and identity_frac == 0.5 and identity.heavy_pass
    _verdict(
        "06 heavy-set fraction stays above 1/3 at the default budget",
        ok,
        f"3 ensemble kinds x n in [2,6] x 50 circuits, lowest fraction = {lowest:.4f} "
        f"(bound 1/3), one-circuit identity case = {identity_frac} (expected 0.5)",
    )


def test_07_markov_outliers_within_delta():
    budget = ErrorBudget()
    samplers = (
        SamplerModel.exact(),
        SamplerModel.mixture(1 / 72),
        SamplerModel.mass_shift(1 / 36),
    )
    ensembles = (
        random_iqp_ensemble(4, 50, 12, seed=20260107),
        random_htcx_ensemble(3, 50, 20, seed=20260108),
    )
    worst, passed = 0.0, True
    for ens in ensembles:
        for sampler in samplers:
            report = verify_chain(ens, sampler, budget)
            worst = max(worst, report.markov_fraction)
            passed = passed and report.markov_pass
    _verdict(
        "07 Markov outlier fraction stays within delta for budgeted samplers",
        passed and worst <= budget.delta,
        f"2 ensembles x 3 samplers with TV <= 1/36, worst fraction = {worst:.4f} "
        f"(bound delta = {budget.delta:.4f})",
    )


def test_08_chain_success_fraction():
    ens = random_iqp_ensemble(4, 50, 24, seed=20260109)
    noisy = verify_chain(ens, SamplerModel.mass_shift(1 / 36), ErrorBudget(), seed=2026)
    clean = verify_chain(ens, SamplerModel.exact(), ErrorBudget(eta=0.0), seed=0)
    ok = (
        noisy.all_pass
        and noisy.success_fraction > noisy.success_bound
        and clean.all_pass
        and clean.success_fraction == 1.0
    )
    _verdict(
        "08 end-to-end chain: noisy run clears the success bound, exact run is perfect",
        ok,
        f"n=4, 50 circuits: mass_shift(1/36)+eta=0.01 success = {noisy.success_fraction:.4f} "
        f"> bound {noisy.success_bound:.4f}; exact+eta=0 success = {clean.success_fraction}",
    )


def test_09_density_matrix_route_agrees():
    rng = np.random.default_rng(20260110)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        u = random_circuit(n + 1, int(rng.integers(1, 50)), rng)
        slow = density_matrix_dqc1(u)
        fast = dqc1_distribution(u)
        worst = max(worst, float(np.abs(slow.probs - fast.probs).max()))
    _verdict(
        "09 pure-state and density-matrix routes agree",
        worst <= 1e-10,
        f"50 random circuits, n in [1,5], worst |error| = {worst:.3e} (tol 1e-10)",
    )


def test_10_performance_envelope():
    rng = np.random.default_rng(20260111)
    big = random_circuit(13, 120, rng)
    t0 = time.perf_counter()
    dqc1_distribution(big)
    dist_seconds = time.perf_counter() - t0

    wide = random_circuit(21, 120, rng)
    t0 = time.perf_counter()
    f_value(wide, "0" * 21)
    f_seconds = time.perf_counter() - t0
    _verdict(
        "10 performance: full distribution at n=12 and one f-value at n=20",
        dist_seconds < 10.0 and f_seconds < 5.0,
        f"distribution (120 gates) took {dist_seconds:.2f}s (limit 10s), "
        f"f-value (120 gates) took {f_seconds:.2f}s (limit 5s)",
    )


def test_11_cli_output_thread_invariant():
    args = [
        sys.executable, "-m", "dqc1sim", "verify-chain",
        "--ensemble", "random:iqp:3:20:15:7",
        "--sampler", "mass_shift:0.027",
        "--seed", "11",
    ]
    outputs = []
    for threads in ("1", "4", "8"):
        r = subprocess.run(
            [*args, "--threads", threads], capture_output=True, timeout=300
        )
        assert r.returncode == 0, r.stderr.decode()
        outputs.append(r.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    _verdict(
        "11 CLI reports are byte-identical for --threads 1, 4, 8",
        ok,
        f"3 runs, {len(outputs[0])} bytes each, identical = {ok}",
    )
