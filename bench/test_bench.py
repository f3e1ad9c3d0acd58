"""Tests of the benchmark itself: smoke runs, output checks, span arithmetic.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dqc1sim import cli  # noqa: E402
from run import run_op  # noqa: E402
from spans import Span, Tracer, union_length  # noqa: E402
from workloads import WORKLOADS, failures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    p = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (4 if trace == "1" else 2)
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0] for line in p.stdout.splitlines()[1:-1]}
    assert {m["name"] for m in SPEC["end_to_end"]} | {"error_rate"} <= printed


def test_workload_names_match_benchmark_json():
    assert WORKLOAD_NAMES == list(WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "chain-iqp8", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def _outputs(name: str, tmp_path: Path):
    wl = WORKLOADS[name](smoke=True)
    ops = wl.build(np.random.default_rng(7), tmp_path, 1)
    _, rc, text = run_op(cli.main, ops[0], tmp_path / "out.txt")
    assert rc == 0
    return wl, [wl.truth(ops[0])], text


def _corrupt_dist(text: str) -> str:
    lines = text.splitlines()
    z, p = lines[3].split(",")
    lines[3] = f"{z},{float(p) + 1e-7!r}"
    return "\n".join(lines) + "\n"


def _corrupt_fvalue(text: str) -> str:
    return repr(float(text) + 1e-6) + "\n"


def _corrupt_chain(text: str) -> str:
    report = json.loads(text)
    report["heavy_fraction"] = report["heavy_bound"]
    return json.dumps(report)


@pytest.mark.parametrize(
    "name, corrupt",
    [("dist-n12", _corrupt_dist), ("fvalue-w23", _corrupt_fvalue), ("chain-iqp8", _corrupt_chain)],
)
def test_corrupted_output_counts_as_failed_op(name, corrupt, tmp_path):
    wl, truths, text = _outputs(name, tmp_path)
    good = (0, "plain", 0, text)
    assert failures(wl, truths, [good]) == []
    bad = (0, "traced", 0, corrupt(text))
    assert len(failures(wl, truths, [good, bad])) == 1
    assert len(failures(wl, truths, [good, (0, "plain", 2, text)])) == 1


def test_dist_spot_check_catches_a_swapped_pair(tmp_path):
    wl, truths, text = _outputs("dist-n12", tmp_path)
    lines = text.splitlines()
    # Swapping two probabilities keeps the sum and the maximum.
    z = next(iter(truths[0]))
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    other = max(range(len(probs)), key=lambda i: abs(probs[i] - probs[z]))
    a, b = lines[1 + z].split(","), lines[1 + other].split(",")
    lines[1 + z], lines[1 + other] = f"{a[0]},{b[1]}", f"{b[0]},{a[1]}"
    assert wl.check(truths[0], "\n".join(lines) + "\n") is not None


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    assert union_length([(2.0, 1.0)]) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    tracer = Tracer()
    root = Span(0, "hardness.verify_chain", "hardness", 0, None, 1, 0.0, 10.0)
    kids = [
        Span(1, "simulator.dqc1_distribution", "simulator", 0, 0, 2, 1.0, 5.0),
        Span(2, "simulator.dqc1_distribution", "simulator", 0, 0, 3, 2.0, 6.0),
        Span(3, "hardness.make_noisy_distribution", "hardness", 0, 0, 2, 6.0, 7.0),
    ]
    children = {0: kids}
    assert tracer.self_time(root, children) == pytest.approx(5.0)


def test_traced_op_restores_the_patched_names(tmp_path):
    import dqc1sim.hardness
    import dqc1sim.simulator

    before = (cli.dqc1_distribution, dqc1sim.hardness.make_noisy_distribution,
              dqc1sim.simulator.adjoint)
    wl = WORKLOADS["chain-iqp8"](smoke=True)
    op = wl.build(np.random.default_rng(3), tmp_path, 1)[0]
    tracer = Tracer()
    _, rc, _ = run_op(cli.main, op, tmp_path / "out.txt", tracer, 0)
    assert rc == 0
    after = (cli.dqc1_distribution, dqc1sim.hardness.make_noisy_distribution,
             dqc1sim.simulator.adjoint)
    assert after == before
    m = tracer.layer_metrics()
    assert m["ensembles.circuits"] == wl.size
    assert m["hardness.pairs"] == wl.size << (wl.n + 1)
    assert m["simulator.passes"] == wl.size << wl.n
    # Every span lies inside its parent.
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
