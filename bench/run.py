"""Run one dqc1sim benchmark workload and print its metrics.

    python3 bench/run.py --workload dist-n12 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The command spawns the workload in fresh
processes: a few that only set up (interpreter start, ``import dqc1sim``
from ``src/``, input files) to time set-up, then one that also runs the
operations.  Each operation is one in-process ``dqc1sim.cli.main`` call with
stdout captured.  The number of operations is fixed by ``--seconds`` and
the workload's nominal operation time at the seed commit, so a faster
program measures the same work in less time.

``--trace 0`` times the operations and reports the end-to-end metrics.
``--trace 1`` runs every operation twice, plain and under the tracer, in
alternating order, and reports the per-layer metrics (end-to-end ones are
printed too).  Every output is checked after the timed phase; a failed op
makes the command exit 1.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from BENCHMARK.json.

``--smoke`` shrinks every workload (n <= 4, width <= 8, two ops) for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import select
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext, redirect_stdout
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's tests")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("need --seed >= 0 and --seconds >= 1")
    return args


# --- workload process ---------------------------------------------------------


def run_op(main, op, out_path: Path, tracer=None, index: int = 0):
    """One CLI call; returns (seconds, exit code or None if it raised, output text)."""
    argv = list(op.argv)
    if op.writes_file:
        out_path.unlink(missing_ok=True)
        argv += ["--out", str(out_path)]
    buf = io.StringIO()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(redirect_stdout(buf))
        t0 = time.perf_counter()
        try:
            with tracer.op(index) if tracer is not None else nullcontext():
                rc = main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - t0
    text = buf.getvalue()
    out_bytes = len(text.encode())
    if op.writes_file:
        text = out_path.read_text() if out_path.exists() else ""
        out_bytes += len(text.encode())
    if tracer is not None:
        tracer.count("cli.out_bytes", out_bytes)
    return seconds, rc, text


def worker(args) -> int:
    if not (SRC / "dqc1sim" / "__init__.py").is_file():
        print(f"error: no dqc1sim sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dqc1sim
    from dqc1sim import cli

    if Path(dqc1sim.__file__).resolve().parent != SRC / "dqc1sim":
        print(f"error: imported dqc1sim from {dqc1sim.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from spans import Tracer
    from workloads import WORKLOADS, failures

    wl = WORKLOADS[args.workload](smoke=args.smoke)
    count = 2 if args.smoke else max(1, round(args.seconds / wl.nominal_op_s))
    workdir = RUN_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    ops = wl.build(rng, workdir, count)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    phases = ("plain", "traced") if args.trace else ("plain",)
    tracer = Tracer()
    times = {p: [] for p in phases}
    results = []
    for i, op in enumerate(ops):
        for phase in phases if i % 2 == 0 else phases[::-1]:
            out_path = workdir / f"out-{phase}-{i}.txt"
            traced = tracer if phase == "traced" else None
            seconds, rc, text = run_op(cli.main, op, out_path, traced, i)
            times[phase].append(seconds)
            results.append((i, phase, rc, text))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    truths = [wl.truth(op) for op in ops]
    failed = failures(wl, truths, results)
    for msg in failed:
        print(f"check failed: {msg}", file=sys.stderr)

    report = {
        "attempted": len(results),
        "failed": len(failed),
        "ops": count,
        "op_s": times["plain"],
        "end_to_end": {
            "wall_s": sum(times["plain"]),
            "op_p50_s": median(times["plain"]),
            "peak_rss_mib": peak_rss_mib,
        },
        "per_layer": None,
    }
    if args.trace:
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = sum(times["traced"]) - sum(times["plain"])
        gate_probe = wl.probe(rng)
        for kind in dqc1sim.circuits.GATE_KINDS:
            key = f"simulator.gate_ns_per_amp.{kind}"
            layers[key] = gate_probe.get(key, 0.0)
        report["per_layer"] = layers
        tracer.write(RUN_DIR / f"spans-{args.workload}.json")
    print(json.dumps(report))
    return 0


# --- driver process -------------------------------------------------------------


def spawn(args, setup_only: bool, deadline: float):
    """Start a workload process; returns it and the seconds until its inputs were ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process did not set up (got {line!r})")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.worker:
        return worker(args)
    deadline = time.monotonic() + DEADLINE_S
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    setups = []
    proc = None
    try:
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            proc, setup_s = spawn(args, True, deadline)
            finish(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = spawn(args, False, deadline)
        setups.append(setup_s)
        report = json.loads(finish(proc, deadline).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    end_to_end = dict(report["end_to_end"], setup_s=median(setups))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = report["per_layer"] if args.trace else end_to_end
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}: {report['ops']} ops per phase, seed {args.seed}")
    print("op_s " + " ".join(f"{t:.4g}" for t in report["op_s"]))
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {report['failed'] / report['attempted']:.6g} ratio")
    for name, value in (report["per_layer"] or {}).items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
