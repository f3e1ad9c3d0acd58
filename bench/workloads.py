"""The benchmark's workloads: inputs built from a seed, CLI argv, output checks.

Each operation is one in-process ``dqc1sim.cli.main(argv)`` call.  Inputs
are built with the package's own constructors during set-up; the checks
run after the timed phase and compare every output against values
computed independently (``oracles.gap``, single-outcome ``f_value``).

Why these three (see README.md for the layer -> metric -> workload map):

* dist-n12: the 4**n path.  32 column chunks of 2**20 entries (16 MiB,
  larger than L2) on the chunk thread pool, the in-order reduction and an
  8192-row CSV.  Nearly all time is in the simulator.
* fvalue-w23: the single-pass path.  One 128 MiB state, no chunks, no
  threads, no reduction; the only workload whose peak memory is one state
  vector, so per-index precomputation shows its memory cost here.
* chain-iqp8: many small circuits (2**17 entries, one chunk each) in the
  parallel map over circuits, so per-gate dispatch, per-circuit buffers,
  ensemble building and the sampler model carry weight.  A change that
  only pays off at large n shows its cost here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from dqc1sim.circuits import GATE_KINDS, Circuit, Gate, compile_iqp_from_poly, save_circuit
from dqc1sim.ensembles import random_circuit, random_poly
from dqc1sim.hardness import build_worst_case_embedding
from dqc1sim.oracles import gap
from dqc1sim.simulator import StateVector, apply_circuit, f_value, index_to_bits

# Never more worker threads than cores.
THREADS = min(2, os.cpu_count() or 1)

# The kinds ensembles.random_circuit draws from by default.
_RANDOM_KINDS = ("H", "X", "Z", "S", "T", "RZ", "CZ", "CCZ", "CX", "MCX")


@dataclass
class Op:
    """One CLI call.  ``writes_file``: the runner appends ``--out <path>``."""

    argv: list[str]
    writes_file: bool = False
    data: dict = field(default_factory=dict)


def balanced_circuit(width: int, per_kind: int, rng: np.random.Generator) -> Circuit:
    """``per_kind`` random gates of each kind in _RANDOM_KINDS, in random order.

    A fixed kind mix keeps the cost of a circuit nearly seed-independent:
    the kinds differ in cost by up to 15x.
    """
    gates = [
        g
        for kind in _RANDOM_KINDS
        for g in random_circuit(width, per_kind, rng, gate_set=(kind,)).gates
    ]
    return Circuit(width, tuple(gates[i] for i in rng.permutation(len(gates))))


class Workload:
    name: str
    nominal_op_s: float  # seed commit, 2-core Xeon; fixes the op count per --seconds
    working_set_bytes: int

    def probe(self, rng: np.random.Generator) -> dict[str, float]:
        """Layer measurements outside the ops, for the traced run."""
        return {}


class DistN12(Workload):
    name = "dist-n12"
    nominal_op_s = 3.3

    def __init__(self, smoke: bool = False) -> None:
        self.width = 5 if smoke else 13
        self.per_kind = 2 if smoke else 12
        self.spots = 4
        self.working_set_bytes = THREADS * min(1 << 20, 1 << (2 * self.width - 1)) * 16

    def build(self, rng: np.random.Generator, workdir: Path, count: int) -> list[Op]:
        ops = []
        for i in range(count):
            u = balanced_circuit(self.width, self.per_kind, rng)
            path = workdir / f"circuit-{i}.json"
            save_circuit(u, path)
            spots = [int(z) for z in rng.choice(1 << self.width, size=self.spots, replace=False)]
            argv = ["dqc1-dist", "--circuit", str(path), "--threads", str(THREADS)]
            ops.append(Op(argv, writes_file=True, data={"u": u, "spots": spots}))
        return ops

    def truth(self, op: Op) -> dict[int, float]:
        u = op.data["u"]
        return {z: f_value(u, z) / 2.0 ** (u.width - 1) for z in op.data["spots"]}

    def check(self, truth: dict[int, float], text: str) -> str | None:
        n = self.width - 1
        lines = text.splitlines()
        if not lines or lines[0] != "z,probability":
            return "missing header z,probability"
        if len(lines) - 1 != 1 << self.width:
            return f"{len(lines) - 1} rows, expected {1 << self.width}"
        probs = []
        for i, line in enumerate(lines[1:]):
            z, sep, p = line.partition(",")
            if not sep or z != index_to_bits(i, self.width):
                return f"row {i}: bad outcome label in {line!r}"
            try:
                probs.append(float(p))
            except ValueError:
                return f"row {i}: bad probability in {line!r}"
        total = math.fsum(probs)
        if not abs(total - 1.0) <= 1e-9:
            return f"probabilities sum to {total!r}"
        if not max(probs) <= 2.0**-n + 1e-12:
            return f"max probability {max(probs)!r} exceeds 2**-{n}"
        for z, want in truth.items():
            if not abs(probs[z] - want) <= 1e-12:
                return f"Pr[{index_to_bits(z, self.width)}] = {probs[z]!r}, f_value gives {want!r}"
        return None

    def probe(self, rng: np.random.Generator) -> dict[str, float]:
        """ns per amplitude per gate of each kind, from apply_circuit on 2**20 entries."""
        width = 8 if self.width < 13 else 20
        gates_per_run, reps = 24, 5
        psi = StateVector.zero(width)

        def seconds(c: Circuit) -> float:
            times = []
            for _ in range(reps):
                t0 = perf_counter()
                apply_circuit(psi, c)
                times.append(perf_counter() - t0)
            return median(times)

        copy_s = seconds(Circuit(width))  # apply_circuit copies the state first
        out = {}
        for kind in GATE_KINDS:
            if kind in ("SDG", "TDG"):
                wires = rng.integers(width, size=gates_per_run)
                c = Circuit(width, tuple(Gate(kind, (int(q),)) for q in wires))
            else:
                c = random_circuit(width, gates_per_run, rng, gate_set=(kind,))
            per_amp = (seconds(c) - copy_s) / (gates_per_run << width)
            out[f"simulator.gate_ns_per_amp.{kind}"] = per_amp * 1e9
        return out


class FValueW23(Workload):
    name = "fvalue-w23"
    nominal_op_s = 3.8

    def __init__(self, smoke: bool = False) -> None:
        self.n_vars = 7 if smoke else 22
        self.monomials = 12 if smoke else 66
        self.distinct_inputs = 3
        self.working_set_bytes = (1 << (self.n_vars + 1)) * 16

    def build(self, rng: np.random.Generator, workdir: Path, count: int) -> list[Op]:
        # The oracle check costs about 1.7 s per input at 22 variables, so the
        # ops cycle through a few inputs; op cost hardly depends on the input.
        inputs = []
        for i in range(min(count, self.distinct_inputs)):
            poly = random_poly(self.n_vars, self.monomials, rng)
            path = workdir / f"circuit-{i}.json"
            save_circuit(build_worst_case_embedding(compile_iqp_from_poly(poly)), path)
            argv = ["f-value", "--circuit", str(path), "--z", "0" * (self.n_vars + 1)]
            inputs.append(Op(argv, data={"poly": poly}))
        return [inputs[i % len(inputs)] for i in range(count)]

    def truth(self, op: Op) -> float:
        # f(0, U) = |<0|C|0>|**2 and <0|C|0> = gap / 2**n for the IQP circuit C.
        if "f" not in op.data:
            op.data["f"] = (gap(op.data["poly"]) / 2.0**self.n_vars) ** 2
        return op.data["f"]

    def check(self, truth: float, text: str) -> str | None:
        try:
            value = float(text.strip())
        except ValueError:
            return f"not a number: {text.strip()!r}"
        if not abs(value - truth) <= 1e-9:
            return f"f = {value!r}, oracles.gap gives {truth!r}"
        return None


class ChainIqp8(Workload):
    name = "chain-iqp8"
    nominal_op_s = 0.67
    sampler = "mass_shift:0.0277"  # just under the default eps = 1/36

    def __init__(self, smoke: bool = False) -> None:
        self.n, self.size, self.depth = (4, 8, 10) if smoke else (8, 100, 24)
        self.working_set_bytes = THREADS * (1 << (2 * self.n + 1)) * 16

    def build(self, rng: np.random.Generator, workdir: Path, count: int) -> list[Op]:
        ops = []
        for i in range(count):
            spec = f"random:iqp:{self.n}:{self.size}:{self.depth}:{int(rng.integers(2**31))}"
            argv = [
                "verify-chain", "--json", "--threads", str(THREADS),
                "--sampler", self.sampler, "--ensemble", spec, "--seed", str(i),
            ]
            ops.append(Op(argv))
        return ops

    def truth(self, op: Op) -> None:
        return None

    def check(self, truth: None, text: str) -> str | None:
        try:
            r = json.loads(text)
            if (r["n"], r["ensemble_size"]) != (self.n, self.size):
                return f"report is for n={r['n']}, size={r['ensemble_size']}"
            if r["all_pass"] is not True:
                return "all_pass is not true"
            if not r["markov_fraction"] <= r["markov_bound"]:
                return f"markov_fraction {r['markov_fraction']} above {r['markov_bound']}"
            if not r["heavy_fraction"] > r["heavy_bound"]:
                return f"heavy_fraction {r['heavy_fraction']} not above {r['heavy_bound']}"
            if not (r["success_bound"] <= 0.0 or r["success_fraction"] > r["success_bound"]):
                return f"success_fraction {r['success_fraction']} not above {r['success_bound']}"
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable report: {e!r}"
        return None


WORKLOADS ={w.name: w for w in (DistN12, FValueW23, ChainIqp8)}


def failures(workload, truths: list, results: list[tuple[int, str, int | None, str]]) -> list[str]:
    """One message per failed op; ``results`` holds (op index, phase, exit code, output)."""
    out = []
    for i, phase, rc, text in results:
        msg = f"exit code {rc}" if rc != 0 else workload.check(truths[i], text)
        if msg is not None:
            out.append(f"op {i} ({phase}): {msg}")
    return out
