"""Command-line front end.

Exit codes: 0 all checks pass, 1 validation or input error, or a failed
simulator self-check (printed as ``error: simulator defect: ...``), 2 a
verified bound failed or a malformed command line.  Every failure prints
one line on stderr.  All randomized commands take explicit seeds;
identical command lines give byte-identical output regardless of
--threads.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .circuits import (
    CircuitFormatError,
    load_circuit,
    load_ising,
    load_poly,
    save_circuit,
)
from .ensembles import ENSEMBLE_SPEC_HELP, parse_ensemble_spec
from .hardness import (
    ErrorBudget,
    SamplerModel,
    build_postselection_pair,
    build_worst_case_embedding,
    verify_chain,
)
from .oracles import gap, ising_partition_function
from .simulator import (
    DEFAULT_MAX_MIXED_QUBITS,
    amplitude_zero,
    dqc1_distribution,
    f_value,
    sample,
)

_DEFAULT_ENSEMBLE = "random:iqp:4:50:24:1"


def _fmt(value: float) -> str:
    """CSV cell: fixed 17 significant digits, enough to round-trip exactly."""
    return f"{value:.17g}"


def _scalar(value: float) -> str:
    """Single printed number: shortest representation that round-trips exactly."""
    return repr(float(value))


def _int_arg(text: str, low: int) -> int:
    """An argparse value that must be an integer of at least ``low``."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        msg = f"must be an integer >= {low}, got {text!r}"
        raise argparse.ArgumentTypeError(msg)
    return value


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads", type=partial(_int_arg, low=1), default=1, help="worker threads (output is identical for any value)"
    )


def _add_max_n(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-n",
        type=partial(_int_arg, low=0),
        default=DEFAULT_MAX_MIXED_QUBITS,
        help=f"cap on mixed qubits n for the distribution, which runs up to 2**n columns (default {DEFAULT_MAX_MIXED_QUBITS})",
    )


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@cache  # built on the first main() of a process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqc1sim",
        description="Exact one-clean-qubit simulation and hardness-chain verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="integer gap of a GF(2) polynomial file")
    p.add_argument("--poly", required=True, help="polynomial JSON file")

    p = sub.add_parser("ising-z", help="imaginary-temperature partition sum of an Ising file")
    p.add_argument("--model", required=True, help="Ising JSON file")

    p = sub.add_parser("iqp-amp", help="all-zero amplitude of a circuit, printed as re,im")
    p.add_argument("--circuit", required=True, help="circuit JSON file")

    p = sub.add_parser("f-value", help="clean-block weight 2**n * p_z for one outcome z")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--z", required=True, help="outcome bit string, qubit 0 first")

    p = sub.add_parser("dqc1-dist", help="full output distribution as z,probability rows")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_max_n(p)
    _add_threads(p)

    p = sub.add_parser("embed-iqp", help="wrap a circuit in the worst-case one-clean-qubit embedding")
    p.add_argument("--circuit", required=True, help="circuit JSON file to embed")
    p.add_argument("--out", required=True, help="output circuit JSON file")

    p = sub.add_parser("embed-postselect", help="emit the marginal/joint embedding pair of a circuit")
    p.add_argument("--circuit", required=True, help="circuit JSON file to embed (>= 2 qubits)")
    p.add_argument("--out1", required=True, help="output file for the one-qubit-marginal embedding")
    p.add_argument("--out2", required=True, help="output file for the two-qubit-joint embedding")

    p = sub.add_parser("sample", help="draw outcome bit strings from a circuit's distribution")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--count", type=partial(_int_arg, low=0), required=True, help="number of draws")
    p.add_argument("--seed", type=partial(_int_arg, low=0), required=True, help="RNG seed (an integer >= 0)")
    _add_max_n(p)

    p = sub.add_parser("anticoncentration", help="heavy-set fraction of an ensemble vs its threshold")
    p.add_argument("--ensemble", default=_DEFAULT_ENSEMBLE, help=ENSEMBLE_SPEC_HELP)
    p.add_argument("--eps", type=float, default=ErrorBudget.eps, help="sampler TV budget")
    p.add_argument("--delta", type=float, default=ErrorBudget.delta, help="Markov outlier budget")
    _add_threads(p)

    p = sub.add_parser("verify-chain", help="run every bound of the chain on an ensemble")
    p.add_argument("--ensemble", default=_DEFAULT_ENSEMBLE, help=ENSEMBLE_SPEC_HELP)
    p.add_argument("--sampler", default="exact", help="exact | mixture:LAMBDA | mass_shift:TV")
    p.add_argument("--eps", type=float, default=ErrorBudget.eps, help="sampler TV budget")
    p.add_argument("--delta", type=float, default=ErrorBudget.delta, help="Markov outlier budget")
    p.add_argument("--eta", type=float, default=ErrorBudget.eta, help="relative error of the counter, at most 1/8")
    p.add_argument(
        "--seed", type=partial(_int_arg, low=0), default=0, help="master seed for the counter noise (an integer >= 0)"
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_threads(p)

    return parser


def _cmd_gap(args) -> int:
    print(gap(load_poly(args.poly)))
    return 0


def _cmd_ising_z(args) -> int:
    value = ising_partition_function(load_ising(args.model))
    print(f"{_scalar(value.real)},{_scalar(value.imag)}")
    return 0


def _cmd_iqp_amp(args) -> int:
    value = amplitude_zero(load_circuit(args.circuit))
    print(f"{_scalar(value.real)},{_scalar(value.imag)}")
    return 0


def _cmd_f_value(args) -> int:
    print(_scalar(f_value(load_circuit(args.circuit), args.z)))
    return 0


def _cmd_dqc1_dist(args) -> int:
    d = dqc1_distribution(load_circuit(args.circuit), max_n=args.max_n, threads=args.threads)
    # d.n is checked where d was built, so each row index needs no check.
    bits = f"0{d.n + 1}b"
    lines = ["z,probability"]
    lines += [f"{format(i, bits)},{_fmt(p)}" for i, p in enumerate(d.probs)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_embed_iqp(args) -> int:
    save_circuit(build_worst_case_embedding(load_circuit(args.circuit)), args.out)
    return 0


def _cmd_embed_postselect(args) -> int:
    u1, u2 = build_postselection_pair(load_circuit(args.circuit))
    save_circuit(u1, args.out1)
    save_circuit(u2, args.out2)
    return 0


def _cmd_sample(args) -> int:
    d = dqc1_distribution(load_circuit(args.circuit), max_n=args.max_n)
    for bits in sample(d, args.count, args.seed):
        print(bits)
    return 0


def _cmd_anticoncentration(args) -> int:
    ens = parse_ensemble_spec(args.ensemble)
    budget = ErrorBudget(eps=args.eps, delta=args.delta, eta=0.0)
    report = verify_chain(ens, SamplerModel.exact(), budget, threads=args.threads)
    print(f"heavy_fraction={_scalar(report.heavy_fraction)}")
    print(f"heavy_bound={_scalar(report.heavy_bound)}")
    print(f"pass={'true' if report.heavy_pass else 'false'}")
    return 0 if report.heavy_pass else 2


def _cmd_verify_chain(args) -> int:
    ens = parse_ensemble_spec(args.ensemble)
    sampler = SamplerModel.parse(args.sampler)
    budget = ErrorBudget(eps=args.eps, delta=args.delta, eta=args.eta)
    report = verify_chain(ens, sampler, budget, seed=args.seed, threads=args.threads)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.to_text())
    return 0 if report.all_pass else 2


_COMMANDS = {
    "gap": _cmd_gap,
    "ising-z": _cmd_ising_z,
    "iqp-amp": _cmd_iqp_amp,
    "f-value": _cmd_f_value,
    "dqc1-dist": _cmd_dqc1_dist,
    "embed-iqp": _cmd_embed_iqp,
    "embed-postselect": _cmd_embed_postselect,
    "sample": _cmd_sample,
    "anticoncentration": _cmd_anticoncentration,
    "verify-chain": _cmd_verify_chain,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RuntimeError as e:  # a failed self-check in the simulator
        print(f"error: simulator defect: {e}", file=sys.stderr)
        return 1
    except (CircuitFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
