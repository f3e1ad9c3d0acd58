"""Command-line interface: outputs, file round trips, exit codes."""

import functools
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import dqc1sim.cli as cli
import dqc1sim.hardness as hardness
import dqc1sim.simulator as simulator
from corpus import split_circuit
from dqc1sim.circuits import (
    GATE_KINDS,
    Circuit,
    PolyF2,
    compile_iqp_from_poly,
    cx,
    h,
    save_circuit,
)
from dqc1sim.ensembles import parse_ensemble_spec, random_circuit, random_poly
from dqc1sim.hardness import (
    ChainReport,
    ErrorBudget,
    SamplerModel,
    build_postselection_pair,
    build_worst_case_embedding,
    verify_chain,
)
from dqc1sim.oracles import gap
from dqc1sim.simulator import Distribution, dqc1_distribution


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "dqc1sim", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def run_main(capsys, *args):
    """In-process invocation; returns (exit_code, stdout)."""
    code = cli.main(list(args))
    return code, capsys.readouterr().out


@pytest.fixture
def cubic_circuit(tmp_path):
    path = tmp_path / "cubic.json"
    save_circuit(compile_iqp_from_poly(PolyF2(3, ((0, 1, 2),))), path)
    return str(path)


@pytest.fixture
def identity3(tmp_path):
    path = tmp_path / "ident3.json"
    save_circuit(Circuit(3), path)
    return str(path)


class TestNumericCommands:
    def test_gap(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text('{"n":3,"monomials":[[0,1,2]]}\n')
        r = run_cli("gap", "--poly", str(poly))
        assert (r.returncode, r.stdout) == (0, "6\n")

    def test_ising_z(self, tmp_path):
        model = tmp_path / "ising.json"
        model.write_text(json.dumps({"n": 1, "couplings": [], "fields": [[0, 3.141592653589793]]}))
        r = run_cli("ising-z", "--model", str(model))
        assert r.returncode == 0
        re_part, im_part = map(float, r.stdout.strip().split(","))
        assert re_part == pytest.approx(-2.0, abs=1e-12)
        assert im_part == pytest.approx(0.0, abs=1e-12)

    def test_iqp_amp(self, cubic_circuit, capsys):
        code, out = run_main(capsys, "iqp-amp", "--circuit", cubic_circuit)
        assert code == 0
        re_part, im_part = map(float, out.strip().split(","))
        assert re_part == pytest.approx(0.75, abs=1e-12)
        assert im_part == pytest.approx(0.0, abs=1e-12)

    def test_f_value(self, identity3, capsys):
        assert run_main(capsys, "f-value", "--circuit", identity3, "--z", "000") == (0, "1.0\n")
        assert run_main(capsys, "f-value", "--circuit", identity3, "--z", "100") == (0, "0.0\n")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_f_value_bytes_on_worst_case_embeddings(self, tmp_path, capsys, seed):
        # f(0, U) = (gap / 2**n)**2 is dyadic, and the printed value is it exactly.
        poly = random_poly(14, 42, np.random.default_rng(seed))
        path = tmp_path / "embedding.json"
        save_circuit(build_worst_case_embedding(compile_iqp_from_poly(poly)), path)
        golden = repr((gap(poly) / 2**14) ** 2) + "\n"
        assert run_main(capsys, "f-value", "--circuit", str(path), "--z", "0" * 15) == (0, golden)


class TestDistributionCommands:
    def test_dist_stdout(self, capsys, tmp_path):
        path = tmp_path / "ident2.json"
        save_circuit(Circuit(2), path)
        code, out = run_main(capsys, "dqc1-dist", "--circuit", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,probability"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["00", "01", "10", "11"]
        probs = [float(r[1]) for r in rows]
        assert probs == [0.5, 0.5, 0.0, 0.0]

    def test_dist_file_and_threads(self, cubic_circuit, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out4 = tmp_path / "b.csv"
        assert cli.main(["dqc1-dist", "--circuit", cubic_circuit, "--out", str(out1)]) == 0
        assert cli.main(
            ["dqc1-dist", "--circuit", cubic_circuit, "--out", str(out4), "--threads", "4"]
        ) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out4.read_bytes()
        total = sum(float(line.split(",")[1]) for line in out1.read_text().splitlines()[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_max_n_cap(self, identity3, capsys):
        code = cli.main(["dqc1-dist", "--circuit", identity3, "--max-n", "1"])
        assert code == 1
        assert "exceeds" in capsys.readouterr().err

    def test_sample_deterministic(self, cubic_circuit, capsys):
        a = run_main(capsys, "sample", "--circuit", cubic_circuit, "--count", "25", "--seed", "9")
        b = run_main(capsys, "sample", "--circuit", cubic_circuit, "--count", "25", "--seed", "9")
        assert a == b
        code, out = a
        assert code == 0
        draws = out.splitlines()
        assert len(draws) == 25
        assert all(len(d) == 3 and set(d) <= {"0", "1"} for d in draws)


class TestEmbedCommands:
    def test_embed_iqp_end_to_end(self, cubic_circuit, tmp_path):
        out = tmp_path / "embedded.json"
        r = run_cli("embed-iqp", "--circuit", cubic_circuit, "--out", str(out))
        assert r.returncode == 0
        r2 = run_cli("f-value", "--circuit", str(out), "--z", "0000")
        assert r2.returncode == 0
        assert float(r2.stdout) == pytest.approx(0.5625, abs=1e-12)

    def test_embed_postselect(self, tmp_path, capsys):
        v = tmp_path / "v.json"
        save_circuit(Circuit(2, (h(0), h(1))), v)
        out1, out2 = tmp_path / "u1.json", tmp_path / "u2.json"
        code, _ = run_main(
            capsys, "embed-postselect", "--circuit", str(v),
            "--out1", str(out1), "--out2", str(out2),
        )
        assert code == 0
        _, f1 = run_main(capsys, "f-value", "--circuit", str(out1), "--z", "000")
        _, f2 = run_main(capsys, "f-value", "--circuit", str(out2), "--z", "000")
        assert float(f1) == pytest.approx(0.5, abs=1e-12)
        assert float(f2) == pytest.approx(0.25, abs=1e-12)


class TestAnticoncentration:
    def test_pass(self, capsys):
        code, out = run_main(capsys, "anticoncentration", "--ensemble", "random:iqp:3:10:12:4")
        assert code == 0
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert float(lines["heavy_fraction"]) > 1 / 3
        assert float(lines["heavy_bound"]) == pytest.approx(1 / 3, abs=1e-12)
        assert lines["pass"] == "true"

    def test_zero_eps_counts_only_nonzero_pairs(self, capsys):
        # 4 of the 80 pairs have p_z = 0, which the heavy step does not count.
        got = run_main(capsys, "anticoncentration", "--ensemble", "random:iqp:3:5:6:1", "--eps", "0")
        assert got == (0, "heavy_fraction=0.95\nheavy_bound=0.5\npass=true\n")

    def test_fail_maps_to_exit_2(self, capsys, monkeypatch):
        point_mass = Distribution(2, np.eye(8)[0])
        monkeypatch.setattr(hardness, "dqc1_distribution", lambda c, **_: point_mass)
        code, out = run_main(capsys, "anticoncentration", "--ensemble", "random:iqp:2:2:4:0")
        assert code == 2
        assert "pass=false" in out


    @pytest.mark.parametrize(
        ("spec", "eps", "delta"),
        [("random:iqp:3:6:10:7", "0.02", "0.2"), ("random:htcx:2:5:15:8", "0.01", "0.15")],
    )
    def test_matches_the_chain_report(self, capsys, spec, eps, delta):
        code, out = run_main(
            capsys, "anticoncentration", "--ensemble", spec, "--eps", eps, "--delta", delta
        )
        budget = ErrorBudget(eps=float(eps), delta=float(delta), eta=0.0)
        report = verify_chain(parse_ensemble_spec(spec), SamplerModel.exact(), budget)
        bound = (1 - 3 * budget.eps / budget.delta) / (2 - 3 * budget.eps / budget.delta)
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert code == 0
        assert lines["heavy_fraction"] == cli._scalar(report.heavy_fraction)
        assert float(lines["heavy_bound"]) == pytest.approx(bound, rel=1e-12)
        assert lines["pass"] == "true" and report.heavy_pass


class TestVerifyChain:
    def test_text_report(self, capsys):
        code, out = run_main(
            capsys, "verify-chain", "--ensemble", "random:iqp:2:6:8:3",
            "--sampler", "mass_shift:0.027", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n=2"
        assert "sampler=mass_shift:0.027" in lines
        assert lines[-1] == "all_pass=true"

    def test_json_report(self, capsys):
        code, out = run_main(
            capsys, "verify-chain", "--ensemble", "random:htcx:2:6:20:3", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert report["n"] == 2
        assert report["ensemble_size"] == 6
        assert report["sampler"] == "exact"
        assert 0.0 <= report["markov_fraction"] <= report["markov_bound"]

    def test_exact_sampler_at_zero_eps_passes(self, capsys):
        code, out = run_main(
            capsys, "verify-chain", "--ensemble", "random:iqp:3:5:6:1", "--sampler", "exact",
            "--eps", "0", "--json",
        )
        report = json.loads(out)
        assert (code, report["markov_fraction"], report["markov_pass"]) == (0, 0.0, True)

    def test_threads_byte_identical(self, capsys):
        args = ("verify-chain", "--ensemble", "random:iqp:3:8:10:2", "--sampler", "mixture:0.01")
        a = run_main(capsys, *args, "--threads", "1")
        b = run_main(capsys, *args, "--threads", "4")
        assert a == b

    def test_dir_ensemble(self, tmp_path, capsys):
        for i in range(3):
            save_circuit(compile_iqp_from_poly(PolyF2(2, ((0, 1),))), tmp_path / f"{i}.json")
        code, out = run_main(capsys, "verify-chain", "--ensemble", f"dir:{tmp_path}")
        assert code == 0
        assert "ensemble_size=3" in out.splitlines()

    def test_dir_ensemble_with_rounded_complement_rows(self, tmp_path, capsys):
        # Unclamped, this U2 has complement rows at -3.47e-18 that the counter rejects.
        _, u2 = build_postselection_pair(random_circuit(6, 40, np.random.default_rng(41), GATE_KINDS))
        save_circuit(u2, tmp_path / "u2.json")
        for command in ("verify-chain", "anticoncentration"):
            code, _ = run_main(capsys, command, "--ensemble", f"dir:{tmp_path}")
            assert code == 0, command

    def test_failed_bound_maps_to_exit_2(self, capsys, monkeypatch):
        failed = ChainReport(
            n=2, ensemble_size=1, budget=ErrorBudget(), sampler="exact", seed=0,
            markov_fraction=0.0, markov_bound=1 / 6, markov_pass=True,
            heavy_fraction=0.2, heavy_bound=1 / 3, heavy_pass=False,
            success_fraction=0.9, success_bound=1 / 6, success_pass=True,
        )
        monkeypatch.setattr(cli, "verify_chain", lambda *a, **k: failed)
        code, out = run_main(capsys, "verify-chain", "--ensemble", "random:iqp:2:2:4:0")
        assert code == 2
        assert "heavy_pass=false" in out.splitlines()


class TestExitCodes:
    def test_missing_file(self, capsys):
        code = cli.main(["gap", "--poly", "/nonexistent/poly.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_circuit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"qubits":1,"gates":[{"g":"NOPE","t":[0]}]}')
        code = cli.main(["iqp-amp", "--circuit", str(bad)])
        assert code == 1
        assert "gate 0" in capsys.readouterr().err

    def test_bad_ensemble_spec(self, capsys):
        assert cli.main(["verify-chain", "--ensemble", "bogus"]) == 1
        capsys.readouterr()

    def test_bad_sampler(self, capsys):
        assert cli.main(["verify-chain", "--ensemble", "random:iqp:2:2:4:0", "--sampler", "nope"]) == 1
        capsys.readouterr()

    def test_eta_too_large(self, capsys):
        code = cli.main(["verify-chain", "--ensemble", "random:iqp:2:2:4:0", "--eta", "0.5"])
        assert code == 1
        assert "1/8" in capsys.readouterr().err

    @pytest.mark.parametrize(("flag", "value"), [("--eps", "nan"), ("--eps", "inf"), ("--delta", "inf")])
    def test_non_finite_budget(self, capsys, flag, value):
        assert cli.main(["verify-chain", "--ensemble", "random:iqp:2:2:4:0", flag, value]) == 1
        assert capsys.readouterr() == ("", f"error: {flag[2:]} must be a finite number, got {value}\n")

    def test_dir_ensemble_above_the_cap(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(hardness, "dqc1_distribution", lambda u: ran.append(u))
        for i in range(2):
            save_circuit(Circuit(16, (h(i),)), tmp_path / f"{i}.json")
        assert cli.main(["verify-chain", "--ensemble", f"dir:{tmp_path}"]) == 1
        out, err = capsys.readouterr()
        assert (out, err, ran) == ("", "error: n=15 mixed qubits exceeds the chain's cap of 14\n", [])

    def test_bad_z_string(self, identity3, capsys):
        assert cli.main(["f-value", "--circuit", identity3, "--z", "012"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        ("command", "text", "needle"),
        [
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"RZ","t":[1],"theta":NaN}]}', "gate 0: 'theta'"),
            ("f-value", '{"qubits":2,"gates":[{"g":"RZ","t":[1],"theta":NaN}]}', "gate 0: 'theta'"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"H","t":[0]},{"g":"RZ","t":[1],"theta":Infinity}]}',
             "gate 1: 'theta'"),
            ("dqc1-dist", '{"qubits": true, "gates": [{"g":"H","t":[false]}]}', "'qubits'"),
            ("dqc1-dist", '{"qubits":1,"gates":[{"g":"H","t":[false]}]}', "gate 0: target index"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"CX","t":[0],"c":[true]}]}', "gate 0: control index"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[true]}]}',
             "gate 0: polarity"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":["H"],"t":[0]}]}', "gate 0: unknown gate kind"),
        ],
    )
    def test_rejects_non_finite_and_boolean_fields(self, tmp_path, capsys, command, text, needle):
        path = tmp_path / "bad.json"
        path.write_text(text)
        argv = [command, "--circuit", str(path)] + (["--z", "00"] if command == "f-value" else [])
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and needle in err

    def test_ising_nan_coupling_exits_1(self, tmp_path):
        model = tmp_path / "ising.json"
        model.write_text('{"n":2,"couplings":[[0,1,NaN]]}')
        r = run_cli("ising-z", "--model", str(model))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: ising: coupling 0: theta must be a finite number, got nan\n"

    @pytest.mark.parametrize(
        ("command", "flag", "text", "cap"),
        [
            ("gap", "--poly", '{"n":25,"monomials":[[0,1]]}', "n_vars=25 exceeds the cap of 24"),
            ("ising-z", "--model", '{"n":21,"couplings":[[0,1,0.5]]}', "n_spins=21 exceeds the cap of 20"),
        ],
        ids=["gap", "ising-z"],
    )
    def test_oracle_cap_names_no_flag(self, tmp_path, capsys, command, flag, text, cap):
        # Neither command has a flag that raises its cap.
        path = tmp_path / "input.json"
        path.write_text(text)
        assert cli.main([command, flag, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and cap in err and "raise" not in err

    def test_simulator_defect_is_one_line(self, identity3, capsys, monkeypatch):
        def defect(*a, **k):
            raise RuntimeError("distribution sums to nan")

        monkeypatch.setattr(cli, "dqc1_distribution", defect)
        assert cli.main(["dqc1-dist", "--circuit", identity3]) == 1
        err = capsys.readouterr().err
        assert err == "error: simulator defect: distribution sums to nan\n"

    def test_ceiling_self_check_is_one_line(self, tmp_path, capsys, monkeypatch):
        real = simulator._run_plan

        def moved(plan, chunk, bufs):
            out = real(plan, chunk, bufs)
            out[1] += out[0]
            out[0] = 0.0
            return out

        monkeypatch.setattr(simulator, "_run_plan", moved)
        path = tmp_path / "circuit.json"
        save_circuit(Circuit(3, (h(1), cx(1, 0))), path)
        assert cli.main(["dqc1-dist", "--circuit", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: simulator defect: outcome probability 0.5 exceeds 2**-2\n")

    def test_f_value_self_check_is_one_line(self, identity3, capsys, monkeypatch):
        monkeypatch.setattr(simulator, "_sq_norm", lambda v: float("nan"))
        assert cli.main(["f-value", "--circuit", identity3, "--z", "000"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: simulator defect: f value nan outside [0, 1]\n")

    @pytest.mark.parametrize("command", ["dqc1-dist", "anticoncentration", "verify-chain"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, identity3, capsys, command, threads):
        argv = [command, "--threads", threads] + (["--circuit", identity3] if command == "dqc1-dist" else [])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"dqc1sim {command}: error: argument --threads: must be an integer >= 1, got '{threads}'"
        ]
        assert err.count("error:") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-chain", "--seed", "-1"],
            ["sample", "--count", "1", "--seed", "-1"],
            ["sample", "--seed", "1", "--count", "-1"],
            ["sample", "--count", "1", "--seed", "1", "--max-n", "-1"],
            ["dqc1-dist", "--max-n", "-1"],
        ],
    )
    def test_negative_seed_is_usage_error(self, identity3, capsys, argv):
        flag = argv[argv.index("-1") - 1]
        if argv[0] != "verify-chain":
            argv = argv + ["--circuit", identity3]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"dqc1sim {argv[0]}: error: argument {flag}: must be an integer >= 0, got '-1'"
        ]
        assert err.count("error:") == 1

    def test_negative_ensemble_seed_exits_1(self, capsys):
        assert cli.main(["verify-chain", "--ensemble", "random:iqp:2:2:3:-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: need n >= 1, count >= 1, depth >= 0, seed >= 0 in 'random:iqp:2:2:3:-1'\n"
        )

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["simulate"], "dqc1sim: error: argument command: invalid choice: 'simulate'"),
            (["gap"], "dqc1sim gap: error: the following arguments are required: --poly"),
            (["verify-chain", "--bogus"], "dqc1sim: error: unrecognized arguments: --bogus"),
        ],
        ids=["unknown_command", "missing_required", "unknown_option"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith(message)

    @pytest.mark.parametrize(
        ("first", "code", "then"),
        [
            (["verify-chain", "--ensemble", "random:iqp:3:5:6:1", "--json"], 0, ["verify-chain", "--ensemble", "random:iqp:3:5:6:1"]),
            (["dqc1-dist", "--circuit", "{circuit}", "--out", "{out}"], 0, ["dqc1-dist", "--circuit", "{circuit}"]),
            (["verify-chain", "--threads", "0"], 2, ["verify-chain", "--ensemble", "random:iqp:3:5:6:1"]),
        ],
        ids=["json_then_text", "file_then_stdout", "usage_error_then_valid"],
    )
    def test_consecutive_calls_do_not_leak_state(self, cubic_circuit, tmp_path, capsys, first, code, then):
        # The parser is built once per process: each call must give what it gives as a process's first.
        out = tmp_path / "dist.csv"

        def call(argv):
            argv = [a.format(circuit=cubic_circuit, out=out) for a in argv]
            try:
                status = cli.main(argv)
            except SystemExit as e:
                status = e.code
            return (status, *capsys.readouterr())

        def first_call(argv):
            cli.build_parser.cache_clear()
            return call(argv)

        a, b = first_call(first), first_call(then)
        assert (a[0], b[0]) == (code, 0)
        assert (call(first), call(then), call(first)) == (a, b, a)
        if "--out" in first:
            assert out.read_text() == b[1]

    def test_no_command_is_usage_error(self):
        r = run_cli()
        assert r.returncode == 2
        assert r.stderr == "dqc1sim: error: the following arguments are required: command\n"


def _digest(capsys, *args) -> tuple[int, str]:
    code, out = run_main(capsys, *args)
    return code, hashlib.sha256(out.encode()).hexdigest()


# sha256 of each stdout, the same at every --threads.
_CHAIN_DIGESTS = {
    ("random:iqp:4:50:24:1", "exact"): "4350ff5fc773db7638b132b51334da2233c462f17d966b71816dbd3c8c91071a",
    ("random:iqp:4:50:24:1", "mass_shift:0.0277"): "5c194a6d9a4e9ddf757a5ad97e531f6dc8775e0768291be6c1649679ebd32bf1",
    ("random:iqp:4:50:24:1", "mixture:0.0138"): "2823fb3e8f2547d1bc19407d4a471f7521660b910a91f57ed9bd49b64d562016",
    ("random:iqp:4:50:12:20260107", "exact"): "18ccb34a2b426c1211b61edb5d59b39d3894738e73f6f4512c4bc7540964e056",
    ("random:iqp:4:50:12:20260107", "mass_shift:0.0277"): "51aff5c449034ed2d63ea9e774ce60608068327a3beef3c6036fb4d90a3217b8",
    ("random:iqp:4:50:12:20260107", "mixture:0.0138"): "4e74573596173331c4aa7fa9f501f3fd215ed0f87077be91b10f276faab01217",
    ("random:htcx:3:50:20:20260108", "exact"): "0e2ebdf6a2ef236ef94baf138c0b8aa5ef705428f23c83861c5d7e4a76ae5acd",
    ("random:htcx:3:50:20:20260108", "mass_shift:0.0277"): "71583f08a89a6ed4b3ea430060c60c743b702a43d8f48a4fa52aefbb9774fa72",
    ("random:htcx:3:50:20:20260108", "mixture:0.0138"): "cc109c8e688a5038001457d6f84c4261212f4924f7a19d1a1df273f664f3330f",
    ("random:iqp:3:20:15:7", "exact"): "7d306c3c028f1b2184221597ba1f04e3f1235cbdd7630618277e2795f29b35e9",
    ("random:iqp:3:20:15:7", "mass_shift:0.0277"): "2f513ca226f440c428737e5c6cfa75dc98ca9927cf826f5d067a24f11695b20b",
    ("random:iqp:3:20:15:7", "mixture:0.0138"): "543e1dd0636d6be382d73135fa8e8ae071a6527e70607403dfe6a111cc06e16f",
}
# dqc1-dist on 11 qubits: seed 1 after an H layer (every qubit mixed: the
# full plan), seed 2 a plain random circuit (some columns left out).
_DIST_DIGESTS = {
    1: "3437d605a3098c839bd5729f97eefc4ede4662b699b07854fccbadc2e2f60cbc",
    2: "a6c6e4b68a62164b035de9536aa16aa324419ac2506978298fc66936ca73e5d5",
}

# dqc1-dist on circuits that the plan splits into sides (see _split_circuit).
_SPLIT_DIGESTS = {
    "embedding": "1031e2f2beb7a7af1dd3d73def32512c29053bfba6650b08b2ba1dd82e693645",
    "pair": "6fd8326a619f513b438dac5354fc466cc6f3c5fb4910834c2044424bb5e11838",
    "spread": "062c1b692cc9a8d876376cc547f72fab153d5d9f1781e4b6fdb295cb79b0f9b6",
}
# anticoncentration stdout on the ensembles of _CHAIN_DIGESTS.
_ANTICONCENTRATION_DIGESTS = {
    "random:iqp:3:20:15:7": "caf85732997c80bee4c2ebe701abc32f866f1e45950dd5f2e770da067c547daa",
    "random:iqp:4:50:12:20260107": "12ae9e1bd7330f234d81e6881801157706ab64cdd86098d8147cf47026b4c7d0",
    "random:iqp:4:50:24:1": "54ced6588f81e78c8b3e6e19b51defd3fc91421e475e4545e9d0e6eb1c5319da",
    "random:htcx:3:50:20:20260108": "1f0db4fd8cb6049ec15673766bbb0f789085e4d998155758cf855d41d483d98b",
}
# iqp-amp on the circuits of _amp_circuit.
_AMP_DIGESTS = {
    ("iqp", 1): "7518a9086866d49a3461ef316322e95e3e59b617d97aa1347e87150e1fe41ad0",
    ("iqp", 2): "524c7fc7ac66caaa7557cd258eaf646a8f07509c4e1d771455c75b3932d63c42",
    ("tail", 12): "679a1ddfd9454eb4f705ebb143fa0bc3e6173fbd34fbfc186ce922b0ac8b3acb",
    ("tail", 24): "83ca0b56fbe86dc4788fc9c2d2164ea39fdf0483bbca1f661c5fd6f5aa41d6f8",
    ("real", 35): "94000a9cb9fe14c555c99484dd53ff744569f86d639787cad24a5ca44f080708",
}
# f-value on the circuits of _real_circuit, which f_value runs in float64.
_FVALUE_DIGESTS = {
    (12, 4): "234ff160d9921e6cd53019b1ef3c824c47747d64c11a24ece5f0353bad3b9607",
    (16, 4): "0e7e5551c78e2f790611aa5c66095a4a261ab577357dcda6d1dabe9ada329ef8",
}
# Gates with real matrices, in the order random_circuit draws them.
_REAL_KINDS = ("H", "X", "Z", "CZ", "CCZ", "CX", "MCX")
# iqp-amp and f-value --z 0000000101 on the circuits of _layered_circuit.
_LAYERED_DIGESTS = {
    ("all", "f-value"): "4fc1d1bb07fe2a0ac28055c68f7d627786ceeece8cf02a239b6d74818e5a26c2",
    ("all", "iqp-amp"): "b2d20da6ab99125db53847528ad2c530b9eed45a7abe266267b378bc6e6330e1",
    ("real", "f-value"): "8d5c1b5a87c51f970807fc0c2057b3ab3aaf11638ab667dc5956edc8f5bcf138",
    ("real", "iqp-amp"): "65728f36ff4e811ffe0a03ccbede02a104fe42291d454e5f3d78db9a332c2e1f",
}


def _amp_circuit(kind: str, seed: int) -> Circuit:
    """A circuit whose all-zero amplitude iqp-amp prints.

    "iqp": an n = 10 IQP circuit; "tail": an H layer, 60 random gates of
    every kind and 12 of H, X and CX on 9 qubits.  The tail of seed 12 ends
    in three H gates, a CX and an X, that of seed 24 in three H gates, an X
    and a CX.  "real": 80 random real gates on 9 qubits; the amplitude of
    seed 35 has an imaginary part of -0.0.
    """
    rng = np.random.default_rng(seed)
    if kind == "iqp":
        return compile_iqp_from_poly(random_poly(10, 30, rng))
    if kind == "real":
        return random_circuit(9, 80, rng, _REAL_KINDS)
    layer = tuple(h(q) for q in range(9))
    body = random_circuit(9, 60, rng, GATE_KINDS).gates
    tail = random_circuit(9, 12, rng, ("H", "X", "CX")).gates
    return Circuit(9, layer + body + tail)


def _real_circuit(width: int, seed: int) -> tuple[Circuit, str]:
    """An H layer, 4 * width random real gates and an H layer, and the z that f-value reads.

    Not a worst-case embedding: qubit 0 is mixed, and f is neither 0 nor 1/2.
    """
    rng = np.random.default_rng(seed)
    layer = tuple(h(q) for q in range(width))
    body = random_circuit(width, 4 * width, rng, _REAL_KINDS).gates
    z = format(int(rng.integers(1 << width)), f"0{width}b")
    return Circuit(width, layer + body + layer), z


def _layered_circuit(kinds: str) -> Circuit:
    """H layers around two draws of 30 random gates on 10 qubits, seed 1.

    "all" draws from GATE_KINDS, "real" from _REAL_KINDS, which f-value
    runs in float64.  The H layers before the last act on live qubits,
    the lowest index bits included, and the last one is read out.
    """
    rng = np.random.default_rng(1)
    pool = GATE_KINDS if kinds == "all" else _REAL_KINDS
    layer = tuple(h(q) for q in range(10))
    first = random_circuit(10, 30, rng, pool).gates
    second = random_circuit(10, 30, rng, pool).gates
    return Circuit(10, layer + first + layer + second + layer)


def _dist_n12_circuit(seed: int) -> Circuit:
    """The shape of the dist-n12 benchmark: 12 random gates of each of ten kinds on 13 qubits."""
    rng = np.random.default_rng(seed)
    kinds = ("H", "X", "Z", "S", "T", "RZ", "CZ", "CCZ", "CX", "MCX")
    gates = [g for kind in kinds for g in random_circuit(13, 12, rng, (kind,)).gates]
    return Circuit(13, tuple(gates[i] for i in rng.permutation(len(gates))))


class _Stop(Exception):
    """Ends a plan run early."""


class TestChunkLists:
    """The plan chunks of the dist-n12 benchmark's shape."""

    @pytest.mark.parametrize(("seed", "columns"), [(1, 2048), (3, 4096)])
    def test_dist_n12_circuits(self, seed, columns):
        # 2**13 rows of 128 columns fill a chunk, and two threads keep those chunks.
        u = _dist_n12_circuit(seed)
        chunks = tuple((c, 128) for c in range(0, columns, 128))
        for threads in (1, 2):
            assert simulator._compile(u, threads=threads).chunks == chunks

    def test_first_butterfly_skips_unreached_rows(self, monkeypatch):
        # A chunk's 128 columns start on few of its 2**13 rows, so its first
        # butterflies run on a block of them, not on the whole chunk of
        # 2**20 entries.
        sizes = []

        def spy(lo, hi, flipped):
            sizes.append(lo.size + hi.size)
            if len(sizes) == 2:
                raise _Stop

        monkeypatch.setattr(simulator, "_butterfly", spy)
        with pytest.raises(_Stop):
            dqc1_distribution(_dist_n12_circuit(1))
        assert max(sizes) <= (1 << 20) // 4  # floats, of the chunk's 2 * entries


class TestPinnedBytes:
    """Output bytes that changes to the arithmetic must leave as they are."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(("ensemble", "sampler"), sorted(_CHAIN_DIGESTS))
    def test_verify_chain_json(self, capsys, ensemble, sampler, threads):
        got = _digest(
            capsys, "verify-chain", "--ensemble", ensemble, "--sampler", sampler,
            "--json", "--threads", threads,
        )
        assert got == (0, _CHAIN_DIGESTS[ensemble, sampler])

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("seed", sorted(_DIST_DIGESTS))
    def test_dqc1_dist(self, tmp_path, capsys, seed, threads):
        layer = tuple(h(q) for q in range(11)) if seed == 1 else ()
        gates = random_circuit(11, 120, np.random.default_rng(seed), GATE_KINDS).gates
        path = tmp_path / "circuit.json"
        save_circuit(Circuit(11, layer + gates), path)
        got = _digest(capsys, "dqc1-dist", "--circuit", str(path), "--threads", threads)
        assert got == (0, _DIST_DIGESTS[seed])

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", sorted(_SPLIT_DIGESTS))
    def test_dqc1_dist_split(self, tmp_path, capsys, case, threads):
        path = tmp_path / "circuit.json"
        save_circuit(split_circuit(case), path)
        got = _digest(capsys, "dqc1-dist", "--circuit", str(path), "--threads", threads)
        assert got == (0, _SPLIT_DIGESTS[case])

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("ensemble", sorted(_ANTICONCENTRATION_DIGESTS))
    def test_anticoncentration(self, capsys, ensemble, threads):
        got = _digest(capsys, "anticoncentration", "--ensemble", ensemble, "--threads", threads)
        assert got == (0, _ANTICONCENTRATION_DIGESTS[ensemble])

    @pytest.mark.parametrize("case", sorted(_AMP_DIGESTS))
    def test_iqp_amp(self, tmp_path, capsys, case):
        path = tmp_path / "circuit.json"
        save_circuit(_amp_circuit(*case), path)
        assert _digest(capsys, "iqp-amp", "--circuit", str(path)) == (0, _AMP_DIGESTS[case])

    @pytest.mark.parametrize("case", sorted(_FVALUE_DIGESTS))
    def test_f_value(self, tmp_path, capsys, case):
        circuit, z = _real_circuit(*case)
        path = tmp_path / "circuit.json"
        save_circuit(circuit, path)
        assert _digest(capsys, "f-value", "--circuit", str(path), "--z", z) == (0, _FVALUE_DIGESTS[case])

    @pytest.mark.parametrize(("kinds", "command"), sorted(_LAYERED_DIGESTS))
    def test_layered(self, tmp_path, capsys, kinds, command):
        path = tmp_path / "circuit.json"
        save_circuit(_layered_circuit(kinds), path)
        z = ("--z", "0000000101") if command == "f-value" else ()
        got = _digest(capsys, command, "--circuit", str(path), *z)
        assert got == (0, _LAYERED_DIGESTS[kinds, command])


# OpenBLAS settings that change the kernel or the thread count of a BLAS
# sum.  A forced core type must be one the CPU can run: Prescott needs
# only SSE3, so it is forced on x86_64 alone, and each other core type runs
# only where /proc/cpuinfo lists the flag after it.  For Prescott,
# OpenBLAS 0.3.31 loads the Katmai kernels (OPENBLAS_VERBOSE=2).
_BLAS_SETTINGS = {
    "one-thread": ({"OPENBLAS_NUM_THREADS": "1"}, None),
    "prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, None),
    "sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, "avx"),
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "avx2"),
    "skylakex": ({"OPENBLAS_CORETYPE": "SkylakeX"}, "avx512f"),
}


def _cpu_flags() -> set[str]:
    """The CPU feature flags /proc/cpuinfo lists; none where it cannot be read."""
    try:
        with open("/proc/cpuinfo") as fh:
            text = fh.read()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


def _blas_env(setting: dict) -> dict:
    """The environment with no OPENBLAS_* variable but those of ``setting``."""
    return {**{k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}, **setting}


@functools.cache
def _blas_core(coretype: str | None) -> str | None:
    """The core whose kernels OpenBLAS loads for OPENBLAS_CORETYPE=coretype (None: unset), as OPENBLAS_VERBOSE=2 names it."""
    setting = {"OPENBLAS_VERBOSE": "2"} if coretype is None else {"OPENBLAS_VERBOSE": "2", "OPENBLAS_CORETYPE": coretype}
    r = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, text=True, timeout=60, env=_blas_env(setting))
    found = [line.split(":", 1)[1].strip() for line in r.stderr.splitlines() if line.startswith("Core:")]
    return found[0] if found else None


@pytest.fixture(scope="module")
def blas_default(tmp_path_factory) -> dict:
    """Per command: the arguments, and the stdout with no OPENBLAS_* variable set."""
    out = {}
    for command in ("f-value", "iqp-amp"):
        if command == "f-value":
            # f = 1/2; a BLAS sum of squares gave 0.5, 0.49999999999999994 or
            # 0.4999999999999999, by kernel and thread count.
            circuit = random_circuit(21, 200, np.random.default_rng(21))
            args = ("--z", "1" * 21)
        else:
            layer = tuple(h(q) for q in range(20))
            body = random_circuit(20, 200, np.random.default_rng(20), ("H", "T", "CZ", "CX")).gates
            circuit, args = Circuit(20, layer + body), ()
        path = tmp_path_factory.mktemp("blas") / "circuit.json"
        save_circuit(circuit, path)
        r = run_cli(command, "--circuit", str(path), *args, env=_blas_env({}))
        assert r.returncode == 0, r.stderr
        out[command] = (("--circuit", str(path), *args), r.stdout)
    return out


class TestBlasIndependence:
    """Printed bytes do not depend on the kernel or the thread count OpenBLAS picks."""

    @pytest.mark.parametrize("setting", sorted(_BLAS_SETTINGS))
    @pytest.mark.parametrize("command", ["f-value", "iqp-amp"])
    def test_stdout_under_blas_settings(self, blas_default, command, setting):
        env_setting, cpu_flag = _BLAS_SETTINGS[setting]
        if setting == "prescott" and platform.machine() != "x86_64":
            pytest.skip("OPENBLAS_CORETYPE=Prescott runs on x86_64 only")
        if cpu_flag is not None and cpu_flag not in _cpu_flags():
            pytest.skip(f"{env_setting['OPENBLAS_CORETYPE']} needs {cpu_flag}, which /proc/cpuinfo does not list")
        coretype = env_setting.get("OPENBLAS_CORETYPE")
        if coretype is not None and _blas_core(None) is not None and _blas_core(coretype) == _blas_core(None):
            pytest.skip(f"OpenBLAS loads {_blas_core(None)}, the default core, for {coretype}")
        args, want = blas_default[command]
        forced = run_cli(command, *args, env=_blas_env(env_setting))
        assert forced.returncode == 0, forced.stderr
        assert forced.stdout == want
