"""Command-line interface: outputs, file round trips, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import dqc1sim.cli as cli
import dqc1sim.simulator as simulator
from dqc1sim.circuits import (
    Circuit,
    PolyF2,
    compile_iqp_from_poly,
    h,
    save_circuit,
)
from dqc1sim.ensembles import random_poly
from dqc1sim.hardness import (
    BoundViolationError,
    ChainReport,
    ErrorBudget,
    build_worst_case_embedding,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dqc1sim", *args],
        capture_output=True,
        text=True,
        timeout=120,
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

    @pytest.mark.parametrize(
        ("seed", "golden"),
        [(1, "3.433227539062483e-05\n"), (2, "0.0005493164062499973\n")],
    )
    def test_f_value_bytes_on_worst_case_embeddings(self, tmp_path, capsys, seed, golden):
        # Pinned stdout bytes: the run kernels must not change the arithmetic.
        poly = random_poly(14, 42, np.random.default_rng(seed))
        path = tmp_path / "embedding.json"
        save_circuit(build_worst_case_embedding(compile_iqp_from_poly(poly)), path)
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

    def test_fail_maps_to_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "heavy_set_fraction", lambda *a, **k: 0.0)
        code, out = run_main(capsys, "anticoncentration", "--ensemble", "random:iqp:2:2:4:0")
        assert code == 2
        assert "pass=false" in out


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
        assert "1/6" in capsys.readouterr().err

    def test_bad_z_string(self, identity3, capsys):
        assert cli.main(["f-value", "--circuit", identity3, "--z", "012"]) == 1
        capsys.readouterr()

    def test_bound_violation_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise BoundViolationError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "verify_chain", boom)
        code = cli.main(["verify-chain", "--ensemble", "random:iqp:2:2:4:0"])
        assert code == 2
        assert "bound violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "text", "needle"),
        [
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"RZ","t":[1],"theta":NaN}]}', "gate 0: 'theta'"),
            ("f-value", '{"qubits":2,"gates":[{"g":"RZ","t":[1],"theta":NaN}]}', "gate 0: 'theta'"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"H","t":[0]},{"g":"RZ","t":[1],"theta":Infinity}]}',
             "gate 1: 'theta'"),
            ("dqc1-dist", '{"qubits": true, "gates": [{"g":"H","t":[false]}]}', "'qubits'"),
            ("dqc1-dist", '{"qubits":1,"gates":[{"g":"H","t":[false]}]}', "gate 0 field 't'"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"CX","t":[0],"c":[true]}]}', "gate 0 field 'c'"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":"MCX","t":[0],"c":[1],"pol":[true]}]}',
             "gate 0 field 'pol'"),
            ("dqc1-dist", '{"qubits":2,"gates":[{"g":["H"],"t":[0]}]}', "gate 0: 'g'"),
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

    def test_simulator_defect_is_one_line(self, identity3, capsys, monkeypatch):
        def defect(*a, **k):
            raise RuntimeError("distribution sums to nan")

        monkeypatch.setattr(cli, "dqc1_distribution", defect)
        assert cli.main(["dqc1-dist", "--circuit", identity3]) == 1
        err = capsys.readouterr().err
        assert err == "error: simulator defect: distribution sums to nan\n"

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
        assert err.splitlines()[-1] == (
            f"dqc1sim {command}: error: argument --threads: must be an integer >= 1, got '{threads}'"
        )
        assert err.count("error:") == 1

    def test_no_command_is_usage_error(self):
        r = run_cli()
        assert r.returncode == 2
        assert "usage" in r.stderr
