import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import digenergy
from digenergy import MAX_VERTICES, parse_edge_list, random_digraph, serialize_edge_list
from digenergy.cli import main

K3_TEXT = "3\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n"
C4_TEXT = "4\n0 1\n1 2\n2 3\n3 0\n"

_SRC = str(pathlib.Path(digenergy.__file__).resolve().parent.parent)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, stdin="", timeout=None):
    """Run the CLI in a child process; ``stdin`` as bytes gives bytes output."""
    proc = subprocess.run(
        [sys.executable, "-m", "digenergy", *args],
        input=stdin, capture_output=True, text=isinstance(stdin, str), env=_cli_env(), timeout=timeout,
    )
    return proc


class TestAnalyze:
    def test_human_output(self, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text(K3_TEXT)
        proc = run_cli(["analyze", str(path)])
        assert proc.returncode == 0
        assert "energy=4" in proc.stdout
        assert "COMPLETE(3)" in proc.stdout
        assert "walk_dominated=yes" in proc.stdout

    def test_stdin(self):
        proc = run_cli(["analyze"], stdin=K3_TEXT)
        assert proc.returncode == 0

    def test_json_roundtrip(self):
        proc = run_cli(["--json", "analyze", "-"], stdin=K3_TEXT)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        arcs = {tuple(a) for a in doc["digraph"]["arcs"]}
        assert arcs == set(parse_edge_list(K3_TEXT).arcs)
        assert doc["spectrum"]["energy"] == pytest.approx(4.0, abs=1e-9)
        assert doc["bounds"]["walk_dominated"] is True
        assert doc["verdicts"]["energy_upper"]["kind"] == "COMPLETE"
        # profile fields recompute from the echoed arc list
        from digenergy import Digraph, walk_profile

        rebuilt = Digraph(doc["digraph"]["n"], arcs)
        prof = walk_profile(rebuilt)
        assert list(prof.c2_seq) == doc["profile"]["c2_seq"]
        assert list(prof.t2_seq) == doc["profile"]["t2_seq"]

    def test_pole_warning_in_document(self):
        proc = run_cli(["--json", "analyze", "-"], stdin=C4_TEXT)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["coulson_energy"] is None
        assert any("pole" in w for w in doc["warnings"])

    def test_empty_input_fails_usage(self):
        proc = run_cli(["analyze", "-"], stdin="")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_order_zero(self):
        proc = run_cli(["--json", "analyze", "-"], stdin="0\n")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["spectrum"] == {"eigenvalues": [], "rho": 0.0, "energy": 0.0}
        assert doc["coulson_energy"] == 0.0

    def test_missing_file(self):
        proc = run_cli(["analyze", "/definitely/not/here.txt"])
        assert proc.returncode == 2


class TestVerify:
    def test_n3_exhaustive_passes(self):
        proc = run_cli(["verify", "3"])
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    def test_single_check(self):
        proc = run_cli(["verify", "4", "--checks", "rho_chain"])
        assert proc.returncode == 0

    def test_json_report(self):
        proc = run_cli(["--json", "verify", "2"])
        report = json.loads(proc.stdout)
        assert report["digraphs_checked"] == 4
        assert proc.returncode == 0

    def test_cap_exceeded_usage_error(self):
        proc = run_cli(["verify", "9", "--mode", "exhaustive"])
        assert proc.returncode == 2

    def test_unknown_check_usage_error(self):
        proc = run_cli(["verify", "3", "--checks", "bogus"])
        assert proc.returncode == 2

    def test_empty_check_list_usage_error(self):
        # An empty --checks names one empty check, as ",walk_rowsum" does;
        # it does not mean "all checks".
        proc = run_cli(["verify", "3", "--checks", ""])
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.startswith("error: unknown check name(s): ;")

    def test_random_mode(self):
        proc = run_cli(["verify", "6", "--mode", "random", "--count", "20",
                        "--p", "0.3", "--seed", "4",
                        "--checks", "moment_difference,moment_total"])
        assert proc.returncode == 0

    def test_tol_flag_plumbed(self):
        proc = run_cli(["--tol", "1e-6", "verify", "2", "--checks", "rho_chain"])
        assert proc.returncode == 0


class TestCoulson:
    def test_sym_edge(self):
        proc = run_cli(["coulson", "-"], stdin="2\n0 1\n1 0\n")
        assert proc.returncode == 0
        lines = dict(line.split(None, 1) for line in proc.stdout.strip().splitlines())
        assert float(lines["integral"]) == pytest.approx(2.0, rel=1e-6)
        assert float(lines["energy"]) == pytest.approx(2.0, rel=1e-9)

    def test_sym_triangle(self):
        proc = run_cli(["coulson", "-"], stdin=K3_TEXT)
        assert proc.returncode == 0

    def test_directed_four_cycle_pole(self):
        proc = run_cli(["coulson", "-"], stdin=C4_TEXT)
        assert proc.returncode == 1
        assert "x = 1" in proc.stderr or "x = -1" in proc.stderr

    def test_order_zero(self):
        proc = run_cli(["coulson", "-"], stdin="0\n")
        assert proc.returncode == 0
        assert "integral  0" in proc.stdout.splitlines()


class TestRandom:
    def test_complete_at_p_one(self):
        proc = run_cli(["random", "3", "1.0", "1"])
        assert proc.returncode == 0
        assert parse_edge_list(proc.stdout).arc_count == 6

    def test_empty_at_p_zero(self):
        proc = run_cli(["random", "3", "0.0", "1"])
        assert proc.stdout == "3\n"

    def test_byte_identical_runs(self):
        a = run_cli(["random", "5", "0.4", "9"])
        b = run_cli(["random", "5", "0.4", "9"])
        assert a.stdout == b.stdout

    def test_pipes_into_analyze(self):
        blob = run_cli(["random", "4", "0.5", "7"]).stdout
        proc = run_cli(["analyze", "-"], stdin=blob)
        assert proc.returncode == 0

    def test_bad_flags(self):
        proc = run_cli(["random", "3", "1.5", "1"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("p", ["2", "-0.5", "nan", "inf"])
    @pytest.mark.parametrize("argv", ["verify 3 --mode random --count 3 --p {p}", "random 3 {p} 1"],
                             ids=["verify", "random"])
    def test_p_outside_the_unit_interval(self, argv, p):
        proc = run_cli(argv.format(p=p).split())
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr == f"error: need 0 <= p <= 1, got {float(p)}\n"


class TestVertexCap:
    """Orders above MAX_VERTICES are usage errors, raised before any work
    of that size: without the cap these inputs allocate tens of gigabytes
    or run until killed."""

    @pytest.mark.parametrize("header", ["100000", "1000000000"])
    def test_huge_header_fails_fast(self, header):
        started = time.perf_counter()
        proc = run_cli(["analyze", "-"], stdin=f"{header}\n0 1\n", timeout=10)
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert f"exceeds the cap of {MAX_VERTICES}" in proc.stderr

    def test_random_above_cap(self):
        proc = run_cli(["random", "100000", "0.5", "1"], timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_cap_parses(self):
        d = random_digraph(MAX_VERTICES, 0.05, 1)
        assert parse_edge_list(serialize_edge_list(d)) == d


class TestUsageErrors:
    """Unreadable input and out-of-range numeric options exit 2 with one
    message, never a traceback."""

    @pytest.mark.parametrize("command", ["analyze", "coulson"])
    def test_non_utf8_file(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "coulson"])
    @pytest.mark.parametrize("data", [b"3\n0 1\n# caf\xe9\n", b"\xff\xfe\n"],
                             ids=["latin1-comment", "bad-header"])
    def test_non_utf8_stdin_matches_file(self, tmp_path, command, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        from_stdin = run_cli([command, "-"], stdin=data)
        from_file = run_cli([command, str(path)])
        assert from_stdin.returncode == from_file.returncode == 2
        assert from_stdin.stdout == b""
        assert from_stdin.stderr == from_file.stderr.encode()
        assert from_stdin.stderr.startswith(b"error: 'utf-8' codec can't decode")
        assert from_stdin.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "coulson"])
    def test_utf8_comment_on_stdin_parses(self, command):
        proc = run_cli([command, "-"], stdin="2\n0 1\n1 0\n# café ✓\n".encode())
        assert proc.returncode == 0
        assert proc.stderr == b""

    @pytest.mark.parametrize("argv", [
        ["coulson", "--rel-tol", "0", "-"],
        ["coulson", "--rel-tol", "1e-12", "-"],
        ["coulson", "--rel-tol", "1.5", "-"],
        ["coulson", "--rel-tol", "nan", "-"],
        ["--tol", "nan", "verify", "2"],
        ["--tol", "-1", "verify", "2"],
        ["--tol", "inf", "verify", "2"],
        ["--tol", "abc", "analyze", "-"],
        ["--tol", "1e308", "verify", "3"],  # would overflow in bounds.leq_tol
        ["--tol", "1", "verify", "2"],
    ])
    def test_bad_numeric_option(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --" in captured.err

    def test_zero_tol_accepted(self, capsys):
        assert main(["--tol", "0", "verify", "2"]) == 0
        capsys.readouterr()


class TestRejectedSpectrum:
    """A spectrum the eigensolver rejects exits 1 with one message, never a
    traceback.  The QR values are moved far from the exact roots of x^3."""

    @pytest.mark.parametrize("argv", [["--json", "analyze", "-"], ["analyze", "-"],
                                      ["coulson", "-"], ["verify", "3"]])
    def test_exits_1_with_one_error_line(self, capsys, monkeypatch, argv):
        from digenergy import qr_values, spectrum as spectrum_mod

        monkeypatch.setattr(spectrum_mod, "qr_values", lambda a: qr_values(a) + 100.0)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"3\n0 1\n")))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: QR values and exact-polynomial roots disagree")
        assert captured.err.count("\n") == 1

    def test_residual_gate_exits_1_with_one_error_line(self, capsys, monkeypatch):
        from digenergy import spectrum as spectrum_mod

        monkeypatch.setattr(spectrum_mod, "_RESIDUAL_GATE", -1.0)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"3\n0 1\n")))
        assert main(["--json", "analyze", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eigenvalue residual")
        assert "exceeds gate" in captured.err
        assert captured.err.count("\n") == 1


class TestMainEntry:
    def test_main_returns_exit_code(self, capsys):
        assert main(["verify", "2"]) == 0
        capsys.readouterr()

    def test_exit_codes_stable_contract(self):
        assert run_cli(["verify", "2"]).returncode == 0      # pass
        assert run_cli(["coulson", "-"], stdin=C4_TEXT).returncode == 1  # failure
        assert run_cli(["verify", "99"]).returncode == 2     # usage

    def test_run_freezes_the_collector_once_then_exits_with_main_status(self, monkeypatch):
        from digenergy import cli

        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, calls) == (3, ["freeze", "main"])

    def test_main_leaves_the_collector_unfrozen(self, capsys, monkeypatch):
        frozen = gc.get_freeze_count()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(K3_TEXT.encode())))
        assert main(["--json", "analyze", "-"]) == 0
        assert main(["verify", "2"]) == 0
        assert gc.get_freeze_count() == frozen
        capsys.readouterr()


class TestBrokenPipe:
    def test_closed_stdout_exits_1_without_traceback(self):
        # The read end of stdout is closed before the child gets its input,
        # so its first write always meets a broken pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "digenergy", "--json", "analyze", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
        )
        proc.stdout.close()
        _, err = proc.communicate(K3_TEXT.encode(), timeout=60)
        assert proc.returncode == 1
        assert err == b""
