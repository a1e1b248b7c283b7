"""CLI tests: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import cakit
import cakit.greedy as greedy_module
from cakit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenCombos:
    def test_three_parameters_pairwise_lines(self, capsys):
        code, out, _ = run_cli(capsys, "gen-combos", "--k", "3", "--t", "2")
        assert code == 0
        assert out.splitlines() == ["0,1", "0,2", "1,2"]

    def test_count_only_single_combo(self, capsys):
        code, out, _ = run_cli(capsys, "gen-combos", "--k", "5", "--t", "5", "--count-only")
        assert (code, out.strip()) == (0, "1")

    def test_count_only_400_choose_2(self, capsys):
        code, out, _ = run_cli(capsys, "gen-combos", "--k", "400", "--t", "2", "--count-only")
        assert (code, out.strip()) == (0, "79800")

    def test_nbit_matches_stack(self, capsys):
        _, stack_out, _ = run_cli(capsys, "gen-combos", "--k", "6", "--t", "3")
        _, nbit_out, _ = run_cli(capsys, "gen-combos", "--k", "6", "--t", "3", "--algo", "nbit")
        assert stack_out == nbit_out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "combos.txt"
        code, out, _ = run_cli(capsys, "gen-combos", "--k", "4", "--t", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[0] == "0,1"

    def test_invalid_kt_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen-combos", "--k", "3", "--t", "9")
        assert code == 2
        assert "t <= k" in err or "error" in err

    def test_nbit_size_limit_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "gen-combos", "--k", "70", "--t", "2", "--algo", "nbit")
        assert code == 3
        assert "24" in err

    def test_nbit_past_walk_bound_exits_3_before_writing(self, capsys, tmp_path):
        path = tmp_path / "combos.txt"
        code, _, err = run_cli(
            capsys, "gen-combos", "--k", "40", "--t", "2", "--algo", "nbit", "--out", str(path)
        )
        assert code == 3
        assert "2^40" in err
        assert not path.exists()


class TestGenerateCa:
    def test_tiny_spec_four_rows(self, capsys, tmp_path):
        out_path = tmp_path / "suite.csv"
        code, _, _ = run_cli(
            capsys, "generate-ca", "--spec", "t=2;k=2;v=2,2", "--out", str(out_path)
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 4
        meta = json.loads((tmp_path / "suite.csv.meta.json").read_text())
        assert meta["rows"] == 4
        assert meta["remaining"] == 0
        assert meta["mechanism"] == "hash"

    def test_bad_spec_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate-ca", "--spec", "nonsense", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_zero_strength_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate-ca", "--spec", "t=0;k=5;v=2^5", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_incomplete_coverage_exits_1_with_partial(self, capsys, tmp_path):
        out_path = tmp_path / "partial.csv"
        code, _, err = run_cli(
            capsys, "generate-ca", "--spec", "t=2;k=4;v=3^4",
            "--max-rows", "2", "--out", str(out_path),
        )
        assert code == 1
        assert "incomplete" in err
        meta = json.loads((tmp_path / "partial.csv.meta.json").read_text())
        assert meta["remaining"] > 0

    def test_seed_determinism_across_mechanisms(self, capsys, tmp_path):
        outputs = []
        for mech in ["hash", "indexed", "full"]:
            path = tmp_path / f"{mech}.csv"
            code, _, _ = run_cli(
                capsys, "generate-ca", "--spec", "t=2;k=4;v=2^4",
                "--mech", mech, "--seed", "9", "--out", str(path),
            )
            assert code == 0
            outputs.append(path.read_text())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_candidates_past_the_element_budget_exit_3_before_any_draw(
        self, capsys, monkeypatch, tmp_path
    ):
        # 10**8 candidates of 10 values would take about 8 GB to decode at
        # once. Every decoder raises if reached, so no build of cakit can
        # start that allocation here.
        for name in ("_array_batches", "_tuple_batches"):
            monkeypatch.setattr(greedy_module, name,
                                mock.Mock(side_effect=AssertionError(f"{name} reached")))
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "generate-ca", "--spec", "t=3;k=10;v=5^10",
            "--candidates", "100000000", "--out", str(out_path),
        )
        assert code == 3
        assert "100000000 candidates" in err
        assert not out_path.exists()


class TestVerifyCa:
    def test_exhaustive_suite_passes(self, capsys, tmp_path):
        path = tmp_path / "all.csv"
        rows = [f"{a},{b},{c}" for a in range(2) for b in range(2) for c in range(2)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "verify-ca", "--spec", "t=2;k=3;v=2^3", "--suite", str(path))
        assert code == 0
        assert "missing=0" in out

    def test_empty_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, _ = run_cli(capsys, "verify-ca", "--spec", "t=2;k=3;v=2^3", "--suite", str(path))
        assert code == 1
        assert "missing=12" in out

    def test_oa_9_2_4_3_passes(self, capsys, tmp_path):
        path = tmp_path / "oa.csv"
        rows = [
            f"{a},{b},{(a + b) % 3},{(a + 2 * b) % 3}" for a in range(3) for b in range(3)
        ]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "verify-ca", "--spec", "t=2;k=4;v=3^4", "--suite", str(path))
        assert code == 0
        assert "covered=54" in out

    @pytest.mark.parametrize("bad_row", ["0,1", "0,1,2"], ids=["short", "out_of_domain"])
    def test_invalid_row_names_file_and_line(self, capsys, tmp_path, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,0,0\n{bad_row}\n")
        code, _, err = run_cli(capsys, "verify-ca", "--spec", "t=2;k=3;v=2^3", "--suite", str(path))
        assert code == 2
        assert f"{path}:2:" in err

    def test_missing_suite_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "verify-ca", "--spec", "t=2;k=3;v=2^3", "--suite", str(tmp_path / "nope.csv")
        )
        assert code == 2


class TestBenchCommands:
    def test_bench_gen_reports(self, capsys, tmp_path):
        jpath, cpath = tmp_path / "g.json", tmp_path / "g.csv"
        code, _, _ = run_cli(
            capsys, "bench-gen", "--k-list", "4", "--t-list", "2",
            "--reps", "1", "--warmup", "0", "--json", str(jpath), "--csv", str(cpath),
        )
        assert code == 0
        payload = json.loads(jpath.read_text())
        assert payload["records"][0]["kind"] == "generation"
        assert cpath.read_text().startswith("kind,")

    def test_bench_gen_negative_budget_or_warmup_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "bench-gen", "--k-list", "5", "--t-list", "2", "--budget", "-1", "--warmup", "-2"
        )
        assert (code, out) == (2, "")
        assert "must be" in err

    def test_bench_search_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench-search", "--spec", "t=2;k=2;v=2,2",
            "--candidates", "3", "--rows", "4",
        )
        assert code == 0
        assert out.startswith("kind,")
        assert "hash" in out and "indexed" in out and "full" in out

    def test_bench_search_unknown_mechanism_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "bench-search", "--spec", "t=2;k=2;v=2,2", "--mechs", "sorcery"
        )
        assert code == 2

    def test_bench_search_rejects_direct(self, capsys):
        # a name outside StoreMechanism is a usage error that names it
        code, _, err = run_cli(
            capsys, "bench-search", "--spec", "t=2;k=2;v=2,2", "--mechs", "hash,direct"
        )
        assert code == 2
        assert "unknown mechanism 'direct'" in err


class TestParsing:
    def test_no_command_exits_2(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


def test_module_entry_point():
    # The child process imports the same cakit as these tests, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(cakit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "cakit", "gen-combos", "--k", "3", "--t", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0,1", "0,2", "1,2"]


def test_cli_and_one_row_store_calls_never_import_numpy():
    # numpy's import alone takes longer than all of cakit.cli's, so it waits
    # for the first batch query; a greedy that scores row by row never asks one.
    script = "\n".join([
        "import sys",
        "import cakit.cli",
        "from cakit import CoveringArraySpec, GreedyConfig, StoreMechanism, build_store, run_greedy",
        "class Proxy:",
        "    def __init__(self, store): self._store = store",
        "    def __getattr__(self, name): return getattr(self._store, name)",
        "for mech in StoreMechanism:",
        "    store = build_store(CoveringArraySpec.uniform(2, 3, 2), mech)",
        "    assert store.coverage_count((0, 0, 0)) == 3",
        "    assert store.mark_covered((0, 1, 0)) == 3",
        "    assert len(list(store.uncovered_elements())) == 9",
        "    run_greedy(Proxy(build_store(CoveringArraySpec.uniform(2, 4, 3), mech)), GreedyConfig())",
        "sys.exit('numpy' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(cakit.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr or "numpy was imported"
