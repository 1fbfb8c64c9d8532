import argparse
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb import cli
from spinweb.census import CensusResult
from spinweb.cli import main
from spinweb.graph6 import Graph6Error, parse_graph6, write_graph6
from spinweb.graphs import clebsch, cycle
from tests.conftest import FIXTURE_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_pentagon(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "cycle:5")
        assert code == 0
        assert out.strip() == "spin model: pentagon case; family Kauffman; dim V3 = 13"

    def test_union(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "union_complete:2,3")
        assert code == 0
        assert "union of completes" in out and "Bisch-Jones" in out
        assert "dim V3 = 11" in out

    def test_petersen(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "petersen")
        assert code == 1
        assert out.startswith("not a spin model: ")
        assert "not 3-point regular" in out

    def test_exact_dim(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "paley:9", "--exact-dim")
        assert code == 0 and "dim V3 = 15" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "cycle:5", "--json")
        record = json.loads(out)
        assert record["is_spin_model"] and record["case"] == "pentagon"
        assert record["family"]["dims"] == [13]

    def test_graph6_input(self, capsys):
        g6 = write_graph6(cycle(5)).decode()
        code, out, _ = run(capsys, "classify", "--graph6", g6)
        assert code == 0 and "pentagon" in out

    def test_stdin_dash(self, capsys, monkeypatch):
        data = write_graph6(cycle(5)) + b"\n" + write_graph6(clebsch()) + b"\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, _ = run(capsys, "classify", "--graph6", "-", "--json")
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(lines) == 2
        assert all(line["is_spin_model"] for line in lines)

    @pytest.mark.parametrize("command", ["classify", "verify", "dims"])
    def test_stdin_malformed_line_reported_and_skipped(self, capsys, monkeypatch,
                                                        command):
        data = b"DqK\nnot graph6!!\nDJG\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, command, "--graph6", "-", "--json")
        assert code == 2
        assert [json.loads(line)["input"] for line in out.splitlines()] == ["DqK", "DJG"]
        assert err.splitlines() == ["line 2: byte 32 outside graph6 range 63..126"]

    @pytest.mark.parametrize("argv", [["dims"], ["classify", "--exact-dim"]])
    def test_stdin_edgeless_line_reported_and_skipped(self, capsys, monkeypatch, argv):
        # dim V3 of the edgeless graph on line 3 is undefined: that line is
        # reported like the malformed line 2, and DJG on line 4 still runs
        data = b"DqK\nnot graph6!!\n@\nDJG\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, *argv, "--graph6", "-", "--json")
        assert code == 2
        assert [(line["input"], line["dim_v3"]) for line in map(json.loads, out.splitlines())] == \
            ([("DqK", 13), ("DJG", 22)] if argv == ["dims"] else [("DqK", 13), ("DJG", None)])
        assert err.splitlines() == [
            "line 2: byte 32 outside graph6 range 63..126",
            "line 3: edgeless input: C_P = 0 and the rank is not dim V3"]

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--graph6", "A_trailing")
        assert code == 2 and "error:" in err

    def test_requires_one_input(self, capsys):
        code, _, err = run(capsys, "classify", "--graph6", "A_", "--gen", "cycle:5")
        assert code == 2

    def test_tournament(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen",
                           "circulant_tournament:3,1", "--tournament")
        assert code == 0 and "Bisch-Jones" in out and "dim V3 = 9" in out


class TestVerify:
    def test_paley9(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen", "paley:9")
        assert code == 0
        assert "1b: holds (k=4)" in out
        assert "2b: holds (k=4, lambda=1, mu=2)" in out
        assert "3a: holds" in out and "3b: holds" in out

    def test_schlafli_fixture(self, capsys, fixture_env):
        code, out, _ = run(capsys, "verify", "--gen", "schlafli")
        assert code == 1
        assert "3b: FAILS" in out and "3a: holds" in out

    def test_regular_tournament_fails_3b(self, capsys):
        code, out, _ = run(capsys, "verify", "--gen",
                           "circulant_tournament:5,1,2", "--tournament")
        assert code == 1 and "3b: FAILS" in out


GOLDEN = Path(__file__).resolve().parent / "data" / "verify_golden.jsonl"
GOLDEN_INPUTS = (
    *(("--gen", spec) for spec in (
        "cycle:5", "cycle:6", "petersen", "paley:9", "paley:13", "clebsch",
        "complete:4", "union_complete:3,2", "schlafli", "higman_sims")),
    ("--gen", "circulant_tournament:5,1,2", "--tournament"),
    ("--gen", "circulant_tournament:7,1,2,4", "--tournament"),
    ("--graph6", "DJG"),     # irregular, witnesses on all four relations
    ("--graph6", "FUmOo"),   # irregular, negative fitted value in the 3b witness
    ("--gen", "mclaughlin"),
)


class TestVerifyGolden:
    """verify --json output (verdicts, coefficients, witnesses) pinned verbatim."""

    @pytest.mark.parametrize("index", range(len(GOLDEN_INPUTS)))
    def test_matches_golden_line(self, capsys, fixture_env, index):
        expected = GOLDEN.read_text().splitlines()[index]
        _, out, _ = run(capsys, "verify", "--json", *GOLDEN_INPUTS[index])
        assert out.splitlines() == [expected]


CLASSIFY_GOLDEN = GOLDEN.with_name("classify_golden.jsonl")


class TestClassifyGolden:
    """classify --json output (case, reason, q-value) pinned verbatim."""

    @pytest.mark.parametrize("index", range(len(GOLDEN_INPUTS)))
    def test_matches_golden_line(self, capsys, fixture_env, index):
        expected = CLASSIFY_GOLDEN.read_text().splitlines()[index]
        _, out, _ = run(capsys, "classify", "--json", *GOLDEN_INPUTS[index])
        assert out.splitlines() == [expected]


class TestDimsGenerate:
    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--gen", "union_complete:3,3")
        assert code == 0 and out.strip() == "12"

    def test_dims_edgeless_errors(self, capsys):
        code, _, err = run(capsys, "dims", "--gen", "union_complete:4,1")
        assert code == 2 and "edgeless" in err

    def test_generate_roundtrip(self, capsys):
        code, out, _ = run(capsys, "generate", "--gen", "clebsch")
        assert code == 0
        assert out.encode().strip() == write_graph6(clebsch())

    def test_generate_rejects_tournaments(self, capsys):
        code, _, err = run(capsys, "generate", "--gen", "circulant_tournament:3,1")
        assert code == 2

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "generate", "--gen", "dodecahedron")
        assert code == 2 and "unknown generator" in err


# a spin model (C5), a non-spin model (the star K_1,3), a blank line, an
# edgeless graph (K_1) and a malformed line; stream_golden.txt holds, under
# "== FORM", the stdout of each command form on it
PINNED_STREAM = b"DqK\nCF\n\n@\nnot graph6!!\n"
STREAM_GOLDEN = GOLDEN.with_name("stream_golden.txt")
EDGELESS_LINE_4 = "line 4: edgeless input: C_P = 0 and the rank is not dim V3"
MALFORMED_LINE_5 = "line 5: byte 32 outside graph6 range 63..126"


def stream_golden() -> dict[str, str]:
    sections = re.split(r"^== ", STREAM_GOLDEN.read_text(), flags=re.M)[1:]
    return dict(section.split("\n", 1) for section in sections)


class TestStreamPolicy:
    """classify, verify and dims answer every good stdin line, report every bad
    one as `line N:` in line order, and then exit 2."""

    @pytest.mark.parametrize("form", list(stream_golden()))
    def test_bad_lines_are_reported_and_exit_2(self, capsys, monkeypatch, form):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(PINNED_STREAM)))
        code, out, err = run(capsys, *form.split(), "--graph6", "-")
        assert code == 2
        assert out == stream_golden()[form]
        needs_dim = form.startswith("dims") or "--exact-dim" in form
        assert err.splitlines() == ([EDGELESS_LINE_4] if needs_dim else []) + [MALFORMED_LINE_5]

    @pytest.mark.parametrize("form", list(stream_golden()))
    def test_good_lines_alone_exit_0_or_1(self, capsys, monkeypatch, form):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"DqK\nCF\n\n")))
        code, out, err = run(capsys, *form.split(), "--graph6", "-")
        assert code == (0 if form.startswith("dims") else 1) and err == ""
        answers = stream_golden()[form].splitlines(keepends=True)
        assert out == "".join(answers[:12 if form == "verify" else 2])    # DqK's and CF's

    @pytest.mark.parametrize("argv", [["dims"], ["dims", "--json"], ["classify", "--exact-dim"],
                                      ["classify", "--exact-dim", "--json"]])
    def test_single_edgeless_input_is_the_commands_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--gen", "complete:1")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: edgeless input: C_P = 0 and the rank is not dim V3"]


class TestClosedOutput:
    """A reader that closes stdout early is no bad input: nothing on stderr, exit 141."""

    @staticmethod
    def start(argv, stdin: bytes, read_lines: int) -> tuple[list[bytes], str, int]:
        """Run ``python -m spinweb.cli argv`` on stdin, its stdout block-buffered;
        close its stdout after ``read_lines`` lines; return those lines, its
        stderr and its exit code."""
        src = Path(cli.__file__).resolve().parent.parent
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(src)
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as out:
            if read_lines == 0:
                out.close()
            proc = subprocess.Popen([sys.executable, "-m", "spinweb.cli", *argv],
                                    stdin=subprocess.PIPE, stdout=write_end,
                                    stderr=subprocess.PIPE, env=env)
            os.close(write_end)
            proc.stdin.write(stdin)
            proc.stdin.close()
            lines = [out.readline() for _ in range(read_lines)]
        err = proc.stderr.read().decode()
        proc.stderr.close()
        return lines, err, proc.wait(timeout=60)

    @pytest.mark.parametrize("command, first", [
        ("classify", b"spin model: pentagon case; family Kauffman; dim V3 = 13\n"),
        ("verify", b"DqK:\n")], ids=["classify", "verify"])
    def test_closed_after_the_first_line(self, command, first):
        # some 300 KB of answers, far more than a pipe and stdout's buffer hold
        lines, err, code = self.start([command, "--graph6", "-"], b"DqK\n" * 6000, 1)
        assert (lines, err, code) == ([first], "", 141)

    def test_closed_before_the_only_answer(self):
        # the answer waits in stdout's buffer until the command ends
        lines, err, code = self.start(["dims", "--graph6", "-"], b"DqK\n", 0)
        assert (lines, err, code) == ([], "", 141)


# Runs each command in one fresh interpreter, in order, and prints per command
# its exit code, its output and whether any numpy submodule was loaded after it;
# numpy is imported before spinweb when the second argument is "1".
COMMANDS_SCRIPT = textwrap.dedent("""
    import io, json, sys
    from contextlib import redirect_stderr, redirect_stdout
    sys.path.insert(0, sys.argv[1])
    if sys.argv[2] == "1":
        import numpy
    import spinweb, spinweb.cli
    runs = []
    for argv in json.loads(sys.argv[3]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = spinweb.cli.main(argv)
            except SystemExit as stop:
                code = stop.code
        runs.append([code, out.getvalue(), err.getvalue(),
                     any(name.startswith("numpy.") for name in sys.modules)])
    import numpy
    print(json.dumps({"runs": runs, "same": spinweb.graphs.np is sys.modules["numpy"] is numpy}))
""")


class TestStartUp:
    """numpy loads at the first numpy kernel a command runs, never at import."""

    def test_commands_without_a_kernel_load_no_numpy(self):
        commands = [
            ["classify", "--graph6", "I?LRCecq?"],      # Petersen, n <= 24: the Python loop
            ["classify", "--gen", "complete:2"],
            ["generate", "--gen", "paley:13"],
            ["classify", "--graph6", "!!!"],            # refused, exit 2
            ["verify", "--graph6", "I?LRCecq?", "--json"],
        ]
        src = Path(cli.__file__).resolve().parent.parent
        lazy, eager = (json.loads(subprocess.run(
            [sys.executable, "-I", "-c", COMMANDS_SCRIPT, str(src), numpy_first,
             json.dumps(commands)],
            capture_output=True, text=True, timeout=60, check=True).stdout)
            for numpy_first in ("0", "1"))
        assert [run[3] for run in lazy["runs"]] == [False, False, False, False, True]
        assert lazy["same"] and eager["same"]
        assert [run[:3] for run in lazy["runs"]] == [run[:3] for run in eager["runs"]]
        assert [run[0] for run in lazy["runs"]] == [1, 0, 0, 2, 1]

    def test_missing_numpy_fails_the_import(self):
        # -S leaves site-packages, and with it numpy, off sys.path
        src = Path(cli.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-I", "-S", "-c",
             "import sys; sys.path.insert(0, sys.argv[1])\n"
             "try:\n    import spinweb\n"
             "except ModuleNotFoundError as e:\n    print(e.name)",
             str(src)],
            capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == "numpy\n"


class TestCensusCommand:
    def test_assert_equivalence_small(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "5")
        assert code == 0
        assert out.strip().splitlines()[-1] == "OK, 1099 graphs, 0 disagreements"

    def test_list_spin_models(self, capsys):
        code, out, _ = run(capsys, "census", "--max-n", "4",
                           "--mode", "list_spin_models")
        lines = out.strip().splitlines()
        assert code == 0 and any("union of completes" in line for line in lines)

    def test_stream_input(self, capsys, tmp_path):
        stream = tmp_path / "in.g6"
        stream.write_bytes(write_graph6(cycle(5)) + b"\n")
        code, out, _ = run(capsys, "census", "--input", str(stream),
                           "--mode", "list_spin_models")
        assert code == 0 and "pentagon" in out

    def test_tournament_census(self, capsys):
        code, out, _ = run(capsys, "census", "--tournament", "--ns", "3,5")
        assert code == 0
        assert "OK, 1032 graphs, 0 disagreements" in out

    def test_missing_input_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "absent.g6"
        code, out, err = run(capsys, "census", "--input", str(missing))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert str(missing) in err

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_1_exits_2(self, capsys, workers):
        code, out, err = run(capsys, "census", "--max-n", "4", "--workers", workers)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert "workers" in err

    @pytest.mark.parametrize("workers", ["0", "-5"])
    @pytest.mark.parametrize("source", ["tournament", "input"])
    def test_workers_below_1_exits_2_on_every_path(self, capsys, tmp_path, source, workers):
        if source == "tournament":
            argv = ["--tournament", "--ns", "3"]
        else:
            stream = tmp_path / "in.g6"
            stream.write_bytes(write_graph6(cycle(5)) + b"\n")
            argv = ["--input", str(stream)]
        code, out, err = run(capsys, "census", *argv, "--workers", workers)
        assert code == 2 and out == ""
        assert err == f"error: workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("n", ["6", "8"])
    def test_even_tournament_size_above_exhaustive_limit_exits_2(self, capsys, n):
        code, out, err = run(capsys, "census", "--tournament", "--ns", n)
        assert code == 2 and out == ""
        assert err == f"error: circulant tournament needs odd n, got {n}\n"

    def test_even_tournament_size_exits_2_before_any_size_runs(self, capsys, monkeypatch):
        monkeypatch.setattr("spinweb.census._tournament_task", None)    # running a task fails
        code, out, err = run(capsys, "census", "--tournament", "--ns", "31,6")
        assert code == 2 and out == ""
        assert err == "error: circulant tournament needs odd n, got 6\n"

    @pytest.mark.parametrize("sizes, entry", [("0", "0"), ("-1", "-1"), ("3,x", "x"), ("", "")])
    def test_bad_tournament_size_exits_2(self, capsys, sizes, entry):
        code, out, err = run(capsys, "census", "--tournament", "--ns", sizes)
        assert code == 2 and out == ""
        assert err == f"error: --ns entries must be integers >= 1, got {entry!r}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--max-n", "0"], "built-in enumeration supports 1 <= max_n <= 8, got 0"),
        (["--max-n", "9"], "built-in enumeration supports 1 <= max_n <= 8, got 9"),
        (["--tournament", "--ns", "33"], "tournament census needs n <= 31, got 33"),
        (["--tournament", "--ns", "3,61"], "tournament census needs n <= 31, got 61"),
        (["--max-n", "4", "--workers", "65"], "workers must be <= 64, got 65"),
        (["--max-n", "4", "--workers", "1000000"], "workers must be <= 64, got 1000000"),
    ])
    def test_census_size_out_of_range_exits_2(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a census past its bounds started a pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
        code, out, err = run(capsys, "census", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--tournament", "--input", "/nonexistent"],
                     "--input reads graph6 graphs; it cannot be combined with --tournament",
                     id="tournament-input"),
        pytest.param(["--ns", "3"], "--ns sets tournament sizes; it needs --tournament",
                     id="ns-without-tournament"),
        pytest.param(["--tournament", "--mode", "list_3pt_regular"],
                     "--mode list_3pt_regular lists graphs; "
                     "it cannot be combined with --tournament",
                     id="tournament-list-3pt-regular"),
        pytest.param(["--tournament", "--ns", "3", "--max-n", "2", "--workers", "2"],
                     "--max-n sets the size of the built-in census; "
                     "it cannot be combined with --tournament",
                     id="tournament-max-n"),
        pytest.param(["--tournament", "--ns", "3", "--workers", "2"],
                     "--workers sets the processes of the built-in census; "
                     "it cannot be combined with --tournament",
                     id="tournament-workers"),
        pytest.param(["--input", "/nonexistent", "--max-n", "2", "--workers", "2"],
                     "--max-n sets the size of the built-in census; "
                     "it cannot be combined with --input",
                     id="input-max-n"),
        pytest.param(["--input", "-", "--workers", "1"],
                     "--workers sets the processes of the built-in census; "
                     "it cannot be combined with --input",
                     id="input-workers"),
    ])
    def test_flag_the_census_would_ignore_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "census", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_built_in_census_defaults(self, capsys, monkeypatch):
        seen = []

        def record(cfg):
            seen.append((cfg.max_n, cfg.workers))
            return CensusResult(graphs_seen=1)

        monkeypatch.setattr("spinweb.cli.census_mod.run_census", record)
        assert run(capsys, "census")[0] == 0
        assert run(capsys, "census", "--max-n", "3", "--workers", "2")[0] == 0
        assert seen == [(7, 1), (3, 2)]

    _NEEDS_TOURNAMENT = "--ns sets tournament sizes; it needs --tournament"
    _MAX_N = "--max-n sets the size of the built-in census; it cannot be combined with "
    _WORKERS = "--workers sets the processes of the built-in census; it cannot be combined with "

    @pytest.mark.parametrize("argv, message", [
        # every source, with each source-specific flag or mode it does not take
        pytest.param(["--ns", "3"], _NEEDS_TOURNAMENT, id="built-in-ns"),
        pytest.param(["--input", "F", "--max-n", "2"], _MAX_N + "--input", id="input-max-n"),
        pytest.param(["--input", "F", "--workers", "2"], _WORKERS + "--input", id="input-workers"),
        pytest.param(["--input", "F", "--ns", "3"], _NEEDS_TOURNAMENT, id="input-ns"),
        pytest.param(["--tournament", "--input", "F"],
                     "--input reads graph6 graphs; it cannot be combined with --tournament",
                     id="tournament-input"),
        pytest.param(["--tournament", "--max-n", "2"], _MAX_N + "--tournament",
                     id="tournament-max-n"),
        pytest.param(["--tournament", "--workers", "2"], _WORKERS + "--tournament",
                     id="tournament-workers"),
        pytest.param(["--tournament", "--mode", "list_3pt_regular"],
                     "--mode list_3pt_regular lists graphs; "
                     "it cannot be combined with --tournament",
                     id="tournament-list-3pt-regular"),
        # several conflicts: the first flag in the order of the flag table is refused
        pytest.param(["--tournament", "--input", "F", "--max-n", "2"],
                     "--input reads graph6 graphs; it cannot be combined with --tournament",
                     id="tournament-input-max-n"),
        pytest.param(["--input", "F", "--ns", "3", "--max-n", "2"], _MAX_N + "--input",
                     id="input-ns-max-n"),
        pytest.param(["--tournament", "--ns", "3", "--mode", "list_3pt_regular",
                      "--workers", "2"], _WORKERS + "--tournament",
                     id="tournament-list-3pt-regular-workers"),
        pytest.param(["--max-n", "3", "--ns", ""], _NEEDS_TOURNAMENT, id="built-in-empty-ns"),
        pytest.param(["--tournament", "--max-n", "0"], _MAX_N + "--tournament",
                     id="tournament-max-n-0"),
    ])
    def test_every_refused_combination_exits_2_before_any_census(
            self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused census started")

        for name in ("run_census", "scan_stream", "run_tournament_census"):
            monkeypatch.setattr(f"spinweb.census.{name}", refuse)
        code, out, err = run(capsys, "census", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_every_census_option_is_in_the_flag_table(self):
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {option for action in subparsers.choices["census"]._actions
                   for option in action.option_strings if option.startswith("--")}
        sources = set(cli._CENSUS_SOURCES) - {None}
        assert sources <= options
        assert options - {"--mode", "--help"} - sources <= set(cli._CENSUS_FLAGS)
        taken = {flag for flags, _ in cli._CENSUS_SOURCES.values() for flag in flags}
        assert taken == set(cli._CENSUS_FLAGS)
        assert {flag.split()[0] for flag in cli._CENSUS_FLAGS} <= options

    def test_tournament_census_defaults(self, capsys, monkeypatch):
        seen = []

        def record(**kwargs):
            seen.append(kwargs)
            return CensusResult(graphs_seen=1)

        monkeypatch.setattr("spinweb.census.run_tournament_census", record)
        assert run(capsys, "census", "--tournament")[0] == 0
        assert run(capsys, "census", "--tournament", "--ns", "3,7")[0] == 0
        assert seen == [{"mode": "assert_equivalence"},
                        {"mode": "assert_equivalence", "ns": (3, 7)}]

    def test_tournament_counterexample_exits_1(self, capsys, monkeypatch):
        from spinweb.classifier import Verdict, VerdictCase
        always = Verdict(True, VerdictCase.THREE_CYCLE, None, None, "patched")
        monkeypatch.setattr("spinweb.census.classify_tournament", lambda t: always)
        code, out, err = run(capsys, "census", "--tournament", "--ns", "3")
        assert code == 1 and out == ""
        assert err == ("COUNTEREXAMPLE: classifier/oracle disagreement on 'n=3#0' "
                       "(n=3, index=0): classifier=True, oracle=False\n")
        code, out, _ = run(capsys, "census", "--tournament", "--ns", "3",
                           "--mode", "list_spin_models")
        # the list-mode census stops at the first disagreement, tournament 0
        assert code == 1 and out.splitlines()[-1] == "FAIL, 1 graphs, 1 disagreements"

    def test_counterexample_exit_code(self, capsys, monkeypatch):
        from spinweb.census import CounterexampleFound, Disagreement

        def explode(cfg):
            raise CounterexampleFound(Disagreement(4, 7, "C~", True, False))

        monkeypatch.setattr("spinweb.cli.census_mod.run_census", explode)
        code, _, err = run(capsys, "census", "--max-n", "4")
        assert code == 1 and "COUNTEREXAMPLE" in err


# a stream whose second line declares 512 vertices, one above the largest order
OVERSIZED_STREAM = b"DqK\n~?G?" + b"?" * ((512 * 511 // 2 + 5) // 6) + b"\nDJG\n"
OVERSIZED_LINE = ("line 2: size field declares an order above the largest "
                  "supported order 511")


class TestOrderLimit:
    """Every order above 511 exits 2 with one line, and no stream stops for it."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--gen", "cycle:200000"],
        ["classify", "--gen", "union_complete:1000,1000"],
        ["classify", "--gen", "complete:20000"],
        ["classify", "--gen", "paley:1000000000000000009"],
        ["verify", "--gen", "circulant_tournament:513,1", "--tournament"],
        ["classify", "--graph6", "~ot?"],              # a header declaring 200 000 vertices
    ])
    def test_oversized_input_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "above the largest supported order 511" in err

    def test_census_stream_skips_the_oversized_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(OVERSIZED_STREAM)))
        code, out, err = run(capsys, "census", "--input", "-")
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == \
            ["DqK", "DJG", "OK, 2 graphs, 0 disagreements"]
        assert err.splitlines() == [OVERSIZED_LINE]

    def test_classify_stream_reports_the_oversized_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(OVERSIZED_STREAM)))
        code, out, err = run(capsys, "classify", "--graph6", "-", "--json")
        assert code == 2
        assert [json.loads(line)["input"] for line in out.splitlines()] == ["DqK", "DJG"]
        assert err.splitlines() == [OVERSIZED_LINE]


# generator names with the number of arguments each takes (the tournament's
# n and two outset entries); an argument is an order 1..12, a bad order or no integer
FUZZ_ARITY = {"cycle": 1, "complete": 1, "union_complete": 2, "paley": 1, "petersen": 0,
              "clebsch": 0, "circulant_tournament": 3, "schlafli": 0, "dodecahedron": 0}
FUZZ_BAD_ARGS = ("0", "-1", "512", str(10 ** 6), str(10 ** 18 + 9), "x", "1.5", "")
FUZZ_VALID_SPECS = ("circulant_tournament:5,1,2", "circulant_tournament:7,1,2,4", "paley:9")
FUZZ_VALID_LINES = (b"DqK", b"DJG", b"@", b"A_", b"", write_graph6(clebsch()))
FUZZ_SIZE_FIELDS = (b"~?G?", b"~ot?", b"~~~~", b"~?F~")    # 512, 200 000, 8-byte, 511
FUZZ_FLAGS = {"classify": ("--json", "--tournament", "--exact-dim"),
              "verify": ("--json", "--tournament"), "dims": ("--json", "--tournament"),
              "generate": ()}


def fuzz_spec(rng) -> str:
    """A generator spec name[:a,b,...], mostly with the right number of arguments."""
    if rng.random() < 0.15:
        return rng.choice(FUZZ_VALID_SPECS)
    name = rng.choice(list(FUZZ_ARITY))
    arity = FUZZ_ARITY[name] if rng.random() < 0.7 else rng.randrange(3)
    args = [str(rng.randint(1, 12)) if rng.random() < 0.6 else rng.choice(FUZZ_BAD_ARGS)
            for _ in range(arity)]
    return f"{name}:{','.join(args)}" if args else name


def fuzz_line(rng) -> bytes:
    """A valid graph6 line, random bytes, random graph6 bytes or a size-field edge case."""
    kind = rng.random()
    if kind < 0.5:
        return rng.choice(FUZZ_VALID_LINES)
    if kind < 0.7:
        return rng.randbytes(rng.randrange(11))
    if kind < 0.9:
        return bytes(rng.randrange(63, 127) for _ in range(rng.randrange(13)))
    return rng.choice(FUZZ_SIZE_FIELDS)


def fuzz_call(rng) -> tuple[list[str], bytes]:
    """(argv, stdin bytes) of a random call of classify, verify, dims or generate.

    The input is --gen, --graph6 - on stdin, both or neither (the last two
    an error), and the flags are any subset of the command's own.
    """
    command = rng.choice(list(FUZZ_FLAGS))
    argv = [command, *(flag for flag in FUZZ_FLAGS[command] if rng.random() < 0.3)]
    source = "gen" if command == "generate" else rng.choice(("gen", "stdin") * 4 + ("both", ""))
    if source in ("gen", "both"):
        argv += ["--gen", fuzz_spec(rng)]
    if source in ("stdin", "both"):
        argv += ["--graph6", "-"]
    return argv, b"\n".join(fuzz_line(rng) for _ in range(rng.randrange(5)))


def stream_errors(argv: list[str], stdin: bytes) -> list[int]:
    """The numbers of the stdin lines that are neither blank nor valid graph6,
    and, for dims and classify --exact-dim, of the edgeless ones (every
    edgeless graph is a spin model whose dim V3 is undefined)."""
    needs_dim = argv[0] == "dims" or "--exact-dim" in argv
    bad = []
    for lineno, line in enumerate(stdin.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            g = parse_graph6(line.strip())
        except Graph6Error:
            bad.append(lineno)
            continue
        if needs_dim and not any(g.adj):
            bad.append(lineno)
    return bad


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=True))
def test_fuzzed_calls_exit_0_1_or_2_with_one_line_per_error(rng):
    argv, stdin = fuzz_call(rng)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SPINWEB_FIXTURES": str(FIXTURE_DIR)}), \
            mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin))), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:
        assert lines == []
    elif lines[0].startswith("error: "):
        assert len(lines) == 1
    else:                       # a bad stdin line each, the others processed
        assert [int(re.match(r"line (\d+): ", line)[1]) for line in lines] == \
            stream_errors(argv, stdin)
