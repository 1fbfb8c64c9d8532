"""The three workloads: one timed pass each, and the checks on its outputs.

A pass makes the workload's program calls, timed with ``perf_counter``
around the calls only, then checks every output.  The checkers are plain
functions of the outputs so that the tests can feed them wrong verdicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs

CENSUS7_GRAPHS = {"not a spin model": 2130938, "union of completes": 69, "pentagon": 12}
CENSUS7_TOURNAMENTS = {"not a spin model": 1038, "3-cycle": 2}
CENSUS7_GUARD_SAMPLES = 21300
ALL_HOLD = "1b=T 2b=T 3a=T 3b=T"
COMMANDS = ("classify", "verify", "dims")


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    census_graphs_seen: int | None = None     # graphs seen by run_census


def _raised(what: str) -> str:
    return f"{what} raised:\n{traceback.format_exc()}"


def _bump(tracer) -> None:
    if tracer is not None:
        tracer.request += 1


def _tally_failures(counts: dict, expected: dict) -> int:
    """Wrong or missing operations implied by per-verdict tallies.

    A wrong verdict moves one unit between two tallies (distance 2, no
    change in the total); a missing one lowers one tally (distance 1,
    total down by 1).
    """
    distance = sum(abs(counts.get(k, 0) - expected.get(k, 0))
                   for k in set(counts) | set(expected))
    shortfall = abs(sum(counts.values()) - sum(expected.values()))
    return (distance + shortfall) // 2


# ---------------------------------------------------------------------------
# census7
# ---------------------------------------------------------------------------

def check_census7(graphs, tournaments) -> tuple[int, list[str]]:
    """(failed operations, problems) for the two CensusResults of a pass."""
    problems = []
    failed = _tally_failures(graphs.counts, CENSUS7_GRAPHS)
    failed += _tally_failures(tournaments.counts, CENSUS7_TOURNAMENTS)
    if graphs.graphs_seen != sum(CENSUS7_GRAPHS.values()):
        problems.append(f"census saw {graphs.graphs_seen} graphs")
    if graphs.counts != CENSUS7_GRAPHS:
        problems.append(f"graph verdict tallies {graphs.counts}")
    if graphs.guarded != CENSUS7_GUARD_SAMPLES:
        problems.append(f"{graphs.guarded} guard samples")
    if tournaments.graphs_seen != sum(CENSUS7_TOURNAMENTS.values()):
        problems.append(f"census saw {tournaments.graphs_seen} tournaments")
    if tournaments.counts != CENSUS7_TOURNAMENTS:
        problems.append(f"tournament verdict tallies {tournaments.counts}")
    cycles = [h for h in tournaments.hits
              if h.n == 3 and h.verdict.case.value == "3-cycle" and h.report.is_spin_model]
    if len(tournaments.hits) != 2 or len(cycles) != 2:
        problems.append(f"tournament hits {[(h.n, h.verdict.case.value) for h in tournaments.hits]}")
        failed += abs(len(tournaments.hits) - len(cycles)) + abs(2 - len(cycles))
    for result in (graphs, tournaments):
        if result.disagreement is not None:
            problems.append(f"disagreement {result.disagreement}")
            failed += 1
    if problems:
        failed = max(failed, 1)
    return failed, problems


class Census7:
    """run_census on every labeled graph with n <= 7, then the tournament census."""

    name = "census7"
    guard_samples = CENSUS7_GUARD_SAMPLES

    def __init__(self, spinweb, root: Path, seed: int, out_dir: Path):
        self.census = spinweb.census
        self.input_files: list[Path] = []
        self.digest = hashlib.sha256(
            b"run_census(max_n=7, mode=assert_equivalence); "
            b"run_tournament_census(ns=(3, 5, 7))").hexdigest()
        self.operations = sum(CENSUS7_GRAPHS.values()) + sum(CENSUS7_TOURNAMENTS.values())

    def run_pass(self, workers: int = 2, tracer=None) -> PassResult:
        census = self.census
        config = census.CensusConfig(max_n=7, mode="assert_equivalence", workers=workers)
        try:
            _bump(tracer)
            start = perf_counter()
            graphs = census.run_census(config)
            middle = perf_counter()
            _bump(tracer)
            tournaments = census.run_tournament_census(ns=(3, 5, 7))
            end = perf_counter()
        except Exception:  # the program failed; count the whole pass
            return PassResult(0.0, self.operations, self.operations, [_raised("census")])
        failed, problems = check_census7(graphs, tournaments)
        return PassResult(end - start, self.operations, failed, problems,
                          {"census_s": middle - start, "tournaments_s": end - middle},
                          census_graphs_seen=graphs.graphs_seen)


# ---------------------------------------------------------------------------
# stream_mix
# ---------------------------------------------------------------------------

_LINE_ERROR = re.compile(r"^line (\d+): \S")


def check_stream(lines: list[inputs.StreamLine], status: int, out: str,
                 err: str) -> tuple[int, list[str]]:
    """(failed lines, problems) for one `census --input` run over `lines`."""
    problems = []
    bad: set[int] = set()
    printed = out.splitlines()
    summary = printed.pop() if printed else ""
    hits: dict[str, list[list[str]]] = {}
    for text in printed:
        columns = text.split("\t")
        if len(columns) != 5:
            problems.append(f"unexpected output line {text!r}")
            continue
        hits.setdefault(columns[0], []).append(columns[1:])

    wellformed = 0
    for number, line in enumerate(lines, start=1):
        if line.expect is None:
            continue
        wellformed += 1
        found = hits.get(line.text.decode("ascii"))
        got = found.pop(0) if found else None
        if line.expect == ():
            if got is not None:
                bad.add(number)
                problems.append(f"line {number} ({line.kind}) listed as a spin model: {got}")
            continue
        case, family, dims = line.expect
        if (got is None or got[0] != case or got[3] != ALL_HOLD
                or (family is not None and got[1] != family)
                or (dims is not None and got[2] != f"dim={dims}")):
            bad.add(number)
            problems.append(f"line {number} ({line.kind}) expected {line.expect}, got {got}")
    extra = [g6 for g6, rest in hits.items() for _ in rest]
    if extra:
        problems.append(f"listed graphs not in the stream: {extra}")

    expected_errors = {number for number, line in enumerate(lines, start=1)
                       if line.expect is None}
    reported = set()
    for text in err.splitlines():
        match = _LINE_ERROR.match(text)
        if match is None:
            problems.append(f"unexpected stderr line {text!r}")
        else:
            reported.add(int(match.group(1)))
    for number in expected_errors ^ reported:
        bad.add(number)
        problems.append(f"malformed-line report mismatch at line {number}")

    if status != 0 or summary != f"OK, {wellformed} graphs, 0 disagreements":
        problems.append(f"exit status {status}, summary {summary!r}")
    failed = len(bad) + len(extra)
    if problems:
        failed = max(failed, 1)
    return failed, problems


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


class StreamMix:
    """`spinweb census --input FILE --mode list_spin_models` on a seeded stream."""

    name = "stream_mix"

    def __init__(self, spinweb, root: Path, seed: int, out_dir: Path):
        self.cli = spinweb.cli
        self.seed = seed
        self.passes = 0
        self.path = out_dir / f"stream_mix-seed{seed}.g6"
        self.input_files = [self.path]
        self._hash = hashlib.sha256()
        self._write_next()

    def _write_next(self) -> None:
        """Write the stream of the next pass, outside the timed calls."""
        self.lines = inputs.stream_lines(self.seed, self.passes)
        data = inputs.stream_bytes(self.lines)
        self.path.write_bytes(data)
        self._hash.update(data)
        self.digest = self._hash.hexdigest()

    def run_pass(self, workers: int = 1, tracer=None) -> PassResult:
        argv = ["census", "--input", str(self.path), "--mode", "list_spin_models"]
        lines = self.lines
        attempted = len(lines)
        try:
            _bump(tracer)
            start = perf_counter()
            status, out, err = _run_cli(self.cli, argv)
            seconds = perf_counter() - start
        except Exception:
            return PassResult(0.0, attempted, attempted, [_raised("census --input")])
        finally:
            self.passes += 1
            self._write_next()
        failed, problems = check_stream(lines, status, out, err)
        return PassResult(seconds, attempted, failed, problems)


# ---------------------------------------------------------------------------
# large_srg
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    return json.loads(Path(__file__).with_name("large_srg_expected.json").read_text())


def check_command(expected: dict, command: str, status: int, out: str) -> list[str]:
    """Problems with one command's output against the pinned invariants.

    The pinned values come from the unrelabeled fixtures, so matching them
    on every seeded relabeling is the relabeling-invariance check; witness
    sites are labeling-dependent and only their presence is compared.
    """
    problems = []
    if status != expected["exit"][command]:
        problems.append(f"{command} exit status {status}, expected {expected['exit'][command]}")
    try:
        if command == "dims":
            got = int(out)
            want = expected["dims"]
        else:
            got = json.loads(out)
            got.pop("input")
            if command == "verify":
                witnesses = got.pop("witnesses")
                got["witnessed"] = sorted(k for k, v in witnesses.items() if v is not None)
            want = expected[command]
    except (ValueError, KeyError, AttributeError) as exc:
        return problems + [f"{command} output unreadable ({exc}): {out[:200]!r}"]
    if got != want:
        problems.append(f"{command} output {got} differs from {want}")
    return problems


class LargeSrg:
    """classify --json, verify --json and dims on relabelings of the three fixtures."""

    name = "large_srg"

    def __init__(self, spinweb, root: Path, seed: int, out_dir: Path):
        self.cli = spinweb.cli
        self.expected = load_expected()
        self.relabelings = inputs.fixture_relabelings(
            inputs.load_fixtures(root), seed)
        self.next_inputs = next(self.relabelings)
        first = b"".join(self.next_inputs[name] + b"\n" for name in inputs.FIXTURES)
        path = out_dir / f"large_srg-seed{seed}.g6"
        path.write_bytes(first)
        self.input_files = [path]
        self._hash = hashlib.sha256()
        self.digest = None

    def run_pass(self, workers: int = 1, tracer=None) -> PassResult:
        graphs, self.next_inputs = self.next_inputs, next(self.relabelings)
        for name in inputs.FIXTURES:
            self._hash.update(graphs[name] + b"\n")
        self.digest = self._hash.hexdigest()
        times = dict.fromkeys(COMMANDS, 0.0)
        attempted = failed = 0
        problems = []
        for name in inputs.FIXTURES:
            text = graphs[name].decode("ascii")
            for command in COMMANDS:
                argv = [command, "--graph6", text] + (["--json"] if command != "dims" else [])
                attempted += 1
                try:
                    _bump(tracer)
                    start = perf_counter()
                    status, out, _ = _run_cli(self.cli, argv)
                    times[command] += perf_counter() - start
                except Exception:
                    failed += 1
                    problems.append(_raised(f"{name} {command}"))
                    continue
                found = check_command(self.expected[name], command, status, out)
                if found:
                    failed += 1
                    problems.extend(f"{name}: {p}" for p in found)
        return PassResult(sum(times.values()), attempted, failed, problems,
                          {f"{c}_s": t for c, t in times.items()})


WORKLOADS = {w.name: w for w in (Census7, StreamMix, LargeSrg)}
