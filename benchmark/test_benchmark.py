"""Tests of the benchmark itself: input determinism, checkers, metric names.

Run with ``python3 -m pytest benchmark``; none of them runs a workload.
"""

import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import inputs
import reference
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# generator determinism
# ---------------------------------------------------------------------------

def test_stream_is_byte_identical_for_a_seed_and_pass():
    first = inputs.stream_bytes(inputs.stream_lines(5))
    assert first == inputs.stream_bytes(inputs.stream_lines(5, 0))
    assert first != inputs.stream_bytes(inputs.stream_lines(6))
    assert first != inputs.stream_bytes(inputs.stream_lines(5, 1))


def test_stream_does_not_depend_on_hash_randomization():
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "print(hashlib.sha256(inputs.stream_bytes(inputs.stream_lines(3))).hexdigest())")
    digests = set()
    for hashseed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", code, str(HERE)], check=True,
                              capture_output=True, text=True,
                              env={"PYTHONHASHSEED": hashseed})
        digests.add(done.stdout)
    assert len(digests) == 1


def test_fixture_relabelings_are_seeded():
    fixtures = inputs.load_fixtures(HERE.parent)
    a, b = inputs.fixture_relabelings(fixtures, 4), inputs.fixture_relabelings(fixtures, 4)
    first = [next(a), next(a)]
    assert first == [next(b), next(b)]
    assert first[0] != first[1]
    assert next(inputs.fixture_relabelings(fixtures, 5)) != first[0]


def test_stream_composition():
    lines = inputs.stream_lines(0)
    kinds = [line.kind for line in lines]
    assert kinds.count("malformed") == inputs.MALFORMED_LINES
    assert {named.name for named in inputs.NAMED} <= set(kinds)
    assert sum(k.startswith("regular:") for k in kinds) == len(inputs.REGULAR_SHAPES)
    for line in lines:
        if line.expect is None:
            continue
        adj = inputs.decode_graph6(line.text)
        assert inputs.encode_graph6(adj) == line.text
        if line.kind.startswith("irregular:"):
            assert not inputs.is_regular(adj)


@pytest.mark.parametrize("n", [1, 2, 5, 62, 63, 100])
def test_graph6_round_trip(n):
    adj = inputs.from_edges(n, [(i, j) for j in range(n) for i in range(j) if (i * 7 + j) % 3 == 0])
    assert inputs.decode_graph6(inputs.encode_graph6(adj)) == adj


def test_named_graph_parameters():
    degrees = {named.name: {row.bit_count() for row in named.adj} for named in inputs.NAMED}
    assert degrees == {"pentagon": {2}, "paley9": {4}, "paley13": {6}, "paley17": {8},
                       "clebsch": {5}, "petersen": {3}, "3K3": {2}, "2K4": {3}, "K6": {5}}


# ---------------------------------------------------------------------------
# the checkers catch injected wrong verdicts
# ---------------------------------------------------------------------------

def _stream_output(lines):
    """The output a correct `census --input` run prints for `lines`."""
    out = []
    for line in lines:
        if line.expect:
            case, family, dims = line.expect
            out.append(f"{line.text.decode()}\t{case}\t{family or '-'}\tdim={dims or '-'}"
                       f"\t{workloads.ALL_HOLD}")
    graphs = sum(line.expect is not None for line in lines)
    out.append(f"OK, {graphs} graphs, 0 disagreements")
    err = [f"line {number}: bad" for number, line in enumerate(lines, start=1)
           if line.expect is None]
    return "\n".join(out) + "\n", "\n".join(err) + "\n"


def test_stream_checker_accepts_correct_output():
    lines = inputs.stream_lines(2)
    out, err = _stream_output(lines)
    assert workloads.check_stream(lines, 0, out, err) == (0, [])


def test_stream_checker_catches_wrong_verdict():
    lines = inputs.stream_lines(2)
    out, err = _stream_output(lines)
    pentagon = next(line for line in lines if line.kind == "pentagon").text.decode()
    wrong = out.replace(f"{pentagon}\tpentagon", f"{pentagon}\tunion of completes")
    failed, problems = workloads.check_stream(lines, 0, wrong, err)
    assert failed == 1 and problems


def test_stream_checker_catches_non_spin_model_listed():
    lines = inputs.stream_lines(2)
    out, err = _stream_output(lines)
    petersen = next(line for line in lines if line.kind == "petersen").text.decode()
    extra = f"{petersen}\tq-condition holds\tKauffman\tdim=14,15\t{workloads.ALL_HOLD}\n"
    failed, _ = workloads.check_stream(lines, 0, extra + out, err)
    assert failed == 1


def test_stream_checker_catches_oracle_disagreement_and_misplaced_error():
    lines = inputs.stream_lines(2)
    out, err = _stream_output(lines)
    failed, _ = workloads.check_stream(
        lines, 0, out.replace(workloads.ALL_HOLD, "1b=T 2b=T 3a=T 3b=F", 1), err)
    assert failed == 1
    number = next(n for n, line in enumerate(lines, start=1) if line.expect is None)
    moved = err.replace(f"line {number}:", f"line {number + 1}:")
    failed, _ = workloads.check_stream(lines, 0, out, moved)
    assert failed >= 1
    failed, _ = workloads.check_stream(lines, 1, out, err)
    assert failed == 1


def _command_output(expected, command):
    if command == "dims":
        return f"{expected['dims']}\n"
    obj = dict(expected[command], input="g6")
    if command == "verify":
        obj.pop("witnessed")
        obj["witnesses"] = {rel: ({"site": [0, 1, 2]} if rel in expected["verify"]["witnessed"]
                                  else None) for rel in ("1b", "2b", "3a", "3b")}
    return json.dumps(obj) + "\n"


@pytest.mark.parametrize("fixture", inputs.FIXTURES)
@pytest.mark.parametrize("command", workloads.COMMANDS)
def test_command_checker(fixture, command):
    expected = workloads.load_expected()[fixture]
    status = expected["exit"][command]
    out = _command_output(expected, command)
    assert workloads.check_command(expected, command, status, out) == []
    assert workloads.check_command(expected, command, 1 - status, out)
    if command == "dims":
        wrong = f"{expected['dims'] + 1}\n"
    else:
        obj = json.loads(out)
        obj["is_spin_model"] = not obj["is_spin_model"]
        wrong = json.dumps(obj)
    assert workloads.check_command(expected, command, status, wrong)


def test_census_checker_catches_wrong_verdict():
    tournaments = SimpleNamespace(
        graphs_seen=1040, counts=dict(workloads.CENSUS7_TOURNAMENTS), disagreement=None,
        hits=[SimpleNamespace(n=3, verdict=SimpleNamespace(case=SimpleNamespace(value="3-cycle")),
                              report=SimpleNamespace(is_spin_model=True))] * 2)
    graphs = SimpleNamespace(graphs_seen=2131019, counts=dict(workloads.CENSUS7_GRAPHS),
                             guarded=21300, disagreement=None)
    assert workloads.check_census7(graphs, tournaments) == (0, [])
    graphs.counts["pentagon"] -= 1
    graphs.counts["not a spin model"] += 1
    failed, problems = workloads.check_census7(graphs, tournaments)
    assert failed == 1 and problems
    tournaments.hits = tournaments.hits[:1]
    failed, _ = workloads.check_census7(graphs, tournaments)
    assert failed == 2


# ---------------------------------------------------------------------------
# normalisation to the host's speed
# ---------------------------------------------------------------------------

def test_normalised_time_does_not_depend_on_the_host_state_mix():
    def run(states):
        """Passes of 2 s and reference samples of 0.05 s, each slowed by the
        factor of the host state it ran in."""
        passes = [2.0 * f for f in states]
        samples = [0.05 * f for f in states for _ in range(reference.BLOCK_SAMPLES)]
        return reference.normalise(passes, samples)

    expected = reference.NOMINAL_S * 40
    for states in ([1.0] * 9, [1.65] * 9, [1.0] * 3 + [1.65] * 6, [1.65, 1.0] * 5):
        assert run(states) == pytest.approx(expected)


def test_normalised_setup_does_not_depend_on_the_host_state():
    states = [1.0, 1.0, 1.8, 1.8, 1.8, 1.0, 1.0]
    probes = [0.15 * f for f in states[1:]]
    references = [0.05 * f for f in states]
    normalised = reference.normalise_each(probes, references, 0.05)
    assert sorted(normalised)[len(normalised) // 2] == pytest.approx(0.15)


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m[0] for m in end_to_end + per_layer] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
