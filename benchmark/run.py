"""spinweb benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload census7 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``census7``    run_census(max_n=7, assert_equivalence, workers=2), then
                 run_tournament_census(ns=(3, 5, 7));
* ``stream_mix`` ``spinweb census --input FILE --mode list_spin_models`` on a
                 seeded graph6 stream, in-process;
* ``large_srg``  ``classify --json``, ``verify --json`` and ``dims`` on seeded
                 relabelings of the Schlafli and Higman-Sims fixtures,
                 in-process.

With ``--trace 0`` the workload runs a warm-up pass and then pass after pass,
closed loop, until the next pass would end after ``--seconds``, and reports
the mean timed pass normalised to the host speed that ``reference.py``
measures between passes (``wall_norm_s``), the median of eleven
fresh-interpreter set-ups, each normalised by fresh interpreters importing a
fixed set of standard modules just before and after it (``setup_s``), and
the peak resident memory (``peak_rss_mb``).  With ``--trace 1`` it runs two
traced passes around an untraced one (``--seconds`` is not used) and reports
the per-layer metrics of ``tracing.PER_LAYER``.  Every output is checked;
any failure makes the exit status 1.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans and a full record of each run go to ``.bench_out/`` in
the checkout.

Tests of the benchmark itself: ``python3 -m pytest benchmark``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import tracing
from workloads import COMMANDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11

# (name, unit, better); the metrics of a --trace 0 run
END_TO_END = (
    ("wall_norm_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Set-up as a user pays it: a fresh interpreter imports the package and its
# CLI and reads the workload's input files.
_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spinweb, spinweb.cli
for path in sys.argv[2:]:
    with open(path, "rb") as handle:
        handle.read()
print(repr(time.perf_counter() - start))
"""


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path):
    """Import spinweb from the checkout's own ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "spinweb" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        raise ProgramMissing(f"no spinweb sources and fixtures under {root}")
    sys.path.insert(0, str(src))
    spinweb = importlib.import_module("spinweb")
    importlib.import_module("spinweb.cli")       # and through it every other module
    if Path(spinweb.__file__).resolve().parent != src / "spinweb":
        raise ProgramMissing(f"imported spinweb from {spinweb.__file__}, not {src}")
    return spinweb


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(root)}


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_seconds(code: str, *args: str) -> float:
    """The time a fresh interpreter running ``code`` prints."""
    done = subprocess.run([sys.executable, "-I", "-c", code, *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def setup_seconds(files: list[Path]) -> tuple[float, list[float]]:
    """Median set-up probe, each normalised by the import references around
    it, and the raw probe times."""
    setups, references = [], [probe_seconds(reference.IMPORTS_PROBE)]
    for _ in range(SETUP_PROBES):
        setups.append(probe_seconds(_PROBE, str(ROOT / "src"), *map(str, files)))
        references.append(probe_seconds(reference.IMPORTS_PROBE))
    return statistics.median(reference.normalise_each(
        setups, references, reference.IMPORTS_NOMINAL_S)), setups


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def timed_run(workload, seconds: float) -> tuple[dict, list]:
    """A checked warm-up pass, then timed passes until ``seconds`` is spent,
    with a block of reference samples before the first and after each."""
    began = perf_counter()
    gc.collect()
    warm_up = workload.run_pass()
    samples = reference.block()
    passes = []
    while not passes or (perf_counter() - began
                         + statistics.median(p.seconds for p in passes)
                         + reference.BLOCK_SAMPLES * statistics.median(samples)) <= seconds:
        gc.collect()
        passes.append(workload.run_pass())
        samples += reference.block()
    rss = peak_rss_mb()          # read before the set-up probes become children
    setup, setups = setup_seconds(workload.input_files)
    values = {
        "wall_norm_s": reference.normalise([p.seconds for p in passes], samples),
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    detail = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "reference_s": samples,
        "warm_up_s": warm_up.seconds,
        "pass_s": [p.seconds for p in passes],
        "pass_quartiles_s": _quartiles([p.seconds for p in passes]),
        "setup_runs_s": setups,
        "setup_raw_s": statistics.median(setups),
        "parts_median_s": {key: statistics.median(p.parts[key] for p in passes)
                           for key in passes[0].parts},
    }
    return {"values": values, "detail": detail}, [warm_up, *passes]


def traced_run(workload, seed: int) -> tuple[dict, list]:
    """Two traced passes on 1 worker around one untraced 1-worker pass.

    Spans recorded in pool children would be lost, so the traced census
    runs on one worker and its overhead is taken against a 1-worker pass;
    putting the untraced pass between the traced ones cancels a steady
    drift in machine speed out of the overhead.
    """
    tracer = tracing.Tracer()
    measured = []

    def traced_pass():
        gc.collect()
        with tracer:
            outcome = workload.run_pass(workers=1, tracer=tracer)
        measured.append((outcome, tracer.take()))
        return outcome

    passes = [traced_pass()]
    gc.collect()
    baseline = workload.run_pass(workers=1)
    passes.append(baseline)
    scaling = 0.0
    if "census_s" in baseline.parts:
        gc.collect()
        pooled = workload.run_pass(workers=2)
        passes.append(pooled)
        if "census_s" in pooled.parts:
            scaling = baseline.parts["census_s"] / (2 * pooled.parts["census_s"])
    passes.append(traced_pass())
    tracing.write_spans(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz",
                        tracer.sites, [spans for _, spans in measured])

    problems = []
    layers = []
    for outcome, spans in measured:
        metrics, found = tracing.layer_metrics(spans, tracer.sites)
        problems += found
        layers.append(metrics)
        # The funnel checks apply when the census items were traced; a census
        # that no longer calls the traced functions skips them.
        seen = outcome.census_graphs_seen
        checked = metrics["census.regular_checked"] + metrics["census.guard_samples"]
        if seen is not None and checked:
            if ("census", "_regular_mask") in tracer.sites:
                funnel = metrics["census.prefilter_rejects"] + metrics["census.regular_checked"]
                if funnel != seen:
                    problems.append(f"pre-filter rejects + regular graphs checked = {funnel}, "
                                    f"graphs seen = {seen}")
            if metrics["census.guard_samples"] != workload.guard_samples:
                problems.append(f"{metrics['census.guard_samples']} guard samples traced, "
                                f"expected {workload.guard_samples}")
    first, second = layers
    for name, value in first.items():
        if tracing.UNITS[name] != "s" and value != second[name]:
            problems.append(f"{name} differs between traced passes: {value} vs {second[name]}")
    first["census.scaling_eff"] = scaling
    first["trace.overhead_s"] = (statistics.mean(outcome.seconds for outcome, _ in measured)
                                 - baseline.seconds)
    values = {name: (first[name] + second[name]) / 2 if name in second and unit == "s"
              else first[name] for name, unit, _ in tracing.PER_LAYER}
    detail = {"untraced_pass_s": baseline.seconds,
              "traced_pass_s": [outcome.seconds for outcome, _ in measured],
              "consistency_problems": problems}
    return {"values": values, "detail": detail}, passes


def _report(record: dict, units: dict) -> None:
    """Print every metric by name and unit; a trace-0 run adds the raw pass
    time, the reference time and the per-command times, marking those its
    workload does not have."""
    print(f"spinweb benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']}")
    print(f"  inputs sha256:{record['inputs_sha256']}")
    print("  env " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    rows = [(name, value, units[name]) for name, value in record["values"].items()]
    if not record["trace"]:
        detail = record["detail"]
        parts = detail["parts_median_s"]
        rows[1:1] = [("wall_s", detail["wall_s"], "s"),
                     ("reference_s", statistics.median(detail["reference_s"]), "s")]
        rows[3:3] = [(f"{command}_s", parts.get(f"{command}_s"), "s")
                     for command in COMMANDS]
    attempted, failed = record["attempted"], record["failed"]
    rows.append(("failed_share", failed / attempted, "ratio"))
    for name, value, unit in rows:
        shown = "n/a (large_srg only)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:32s} {shown}")
    print(f"  {failed} of {attempted} operations failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spinweb = load_program(ROOT)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](spinweb, ROOT, args.seed, OUT_DIR)
    if args.trace:
        result, passes = traced_run(workload, args.seed)
        units = tracing.UNITS
    else:
        result, passes = timed_run(workload, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}
    problems = [p for outcome in passes for p in outcome.problems]
    problems += result["detail"].get("consistency_problems", [])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems and failed == 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs_sha256": workload.digest,
              "environment": environment(ROOT), "correct": correct,
              "attempted": attempted, "failed": failed, **result, "problems": problems}
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    _report(record, units)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["values"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
