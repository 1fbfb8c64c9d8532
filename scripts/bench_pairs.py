#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload census7 \
        --seeds 7101-7110 --label census_objects

For each seed, ``benchmark/run.py --workload W --seed S --seconds T --trace 0``
runs once in each checkout, each from its own root, with T the run length
``run_seconds`` of the change's ``BENCHMARK.json``; the parent runs first in
odd pairs (the first, third, ...) and the change first in even ones, so a
drift of the host's speed falls on both sides alike.  The last line of each
run's standard output is its JSON record; a run that exits non-zero or
reports an incorrect output stops the script.  Both checkouts' sources are
byte-compiled first, so that no measured run pays for it.  ``--workload`` may be given
more than once; the workloads run one after another, each on every seed.

The script writes ``BENCH_<label>.json`` into the root of the checkout it
belongs to, with, per workload and end-to-end metric of the
change's ``BENCHMARK.json``: each side's per-run values, median and
quartiles (``statistics.quantiles``, n = 4), the number of pairs the change
won, the median delta (change - parent), the parent's interquartile range
and the metric's bound; the same for each run's raw set-up probe median
(``setup_raw_s``, with no bound), read from the run's full record
``.bench_out/result-<workload>-seed<seed>-trace0.json`` in its checkout, so
that a set-up claim can be checked before normalisation as well as after;
plus the seeds, the attempted and failed operation counts and the machine,
Python and numpy versions.  The file is written again after each workload,
so a run that stops in a later workload keeps the pairs already measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RAW_SETUP = {"name": "setup_raw_s", "better": "lower"}     # no bound: not an end-to-end metric


def parse_seeds(text: str) -> list[int]:
    """'A-B' (inclusive) or a comma-separated list of seeds."""
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    record = json.loads(lines[-1])
    if not record["correct"]:
        raise SystemExit(f"{checkout}: incorrect outputs on {workload} seed {seed}")
    full = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    record["metrics"]["setup_raw_s"] = {
        "value": json.loads(full.read_text())["detail"]["setup_raw_s"], "unit": "s"}
    return record


def summary(values: list[float]) -> dict:
    return {"median": round(statistics.median(values), 6),
            "quartiles": [round(q, 6) for q in statistics.quantiles(values, n=4)],
            "runs": values}


def compare(runs: dict[str, list[dict]], metric: dict) -> dict:
    """Both sides' summaries of one metric, with the pair wins and the IQR."""
    values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]]
              for side in SIDES}
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    parent_q = statistics.quantiles(values["parent"], n=4)
    return {
        **{side: summary(values[side]) for side in SIDES},
        "change_better_pairs": wins,
        "median_delta": round(statistics.median(values["change"])
                              - statistics.median(values["parent"]), 6),
        "parent_iqr": round(parent_q[2] - parent_q[0], 6),
        "bound": metric.get("bound"),
    }


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="A-B or a comma-separated list")
    parser.add_argument("--label", required=True)
    parser.add_argument("--note", default="", help="what the two checkouts are")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    out = {"label": args.label, "change": args.note, "machine": machine(),
           "method": (f"benchmark/run.py --workload W --seed S --seconds {seconds:g} "
                      "--trace 0 in each checkout; one pair per seed, parent first in "
                      "odd pairs and change first in even ones; medians and quartiles "
                      "(statistics.quantiles, n=4) of each side's runs"),
           "workloads": {}}
    for checkout in checkouts.values():     # so that no measured run compiles the sources
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "benchmark"],
                       cwd=checkout, check=True)
    path = ROOT / f"BENCH_{args.label}.json"
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(checkouts[side], workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics']['wall_norm_s']['value']:.4f}"
                for side in SIDES), file=sys.stderr, flush=True)
        out["workloads"][workload] = {
            "seeds": seeds,
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            **{metric["name"]: compare(runs, metric)
               for metric in [*benchmark["end_to_end"], RAW_SETUP]},
        }
        path.write_text(json.dumps(out, indent=1) + "\n")     # keep what is measured so far
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
