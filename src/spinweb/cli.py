"""Command-line interface: classify, verify, dims, generate, census.

Exit codes: classify returns 0 for a spin model, 1 for not, 2 on error;
verify returns 0 iff all four relations hold; census returns 1 when an
asserted equivalence finds a counterexample.  ``--graph6 -`` reads graph6
lines from stdin, one result per line; a malformed line, and for ``dims``
and ``classify --exact-dim`` an edgeless one (its dim V3 is undefined), is
reported as ``line N: <message>`` on stderr, the other lines are still
processed, and the exit code is then 2.  ``census --input`` reports
malformed lines the same way but keeps its exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import census as census_mod
from .classifier import (Verdict, classify_symmetric, classify_tournament)
from .graph6 import parse_graph6, read_graph6_lines, write_graph6
from .graphs import (BadOrder, Graph, Tournament, circulant_tournament,
                     clebsch, complete, cycle, paley, petersen, union_complete)
from .statesum import ZeroGenerator, dim_v3, full_report

FIXTURE_ENV = "SPINWEB_FIXTURES"
_FIXTURE_GENERATORS = ("higman_sims", "schlafli", "mclaughlin")
_GENERATORS = {"complete": complete, "union_complete": union_complete, "cycle": cycle,
               "paley": paley, "clebsch": clebsch, "petersen": petersen}


class CliError(ValueError):
    pass


def _fixture_dir() -> str:
    return os.environ.get(FIXTURE_ENV, os.path.join(".", "fixtures"))


def _load_fixture(name: str) -> Graph:
    path = os.path.join(_fixture_dir(), f"{name}.g6")
    try:
        with open(path, "rb") as handle:
            return parse_graph6(handle.readline())
    except FileNotFoundError:
        raise CliError(
            f"fixture {name!r} not found at {path}; set {FIXTURE_ENV}") from None


def build_generator(spec: str):
    """Resolve 'name' or 'name:a,b,...' (integer arguments) to a graph."""
    name, _, argtext = spec.partition(":")
    args = []
    if argtext:
        try:
            args = [int(a) for a in argtext.split(",")]
        except ValueError:
            raise CliError(f"generator arguments must be integers: {argtext!r}")
    try:
        if name in _GENERATORS:
            return _GENERATORS[name](*args)
        if name == "circulant_tournament":
            if len(args) < 1:
                raise CliError("circulant_tournament needs n and the outset")
            return circulant_tournament(args[0], set(args[1:]))
        if name in _FIXTURE_GENERATORS:
            if args:
                raise CliError(f"{name} takes no arguments")
            return _load_fixture(name)
    except (BadOrder, TypeError) as exc:
        raise CliError(f"bad generator {spec!r}: {exc}") from None
    raise CliError(f"unknown generator {name!r}")


def _inputs(ns) -> tuple[list[tuple[int | None, str, Graph | Tournament]],
                         list[tuple[int, str]]]:
    """Resolve the (unique) input source to (line number, label, graph) triples.

    The line number is None for a --gen or --graph6 TEXT input.  Also
    returns the (line number, message) of each malformed stdin line.
    """
    if (ns.graph6 is None) == (ns.gen is None):
        raise CliError("provide exactly one of --graph6 and --gen")
    if ns.gen is not None:
        obj = build_generator(ns.gen)
        if ns.tournament and not isinstance(obj, Tournament):
            raise CliError("--tournament given but the generator makes a graph")
        if isinstance(obj, Tournament) and not ns.tournament:
            raise CliError("tournament generators need the --tournament flag")
        return [(None, ns.gen, obj)], []
    if ns.tournament:
        raise CliError("graph6 encodes undirected graphs; --tournament needs --gen")
    if ns.graph6 == "-":
        errors: list[tuple[int, str]] = []
        items = list(read_graph6_lines(sys.stdin.buffer.read().splitlines(), errors))
        if not items and not errors:
            raise CliError("no graph6 lines on stdin")
        return items, errors
    return [(None, ns.graph6, parse_graph6(ns.graph6))], []


def _dim(obj, lineno: int | None, line_errors: list[tuple[int, str]]) -> int | None:
    """dim V3 of obj; None, with a line error, for an edgeless stdin line.

    A single input's ``ZeroGenerator`` propagates: it is the command's error.
    """
    try:
        return dim_v3(obj)
    except ZeroGenerator as exc:
        if lineno is None:
            raise
        line_errors.append((lineno, str(exc)))
        return None


def _report_line_errors(line_errors: list[tuple[int, str]]) -> None:
    for lineno, message in line_errors:
        print(f"line {lineno}: {message}", file=sys.stderr)


def _finish(status: int, line_errors: list[tuple[int, str]]) -> int:
    """Report bad input lines in line order; any of them makes the exit code 2."""
    _report_line_errors(sorted(line_errors))
    return 2 if line_errors else status


def _family_json(verdict: Verdict):
    if verdict.family is None:
        return None
    return {"kind": verdict.family.kind.value,
            "dims": list(verdict.family.dims),
            "untabulated": verdict.family.untabulated}


def _dim_text(verdict: Verdict, exact: int | None) -> str:
    if exact is not None:
        return f"dim V3 = {exact}"
    if len(verdict.family.dims) == 1:
        return f"dim V3 = {verdict.family.dims[0]}"
    if verdict.family.dims:
        return "dim V3 in {" + ",".join(map(str, verdict.family.dims)) + "}"
    return "dim V3 untabulated (use --exact-dim)"


def cmd_classify(ns) -> int:
    inputs, line_errors = _inputs(ns)
    worst = 0
    for lineno, label, obj in inputs:
        verdict = (classify_tournament(obj) if isinstance(obj, Tournament)
                   else classify_symmetric(obj))
        exact = None
        if ns.exact_dim and verdict.is_spin_model:
            exact = _dim(obj, lineno, line_errors)
            if exact is None:
                continue
        if ns.json:
            print(json.dumps({
                "input": label, "n": obj.n,
                "is_spin_model": verdict.is_spin_model,
                "case": verdict.case.value,
                "applied_to": verdict.applied_to.value if verdict.applied_to else None,
                "family": _family_json(verdict),
                "dim_v3": exact,
                "q_value": verdict.q_value,
                "reason": verdict.reason,
            }))
        elif verdict.is_spin_model:
            print(f"spin model: {verdict.case.value} case; "
                  f"family {verdict.family.kind.value}; {_dim_text(verdict, exact)}")
        else:
            print(f"not a spin model: {verdict.reason}")
        worst = max(worst, 0 if verdict.is_spin_model else 1)
    return _finish(worst, line_errors)


def cmd_verify(ns) -> int:
    inputs, line_errors = _inputs(ns)
    worst = 0
    for _, label, obj in inputs:
        report = full_report(obj)
        if ns.json:
            print(json.dumps({
                "input": label, "n": obj.n, "directed": report.directed,
                "relations": {rel: check.holds for rel, check in report.checks()},
                "is_spin_model": report.is_spin_model,
                "coefficients": {
                    rel: ({key: str(value) for key, value in check.coefficients.items()}
                          if check.coefficients else None)
                    for rel, check in report.checks()},
                "witnesses": {
                    rel: (None if check.witness is None else {
                        "site": list(check.witness.site),
                        "lhs": str(check.witness.lhs),
                        "rhs": str(check.witness.rhs),
                        "detail": check.witness.detail})
                    for rel, check in report.checks()},
            }))
        else:
            print(f"{label}:")
            for rel, check in report.checks():
                if check.holds:
                    coeff = ""
                    if rel in ("1b", "2b") and check.coefficients:
                        coeff = " (" + ", ".join(
                            f"{key}={value}" for key, value in check.coefficients.items()) + ")"
                    print(f"  {rel}: holds{coeff}")
                else:
                    print(f"  {rel}: FAILS  [{check.witness.detail}]")
            print(f"  spin model: {'yes' if report.is_spin_model else 'no'}")
        worst = max(worst, 0 if report.is_spin_model else 1)
    return _finish(worst, line_errors)


def cmd_dims(ns) -> int:
    inputs, line_errors = _inputs(ns)
    for lineno, label, obj in inputs:
        value = _dim(obj, lineno, line_errors)
        if value is None:
            continue
        if ns.json:
            print(json.dumps({"input": label, "n": obj.n, "dim_v3": value}))
        else:
            print(value)
    return _finish(0, line_errors)


def cmd_generate(ns) -> int:
    obj = build_generator(ns.gen)
    if isinstance(obj, Tournament):
        raise CliError("graph6 encodes undirected graphs only")
    sys.stdout.write(write_graph6(obj).decode() + "\n")
    return 0


def _tournament_sizes(text: str | None) -> tuple[int, ...] | None:
    """The sizes of ``--ns``: comma-separated integers >= 1; None if it was not given."""
    if text is None:
        return None
    sizes = []
    for entry in text.split(","):
        try:
            n = int(entry)
        except ValueError:
            n = 0
        if n < 1:
            raise CliError(f"--ns entries must be integers >= 1, got {entry!r}")
        sizes.append(n)
    return tuple(sizes)


def _given(**options) -> dict:
    """The options that were given; the census layer owns the defaults of the rest."""
    return {name: value for name, value in options.items() if value is not None}


# the census's source-specific flags, in the order they are checked, and what each is for
_CENSUS_FLAGS = {"--input": "reads graph6 graphs",
                 "--max-n": "sets the size of the built-in census",
                 "--workers": "sets the processes of the built-in census",
                 "--ns": "sets tournament sizes",
                 "--mode list_3pt_regular": "lists graphs"}

# per census source, keyed by the flag that selects it (None: the built-in
# enumeration): the source-specific flags it takes, and how it runs
_CENSUS_SOURCES = {
    "--tournament": (("--ns",), lambda ns: census_mod.run_tournament_census(
        mode=ns.mode, **_given(ns=_tournament_sizes(ns.ns)))),
    "--input": (("--input", "--mode list_3pt_regular"), lambda ns: census_mod.scan_stream(
        sys.stdin.buffer if ns.input == "-" else ns.input, ns.mode)),
    None: (("--max-n", "--workers", "--mode list_3pt_regular"), lambda ns: census_mod.run_census(
        census_mod.CensusConfig(mode=ns.mode, **_given(max_n=ns.max_n, workers=ns.workers)))),
}


def cmd_census(ns) -> int:
    """Run the census source that the flags select, after refusing every flag it
    does not take: "it needs S" when exactly one flagged source S takes the flag
    and S was not given, else "it cannot be combined with" the selected source."""
    if ns.workers is not None and ns.workers < 1:
        raise CliError(f"workers must be >= 1, got {ns.workers}")
    given = {f"--{name.replace('_', '-')}" for name, value in vars(ns).items()
             if value is not None and value is not False} | {f"--mode {ns.mode}"}
    source = next((key for key in _CENSUS_SOURCES if key in given), None)
    takes, run = _CENSUS_SOURCES[source]
    for flag, phrase in _CENSUS_FLAGS.items():
        if flag in given and flag not in takes:
            takers = [key for key, (flags, _) in _CENSUS_SOURCES.items() if flag in flags]
            if len(takers) == 1 and takers[0] is not None and takers[0] not in given:
                raise CliError(f"{flag} {phrase}; it needs {takers[0]}")
            raise CliError(f"{flag} {phrase}; it cannot be combined with {source}")
    try:
        result = run(ns)
    except census_mod.CounterexampleFound as exc:
        print(f"COUNTEREXAMPLE: {exc}", file=sys.stderr)
        return 1
    for hit in result.hits:
        fam = hit.verdict.family.kind.value if hit.verdict.family else "-"
        dims = ",".join(map(str, hit.verdict.family.dims)) if hit.verdict.family else "-"
        flags = " ".join(f"{rel}={'T' if check.holds else 'F'}"
                         for rel, check in hit.report.checks())
        print(f"{hit.name}\t{hit.verdict.case.value}\t{fam}\tdim={dims or '-'}\t{flags}")
    _report_line_errors(result.line_errors)
    disagreements = 1 if result.disagreement else 0
    status = "OK" if disagreements == 0 else "FAIL"
    print(f"{status}, {result.graphs_seen} graphs, {disagreements} disagreements")
    return 1 if disagreements else 0


def _add_input_flags(sub):
    sub.add_argument("--graph6", help="graph6 string, or '-' for stdin lines")
    sub.add_argument("--gen", help="generator name[:a,b,...], e.g. cycle:5")
    sub.add_argument("--tournament", action="store_true",
                     help="treat the generated object as a tournament")
    sub.add_argument("--json", action="store_true",
                     help="one JSON object per input line")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing does not change it, and rebuilding it on every ``main`` call
    left in-process callers (tests, benchmarks) with resident memory that
    grew with the number of calls.  ``main`` looks the subcommand's
    ``cmd_<name>`` function up when it runs, not when the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="spinweb",
        description="spin-model classification for graphs and tournaments")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="closed-form spin-model verdict")
    _add_input_flags(sub)
    sub.add_argument("--exact-dim", action="store_true",
                     help="compute dim V3 with the state-sum oracle")

    sub = subs.add_parser("verify", help="state-sum oracle relation report")
    _add_input_flags(sub)

    sub = subs.add_parser("dims", help="dim V3 by exact rank computation")
    _add_input_flags(sub)

    sub = subs.add_parser("generate", help="print a named graph as graph6")
    sub.add_argument("--gen", required=True)

    sub = subs.add_parser("census", help="exhaustive or stream census")
    sub.add_argument("--max-n", type=int, help="built-in census size (default 7)")
    sub.add_argument("--input", help="graph6 stream path, or '-' for stdin")
    sub.add_argument("--mode", default="assert_equivalence",
                     choices=[m.value for m in census_mod.CensusMode])
    sub.add_argument("--workers", type=int,
                     help="worker processes of the built-in census (default 1)")
    sub.add_argument("--tournament", action="store_true",
                     help="tournament census instead of graphs")
    sub.add_argument("--ns", help="comma-separated tournament sizes (default 3,5)")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{ns.command}"](ns)
    except (ValueError, OSError) as exc:    # CliError, Graph6Error, BadOrder, ZeroGenerator too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
