"""Command line front end: arguments, input files, suites, reports.

Subcommands: verify-lemmas, counting, enumerate, analyze, ends.  Each
subparser declares its options and their defaults once and registers
its runner with ``set_defaults(run=...)``; ``main`` calls
``args.run(args)``.  A runner checks its own arguments before any work
starts and returns (exit code, report).  ``analyze`` and ``ends`` share
one registration and one runner and differ only in ``--levels``.

``counting`` is exhaustive up to ``graphs.EXHAUSTIVE_MAX_EDGES`` edges,
the cap of ``enumerate``; beyond it, it checks ``SAMPLES`` random
connected multigraphs, capped at ``SAMPLED_MAX_EDGES`` edges and
``SAMPLED_MAX_VERTICES`` vertices.  All report quantities are exact
integers and reports are emitted as canonical JSON (sorted keys, compact
separators), so identical inputs produce identical bytes.  Exit codes:
0 all assertions pass, 1 a violation was found, 2 input error,
including an output path that cannot be written.

The linear-algebra layers, and numpy with them, load only in the runners
that need them: ``verify-lemmas`` imports ``cohomology`` and ``analyze``
and ``ends`` import ``ends``, so ``counting`` and ``enumerate`` start
without numpy.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import fpcore, gog as gogmod, graphs
from .schema import InputError, gog_from_json

DEFAULT_LEMMA_ORDER = {2: 16, 3: 27}
# sampled counting takes about 10 ms per edge of the cap, and a
# connected graph with 256 edges has at most 257 vertices
SAMPLED_MAX_EDGES = 256
SAMPLED_MAX_VERTICES = SAMPLED_MAX_EDGES + 1
SAMPLES = 2000


# -- input ---------------------------------------------------------------


def parse_input(path: str) -> gogmod.GraphOfGroups:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    return gog_from_json(data)


def _at_least(value: int | None, least: int, option: str) -> None:
    if value is not None and value < least:
        raise InputError(f"{option} must be at least {least}")


def _parse_levels(text: str) -> tuple[int, ...]:
    levels = []
    for entry in filter(None, text.split(",")):
        try:
            levels.append(int(entry))
        except ValueError:
            raise InputError(f"--levels entry {entry!r} is not an integer") from None
    return tuple(levels)


# -- report emission -----------------------------------------------------


def canonical_json(report) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def emit_report(report, path: str | None):
    payload = canonical_json(report)
    if path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        return
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


# -- runners: each checks its arguments, then returns (exit code, report) --


def run_verify_lemmas(args) -> tuple[int, dict]:
    _at_least(args.max_order, 1, "--max-order")
    if (args.max_order or 0) > fpcore.MAX_ORDER:
        raise InputError(f"--max-order must be at most {fpcore.MAX_ORDER}, the catalog cap")
    max_order = DEFAULT_LEMMA_ORDER[args.prime] if args.max_order is None else args.max_order
    from . import cohomology  # after the argument checks, as in run_analyze

    findings = []
    checks = 0
    for G in fpcore.catalog_groups(args.prime, max_order):
        for rep in cohomology.lemma_reports(G):
            checks += 1
            if not rep.ok:
                findings.append(rep.to_json())
    report = {
        "suite": "verify-lemmas",
        "prime": args.prime,
        "max_order": max_order,
        "checks": checks,
        "findings": findings,
        "status": "pass" if not findings else "fail",
    }
    return (0 if not findings else 1), report


def run_counting(args) -> tuple[int, dict]:
    _at_least(args.max_edges, 0, "--max-edges")
    sampled = args.max_edges > graphs.EXHAUSTIVE_MAX_EDGES
    if sampled and (args.max_edges > SAMPLED_MAX_EDGES or (args.max_vertices or 0) > SAMPLED_MAX_VERTICES):
        raise InputError(f"sampled counting is capped at {SAMPLED_MAX_EDGES} edges and {SAMPLED_MAX_VERTICES} vertices")
    _at_least(args.max_vertices, 1, "--max-vertices")
    # a connected graph with m edges has at most m + 1 vertices
    max_vertices = args.max_edges + 1 if args.max_vertices is None else args.max_vertices
    if sampled:
        rng = random.Random(args.seed)
        candidates = (graphs.random_multigraph(rng, args.max_edges, max_vertices) for _ in range(SAMPLES))
        mode = {"mode": "sampled", "seed": args.seed}
    else:
        candidates = graphs.enumerate_connected_multigraphs(args.max_edges, max_vertices)
        mode = {"mode": "exhaustive"}
    result = graphs.verify_counting_lemma(candidates)
    report = result.to_json()
    report.update(mode, suite="counting", max_edges=args.max_edges)
    return (0 if result.ok else 1), report


def run_enumerate(args) -> tuple[int, dict]:
    _at_least(args.max_edges, 0, "--max-edges")
    if args.max_edges > graphs.EXHAUSTIVE_MAX_EDGES:
        raise InputError(f"enumerate is exhaustive and capped at {graphs.EXHAUSTIVE_MAX_EDGES} edges")
    _at_least(args.max_vertices, 1, "--max-vertices")
    max_vertices = args.max_edges + 1 if args.max_vertices is None else args.max_vertices
    candidates = graphs.enumerate_connected_multigraphs(args.max_edges, max_vertices)
    reports = [graphs.counting_report(g, m).to_json() for g, m in graphs.matched_graphs(candidates)]
    return 0, {"suite": "enumerate", "max_edges": args.max_edges, "graphs": reports, "count": len(reports)}


def run_analyze(args) -> tuple[int, list]:
    """``analyze`` and ``ends``: one report per level, by default the one
    level of the least witness within ``--order-bound``."""
    levels = _parse_levels(args.levels)
    _at_least(args.order_bound, 1, "--order-bound")
    g = parse_input(args.input)
    if not g.graph.edges:
        raise InputError("the graph of groups needs at least one edge")
    largest = max(grp.order for grp in g.vertex_groups.values())
    bounds = levels or (args.order_bound,)
    for bound in bounds:
        if levels and not fpcore.is_power_of(bound, g.prime):
            raise InputError(f"level {bound} is not a power of {g.prime}")
        if bound < largest:
            # every vertex group injects into a witness
            raise InputError(f"level {bound} is below the largest vertex-group order {largest}")
    from . import ends  # after the input checks, so a rejected input exits without numpy

    reports = []
    witnesses = []
    for bound in bounds:
        witness = gogmod.proper_quotient_search(g, bound)
        reports.append(ends.ends_level(g, witness))
        witnesses.append(witness)
    if args.witness_out is not None:
        emit_report([w.to_json(g) for w in witnesses], args.witness_out)
    bad = any(not (r.bound_holds and r.matching_le_gen) for r in reports)
    return (1 if bad else 0), [r.to_json() for r in reports]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gogends",
        description="Exact checks for ends of fundamental groups of graphs of finite p-groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, help, **kwargs):
        p = sub.add_parser(name, help=help, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--out")
        return p

    p = add("verify-lemmas", run_verify_lemmas, "cohomology lemma suite over the group catalog")
    p.add_argument("--prime", type=int, default=2, choices=fpcore.PRIMES)
    p.add_argument("--max-order", type=int)

    p = add("counting", run_counting, "edge-count bound over all small connected multigraphs",
            aliases=["verify-counting"])
    p.add_argument("--max-edges", type=int, default=7)
    p.add_argument("--max-vertices", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = add("enumerate", run_enumerate, "list connected multigraphs up to isomorphism")
    p.add_argument("--max-edges", type=int, default=4)
    p.add_argument("--max-vertices", type=int)

    for name, help, with_levels in (
        ("analyze", "per-level ends reports for a graph of groups file", True),
        ("ends", "ends report at the minimal witness level", False),
    ):
        p = add(name, run_analyze, help)
        p.set_defaults(levels="")  # before --levels, which takes it as its default
        p.add_argument("input")
        if with_levels:
            p.add_argument("--levels")
        p.add_argument("--order-bound", type=int, default=64)
        p.add_argument("--witness-out")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report = args.run(args)
        emit_report(report, args.out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except gogmod.NotFoundWithinBound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except gogmod.OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
