"""Command line front end: arguments, input files, suites, reports.

Subcommands: verify-lemmas, counting, enumerate, analyze, ends.  All
report quantities are exact integers and reports are emitted as
canonical JSON (sorted keys, compact separators), so identical inputs
produce identical bytes.  Exit codes: 0 all assertions pass, 1 a
violation was found, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import cohomology, ends, fpcore, gog as gogmod, graphs
from .fplinalg import PRIMES
from .schema import InputError, gog_from_json

DEFAULT_LEMMA_ORDER = {2: 16, 3: 27}


@dataclass
class WorkbenchConfig:
    prime: int = 2
    subcommand: str = ""
    input_path: str | None = None
    max_edges: int = 7
    max_vertices: int | None = None
    levels: tuple[int, ...] = ()
    order_bound: int = 64
    max_order: int | None = None
    seed: int = 0
    out: str | None = None
    witness_out: str | None = None

    def __post_init__(self):
        if self.prime not in PRIMES:
            raise InputError(f"prime must be {' or '.join(map(str, PRIMES))}")
        if self.max_edges < 0:
            raise InputError("--max-edges must be at least 0")
        if self.subcommand == "enumerate" and self.max_edges > 8:
            raise InputError("enumerate is exhaustive and capped at 8 edges")
        # sampled counting takes about 10 ms per edge of the cap, and a
        # connected graph with 256 edges has at most 257 vertices
        sampled = self.subcommand in ("counting", "verify-counting") and self.max_edges > 8
        if sampled and (self.max_edges > 256 or (self.max_vertices or 0) > 257):
            raise InputError("sampled counting is capped at 256 edges and 257 vertices")
        for name, value in (("--max-vertices", self.max_vertices), ("--max-order", self.max_order)):
            if value is not None and value < 1:
                raise InputError(f"{name} must be at least 1")
        if self.order_bound < 1:
            raise InputError("--order-bound must be at least 1")
        if (self.max_order or 0) > fpcore.MAX_ORDER:
            raise InputError(f"--max-order must be at most {fpcore.MAX_ORDER}, the catalog cap")


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


# -- report emission -----------------------------------------------------


def canonical_json(report) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def emit_report(report, path: str | None):
    payload = canonical_json(report)
    if path is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


# -- suites ---------------------------------------------------------------


def run_verify_lemmas(cfg: WorkbenchConfig) -> tuple[int, dict]:
    max_order = DEFAULT_LEMMA_ORDER[cfg.prime] if cfg.max_order is None else cfg.max_order
    findings = []
    checks = 0
    for G in fpcore.catalog_groups(cfg.prime, max_order):
        for rep in cohomology.lemma_reports(G):
            checks += 1
            if not rep.ok:
                findings.append(rep.to_json())
    report = {
        "suite": "verify-lemmas",
        "prime": cfg.prime,
        "max_order": max_order,
        "checks": checks,
        "findings": findings,
        "status": "pass" if not findings else "fail",
    }
    return (0 if not findings else 1), report


def run_counting(cfg: WorkbenchConfig) -> tuple[int, dict]:
    if cfg.max_edges <= 8:
        candidates = graphs.enumerate_connected_multigraphs(cfg.max_edges, _max_vertices(cfg))
        mode = {"mode": "exhaustive"}
    else:  # sampled beyond the exhaustive cap
        rng = random.Random(cfg.seed)
        candidates = (graphs.random_multigraph(rng, cfg.max_edges, _max_vertices(cfg)) for _ in range(2000))
        mode = {"mode": "sampled", "seed": cfg.seed}
    result = graphs.verify_counting_lemma(candidates)
    report = result.to_json()
    report.update(mode, suite="counting", max_edges=cfg.max_edges)
    return (0 if result.ok else 1), report


def _max_vertices(cfg: WorkbenchConfig) -> int:
    """A connected graph with m edges has at most m + 1 vertices."""
    return cfg.max_edges + 1 if cfg.max_vertices is None else cfg.max_vertices


def run_enumerate(cfg: WorkbenchConfig) -> tuple[int, dict]:
    candidates = graphs.enumerate_connected_multigraphs(cfg.max_edges, _max_vertices(cfg))
    reports = [rep.to_json() for _, rep in graphs.counting_reports(candidates)]
    return 0, {"suite": "enumerate", "max_edges": cfg.max_edges, "graphs": reports, "count": len(reports)}


def run_analyze(cfg: WorkbenchConfig) -> tuple[int, dict | list]:
    g = parse_input(cfg.input_path)
    if not g.graph.edges:
        raise InputError("the graph of groups needs at least one edge")
    largest = max(grp.order for grp in g.vertex_groups.values())
    for bound in cfg.levels:
        if not fpcore.is_power_of(bound, g.prime):
            raise InputError(f"level {bound} is not a power of {g.prime}")
        if bound < largest:
            # every vertex group injects into a witness
            raise InputError(f"level {bound} is below the largest vertex-group order {largest}")
    levels = cfg.levels or (cfg.order_bound,)
    reports = []
    witnesses = []
    for bound in levels:
        witness = gogmod.proper_quotient_search(g, bound)
        reports.append(ends.ends_level(g, witness))
        witnesses.append(witness)
    _maybe_emit_witnesses(cfg, g, witnesses)
    payload = [r.to_json() for r in reports]
    bad = any(not (r.bound_holds and r.matching_le_gen) for r in reports)
    return (1 if bad else 0), payload


def _maybe_emit_witnesses(cfg: WorkbenchConfig, g, witnesses):
    if cfg.witness_out is None:
        return
    emit_report([w.to_json(g) for w in witnesses], cfg.witness_out)


def run_suite(cfg: WorkbenchConfig) -> tuple[int, object]:
    """Dispatch; returns (exit code, report object)."""
    if cfg.subcommand == "verify-lemmas":
        return run_verify_lemmas(cfg)
    if cfg.subcommand in ("counting", "verify-counting"):
        return run_counting(cfg)
    if cfg.subcommand == "enumerate":
        return run_enumerate(cfg)
    if cfg.subcommand in ("analyze", "ends"):
        return run_analyze(cfg)
    raise InputError(f"unknown subcommand {cfg.subcommand!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gogends",
        description="Exact checks for ends of fundamental groups of graphs of finite p-groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_input=False):
        p.add_argument("--out", type=str, default=None)
        if with_input:
            p.add_argument("input", type=str)

    p = sub.add_parser("verify-lemmas", help="cohomology lemma suite over the group catalog")
    common(p)
    p.add_argument("--prime", type=int, default=2, choices=PRIMES)
    p.add_argument("--max-order", type=int, default=None)

    p = sub.add_parser(
        "counting",
        aliases=["verify-counting"],
        help="edge-count bound over all small connected multigraphs",
    )
    common(p)
    p.add_argument("--max-edges", type=int, default=7)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enumerate", help="list connected multigraphs up to isomorphism")
    common(p)
    p.add_argument("--max-edges", type=int, default=4)
    p.add_argument("--max-vertices", type=int, default=None)

    p = sub.add_parser("analyze", help="per-level ends reports for a graph of groups file")
    common(p, with_input=True)
    p.add_argument("--levels", type=str, default="")
    p.add_argument("--order-bound", type=int, default=64)
    p.add_argument("--witness-out", type=str, default=None)

    p = sub.add_parser("ends", help="ends report at the minimal witness level")
    common(p, with_input=True)
    p.add_argument("--order-bound", type=int, default=64)
    p.add_argument("--witness-out", type=str, default=None)

    return parser


def _parse_levels(text: str) -> tuple[int, ...]:
    levels = []
    for entry in filter(None, text.split(",")):
        try:
            levels.append(int(entry))
        except ValueError:
            raise InputError(f"--levels entry {entry!r} is not an integer") from None
    return tuple(levels)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        levels = _parse_levels(getattr(args, "levels", ""))
        cfg = WorkbenchConfig(
            prime=getattr(args, "prime", 2),
            subcommand=args.subcommand,
            input_path=getattr(args, "input", None),
            max_edges=getattr(args, "max_edges", 7),
            max_vertices=getattr(args, "max_vertices", None),
            levels=levels,
            order_bound=getattr(args, "order_bound", 64),
            max_order=getattr(args, "max_order", None),
            seed=getattr(args, "seed", 0),
            out=args.out,
            witness_out=getattr(args, "witness_out", None),
        )
        code, report = run_suite(cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except gogmod.NotFoundWithinBound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ends.OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 1
    emit_report(report, cfg.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
