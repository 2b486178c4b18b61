"""One workload in a fresh interpreter; started by ``run.py``.

Builds the workload's inputs from the seed, then times untraced passes
over its items for the requested seconds, and at least two.  With
``--trace 1`` it adds one traced pass, for the per-layer numbers, and the
row-reduction micro-measures.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gogends
from gogends import fplinalg

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

MIN_PASSES = 2

# random matrices for the kernel micro-measure: (prime, rows, cols)
RREF_SHAPES = ((2, 2048, 1024), (3, 1458, 729))


def timed_pass(items) -> tuple[float, list]:
    t0 = time.perf_counter()
    outcomes = [workloads.run_item(item) for item in items]
    return time.perf_counter() - t0, outcomes


def measure(items, seconds: float) -> tuple[list[float], list[list]]:
    """Untraced passes while the next one is expected to end within
    ``seconds``; always at least ``MIN_PASSES``, so the outputs of two
    passes are compared on every run."""
    walls, passes = [], []
    t0 = time.perf_counter()
    while True:
        wall, outcomes = timed_pass(items)
        walls.append(wall)
        passes.append(outcomes)
        if len(walls) >= MIN_PASSES and time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return walls, passes


def traced_pass(items) -> tuple[float, list, spans.Tracer]:
    tracer = spans.Tracer()
    with tracer:
        wall, outcomes = timed_pass(items)
    return wall, outcomes, tracer


def layer_metrics(tracer: spans.Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """The per-layer values that come from one traced pass."""
    own, _ = tracer.self_times()
    values: dict[str, float] = {}
    for name, _, _, _ in spans.PER_LAYER:
        layer, _, key = name.rpartition(".")
        if layer in tracer.layers:
            values[name] = own.get(layer, 0.0) if key == "self_s" else float(tracer.counts[layer, key])
    homs = tracer.counts["fpcore.hom_from_images", "calls"]
    values["gog.search.hit_ratio"] = tracer.counts["gog.injective_homs", "yielded"] / homs if homs else 0.0
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def rref_micro(seed: int) -> tuple[dict[str, float], bool]:
    """Time fplinalg.rref on seeded random matrices; check each result."""
    rng = np.random.default_rng(seed)
    values, ok = {}, True
    for p, rows, cols in RREF_SHAPES:
        m = fplinalg.FpMatrix(rng.integers(0, p, size=(rows, cols), dtype=np.uint8), p)
        t0 = time.perf_counter()
        reduced, pivots = fplinalg.rref(m)
        values[f"fplinalg.rref.gf{p}_{rows}x{cols}_ms"] = (time.perf_counter() - t0) * 1e3
        ok = ok and _is_rref_of(m, reduced, pivots, rng)
    return values, ok


def _is_rref_of(m, reduced, pivots, rng, samples: int = 16) -> bool:
    """Reduced row echelon shape, and random vectors of its nullspace lie
    in the nullspace of the input (a wrong reduction passes with
    probability at most p**-samples)."""
    p, d, r = m.prime, reduced.data.astype(np.int64), len(pivots)
    if sorted(set(pivots)) != list(pivots) or d[r:].any():
        return False
    if not np.array_equal(d[:r][:, pivots], np.eye(r, dtype=np.int64)):
        return False
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    x = np.zeros((m.cols, samples), dtype=np.int64)
    x[free] = rng.integers(0, p, size=(len(free), samples))
    x[list(pivots)] = (-(d[:r][:, free] @ x[free])) % p
    return not ((m.data.astype(np.int64) @ x) % p).any()


def provenance(args, items) -> dict:
    return {
        "version": gogends.__version__,
        "kernel": gogends.KERNEL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "items": len(items),
    }


def run(args) -> dict:
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.build(args.workload, args.seed, out_dir)
        walls, passes = measure(items, args.seconds)
        result = {"walls": walls, "provenance": provenance(args, items)}
        if args.trace:
            wall, outcomes, tracer = traced_pass(items)
            passes.append(outcomes)
            result["layers"] = layer_metrics(tracer, wall, statistics.median(walls))
            micro, micro_ok = rref_micro(args.seed)
            result["layers"].update(micro)
            result["micro_ok"] = micro_ok
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result.update(
        check_passes(passes),
        items_detail=_item_counts(args.workload, passes[0]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return result


def check_passes(passes: list[list]) -> dict:
    """Failed items over all passes, and whether every pass gave the same outputs."""
    digests = [workloads.output_digest(outcomes) for outcomes in passes]
    failures = [o for outcomes in passes for o in outcomes if not o.ok]
    return {
        "attempted": sum(len(outcomes) for outcomes in passes),
        "failed": len(failures),
        "errors": [f"{o.label}: {o.error or 'wrong output'}" for o in failures[:5]],
        "digest": digests[0],
        "deterministic": len(set(digests)) == 1,
    }


def _item_counts(name: str, outcomes) -> dict:
    """Sizes worth recording next to the result: lemma checks, graphs
    checked, levels or searches run."""
    if name == "lemmas":
        return {o.label: o.output["checks"] for o in outcomes if o.ok}
    if name == "counting":
        return {o.label: o.output["graphs_checked"] for o in outcomes if o.ok}
    return {"levels" if name == "levels" else "searches": len(outcomes)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(gogends.__file__).resolve().parent.parent != src:
        print(f"gogends imported from {gogends.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
