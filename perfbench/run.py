"""The repository's benchmark: one entry point for every workload.

    python3 perfbench/run.py [--workload lemmas|counting|levels|search|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own child interpreter, one at a time, with the
thread-count variables pinned to 1 and ``gogends`` imported from ``src/``
of this checkout.  The child times untraced passes over the workload's
items for ``--seconds``, and at least two, and checks every output.
``setup_s`` is measured apart: fresh interpreters that only import
``gogends.cli`` and ``gogends.corpus``, half of them before the child and
half after it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a traced
pass and reports the per-layer metrics (see ``spans.PER_LAYER`` for what
each should move).  Human-readable lines, the provenance and the sha256
of the workload's canonical outputs come first; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("lemmas", "counting", "levels", "search")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_IMPORT = "import gogends.cli, gogends.corpus"
SETUP_SAMPLES = 5  # timed starts per call; one call before the child, one after
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 160


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def measure_setup(env: dict) -> list[float]:
    """Interpreter start through the imports, in fresh processes.  One
    untimed start first, so every timed one finds the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_IMPORT], env=env, cwd=ROOT)
        # a timer kills a hung start: wait(timeout=...) polls in 50 ms steps,
        # which would round every sample
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"importing gogends failed with exit code {code}")
        if i:
            samples.append(elapsed)
    return samples


def run_child(workload: str, args, env: dict) -> dict:
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    try:
        done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with code {done.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.decode().strip() or "unknown"


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    return (100 * (n - 10)) // n if n > 10 else None


def end_to_end(result: dict, setup: list[float]) -> dict:
    return {
        "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    return {name: {"value": result["layers"][name], "unit": unit} for name, unit, _, _ in spans.PER_LAYER}


def report(workload: str, args, result: dict, setup: list[float], commit: str) -> dict:
    correct = result["failed"] == 0 and result["deterministic"] and result.get("micro_ok", True)
    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    tail = tail_percentile(len(walls))
    tail_text = f"p{tail} {sorted(walls)[-11]:.3f} s" if tail else "no percentile has ten samples above it"
    print(
        f"{workload}: wall_s median {statistics.median(walls):.3f} s over {len(walls)} passes "
        f"(max {max(walls):.3f} s; {tail_text}); setup_s median {statistics.median(setup):.3f} s "
        f"over {len(setup)} starts; peak_rss_mb {result['peak_rss_mb']:.1f} MB; "
        f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}"
    )
    for error in result["errors"]:
        print(f"{workload}: failed item {error}")
    if not result["deterministic"]:
        print(f"{workload}: passes gave different outputs")
    provenance = dict(result["provenance"], commit=commit, item_counts=result["items_detail"])
    print(f"{workload}: provenance {json.dumps(provenance, sort_keys=True)}")
    print(f"{workload}: outputs sha256 {result['digest']}")
    if args.trace:
        metrics = per_layer(result)
        for name, unit, _, moves in spans.PER_LAYER:
            print(f"{workload}: {name} = {metrics[name]['value']:.6g} {unit}  (moves {moves})")
    else:
        metrics = end_to_end(result, setup)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "gogends" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        commit = git_commit()
        results = []
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            setup = measure_setup(env)
            result = run_child(workload, args, env)
            # half the starts after the child, so set-up time is sampled at
            # both ends of the run and not at one moment of the host's load
            setup += measure_setup(env)
            results.append(report(workload, args, result, setup, commit))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
