"""Benchmark of the beireg regularity routes: one command, three workloads.

    python3 perfbench/run.py --workload {structural,oracle-n8,verify-n6}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a source checkout; it imports `beireg` from
`src/` there and writes trace spans under `.perfbench/`.

Every pass runs in a fresh interpreter (worker.py), single-threaded, so the
package's caches (`_oracle_memo`, `_ENUM_CACHE`, `_PERMS`) start empty as
they do for a CLI user.  A run makes as many passes over the same inputs as
fit in S seconds at the workload's nominal pass length (at least one), so
the count depends on the arguments only, not on the speed of the code.
Every timing is scaled to one machine speed by a reference kernel timed
all through each pass (calibrate.py).  Each operation's time and `wall_s`
are medians over the passes.  `setup_s` is the median over several
interpreters that only import `beireg` plus the passes' own start-ups.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
the same passes run, then one traced pass, and the last line holds the
per-layer metrics (see tracing.py).  Every operation is checked against
golden.json; a mismatch, an exception or a gate refusal counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 8
RUN_LIMIT_S = 170.0
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child(args, deadline):
    """Run worker.py in a fresh interpreter; returns its last-line JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), repr(spawned)] + args
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(items):
    """(value, percentile): the highest whole percentile with at least
    TAIL_MIN_BEYOND items above it, by nearest rank."""
    ranked = sorted(items)
    n = len(ranked)
    q = max(0, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))
    k = max(1, math.ceil(q * n / 100))
    return ranked[k - 1], q


def options(args):
    return ["--golden", str(args.golden.resolve())] + (
        ["--smoke"] if args.smoke else [])


def measure(args, deadline):
    """Untraced passes plus the setup-only interpreters."""
    child(["--setup-only"], deadline)  # writes bytecode caches; not counted
    setups = [child(["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_RUNS // 2)]
    worker_args = [args.workload, str(args.seed), "0"] + options(args)
    passes = [child(worker_args, deadline)
              for _ in range(wl.passes(args.workload, args.seconds))]
    # the rest after the passes, so the median spans the whole run
    setups += [child(["--setup-only"], deadline)["setup_s"]
               for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    setups += [p["setup_s"] for p in passes]
    return setups, passes


def end_to_end(setups, passes):
    # the passes run the same operations in the same order; each operation's
    # item is its median time over them, so there is one item per operation
    # of a pass
    items = [statistics.median(times)
             for times in zip(*(p["items"] for p in passes))]
    tail_s, q = tail(items)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_s": (statistics.median(items), "s"),
        "item_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MiB"),
    }
    notes = {"tail_percentile": (q, "p"), "item_samples": (len(items), "count"),
             "passes": (len(passes), "count"),
             "raw_wall_s": (statistics.median(p["raw_wall_s"] for p in passes),
                            "s"),
             "kernel_unit_s": (statistics.median(p["unit_s"] for p in passes),
                               "s")}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few cheap operations, for the tests")
    parser.add_argument("--golden", type=Path, default=wl.GOLDEN_PATH,
                        help="golden values to check against")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "beireg" / "__init__.py").is_file():
        raise BenchError(f"no beireg source under {ROOT / 'src'}")
    if not args.golden.is_file():
        raise BenchError(f"missing {args.golden}")
    deadline = time.monotonic() + RUN_LIMIT_S

    setups, passes = measure(args, deadline)
    metrics, notes = end_to_end(setups, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    extra = passes[-1]["extra"]

    if args.trace:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        spans = spans_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        traced = child([args.workload, str(args.seed), "1", "--spans",
                        str(spans)] + options(args), deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        errors += traced["errors"]
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"][0]
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        reported = {name: (layers[name], units[name]) for name in units}
    else:
        reported = metrics

    notes["error_rate"] = (failed / attempted, "fraction")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**metrics, **reported, **notes}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for key, value in extra.items():
        print(f"  {key:<44} {value!s:>14}")
    for error in errors:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
