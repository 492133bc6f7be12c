"""Record the benchmark's golden values and input pools into golden.json.

Run it from the repository root at the commit whose outputs are the
reference, on an otherwise idle machine (the recorded costs rank the pool
classes into strata):

    python3 perfbench/record_golden.py

It records every section afresh, in one run, and then writes them all:
  fixtures        the three fixture graphs, copied from fixtures/*.json
  structural_ops  golden summaries of the grid and fixture operations
  pool_n7         random connected 7-vertex classes with oracle values
  pool_n8         random connected 8-vertex classes with oracle values and
                  structural intervals
  verify          run_verification pass counts for max_n 4 and 6

Each pool class is checked to have its oracle value inside
`regularity.bounds` before it is kept.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from beireg import formats as fm  # noqa: E402
from beireg import graphs as gr  # noqa: E402
from beireg import regularity as rg  # noqa: E402
from beireg import verification as vf  # noqa: E402

POOL_SEED = 2602
POOL_SIZES = {7: 240, 8: 36}


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def random_classes(n, count):
    """count pairwise non-isomorphic connected graphs on n vertices with
    edge counts spread from n to n(n-1)/2 - 2."""
    rng = random.Random(f"{POOL_SEED}-{n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = set()
    out = []
    while len(out) < count:
        m = rng.randint(n, len(pairs) - 2)
        g = gr.Graph.from_edges(n, sorted(rng.sample(pairs, m)))
        if not gr.is_connected(g):
            continue
        key = gr.canonical_form(g)
        if key in seen:
            continue
        seen.add(key)
        out.append(g)
    return out


def oracle_entry(i, g):
    report, cost = timed(lambda: rg.reg(g, method="oracle"))
    lo, hi = rg.bounds(g)
    if not lo <= report.value <= hi:
        raise RuntimeError(f"class {i}: oracle {report.value} outside [{lo}, {hi}]")
    return {"id": i, "n": g.n, "edges": [list(e) for e in g.edges()],
            "oracle": report.value, "oracle_cost_s": round(cost, 4)}


def record_fixtures():
    out = {}
    for name in wl.FIXTURES:
        g = fm.load_graph(ROOT / "fixtures" / f"{name}.json")
        out[name] = {"n": g.n, "edges": [list(e) for e in g.edges()],
                     "labels": list(g.labels) if g.labels else None}
    return out


def record_structural_ops(fixtures):
    out = {}
    for name, call in wl.deterministic_structural_ops(fixtures):
        out[name] = wl.summary(call())
    return out


def record_pool(n):
    entries = []
    for i, g in enumerate(random_classes(n, POOL_SIZES[n])):
        entry = oracle_entry(i, g)
        if n == 8:
            report, cost = timed(lambda: rg.reg(g, method="structural"))
            if not report.lo <= entry["oracle"] <= report.hi:
                raise RuntimeError(f"class {i}: structural interval misses the oracle")
            entry["structural"] = [report.lo, report.hi]
            entry["structural_cost_s"] = round(cost, 4)
        print(f"pool n={n} #{i}: {entry}", file=sys.stderr, flush=True)
        entries.append(entry)
    return entries


def record_verify():
    out = {}
    for max_n in sorted({wl.SMOKE_VERIFY_MAX_N, wl.VERIFY_MAX_N}):
        report = vf.run_verification(max_n=max_n).to_jsonable()
        out[str(max_n)] = {
            "classes": sum(report["graphCounts"].values()),
            "pass": {name: c["pass"] for name, c in report["checks"].items()},
            "allPassed": report["allPassed"],
        }
    return out


def main():
    golden = {"fixtures": record_fixtures()}
    golden["structural_ops"] = record_structural_ops(golden["fixtures"])
    golden["pool_n7"] = record_pool(7)
    golden["pool_n8"] = record_pool(8)
    golden["verify"] = record_verify()
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {wl.GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
