"""One benchmark pass in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py <spawn time> <workload> <seed> <trace 0|1>
                                [--smoke] [--golden PATH] [--spans PATH]
    python3 perfbench/worker.py <spawn time> --setup-only

<spawn time> is the parent's `time.perf_counter()` just before it started
this process; on Linux that clock is shared between processes, so setup_s
covers interpreter start-up plus `import beireg`.  The pass runs the
workload's whole input set once, in this one thread (plus the probe rounds
below), and prints one JSON object on its last line.  Its timings are
scaled by the speed of the reference kernel timed all through the pass
(calibrate.py); the raw `setup_s` and `wall_s` are printed beside them.
"""

import sys
import time

if __name__ == "__main__":
    SPAWNED = float(sys.argv[1])
    import beireg  # noqa: F401
    SETUP_S = time.perf_counter() - SPAWNED

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MAX_ERRORS_SHOWN = 5
# The machine's speed swings up to 2x within seconds, and the structural
# median falls on millisecond calls, which see one instant of it.  So a
# repeatable operation whose call took less than REPEAT_BELOW_S is timed
# PROBE_ROUNDS times more in probe rounds, and its item is the median of its
# scaled timings.  A round runs at least every PROBE_EVERY_S during the
# pass, and the rounds after the pass bring every such operation to
# PROBE_ROUNDS, so the number of timings does not depend on the program's
# speed.  wall_s leaves the probe rounds out.
REPEAT_BELOW_S = 0.25
PROBE_EVERY_S = 1.0
PROBE_ROUNDS = 12


def probe(ops, items, outcomes, extra, rounds, meter):
    """Time once more each cheap repeatable operation already run that has
    fewer than `rounds` extra timings."""
    for i, (op, (_, problem)) in enumerate(zip(ops, outcomes)):
        if (op.repeat and problem is None and items[i] < REPEAT_BELOW_S
                and len(extra.setdefault(i, [])) < rounds):
            t0 = meter.clock()
            op.call()
            extra[i].append((t0, meter.clock()))
            meter.tick()


def run_ops(ops, tracer, meter):
    """Time each operation on the meter's clock, then check the results
    outside the timing; returns (wall, scaled wall, items, failed, errors),
    the items scaled.  The meter's kernel runs after every timing."""
    items, spans, outcomes, extra = [], [], [], {}
    pauses = []
    started = last_probe = meter.clock()
    for i, op in enumerate(ops):
        t0 = meter.clock()
        try:
            if tracer is None:
                outcomes.append((op.call(), None))
            else:
                tracer.op_id = i
                outcomes.append((tracer.call(tracing.OP, op.call), None))
        except Exception as exc:  # an operation that raises counts as failed
            outcomes.append((None, f"raised {type(exc).__name__}: {exc}"))
        t1 = meter.clock()
        spans.append((t0, t1))
        items.append(t1 - t0)
        meter.tick()
        if tracer is None and t1 - last_probe >= PROBE_EVERY_S:
            probe(ops, items, outcomes, extra, PROBE_ROUNDS - 1, meter)
            last_probe = meter.clock()
            pauses.append((t1, last_probe))
    ended = meter.clock()
    wall = ended - started - sum(b - a for a, b in pauses)
    if tracer is None:
        for _ in range(PROBE_ROUNDS):
            probe(ops, items, outcomes, extra, PROBE_ROUNDS, meter)
    scaled_wall = (meter.scaled(started, ended)
                   - sum(meter.scaled(*pause) for pause in pauses))
    items = [statistics.median(meter.scaled(*span)
                               for span in [spans[i]] + extra.get(i, []))
             for i in range(len(spans))]
    errors = []
    for op, (result, problem) in zip(ops, outcomes):
        problem = problem or op.check(result)
        if problem is not None:
            errors.append(f"{op.name}: {problem}")
    return wall, scaled_wall, items, len(errors), errors


def run_verify(golden, smoke, tracer, meter):
    """run_verification with check_one timed from outside on the meter's
    clock: one item per class, the meter's kernel run after each.  Returns
    (wall, scaled wall, items, failed, errors, extra), the items scaled."""
    from beireg import verification as vf

    expected = wl.verify_golden(golden, smoke)
    spans, errors = [], []
    failed = 0
    check_one = vf.check_one

    def timed_check_one(g, oracle=None):
        nonlocal failed
        if tracer is not None:
            tracer.op_id = len(spans)
        t0 = meter.clock()
        try:
            results = check_one(g, oracle=oracle)
        except Exception:
            failed += 1
            raise
        finally:
            spans.append((t0, meter.clock()))
            meter.tick()
        bad = sorted(k for k, ok in results.items() if not ok)
        if bad:
            failed += 1
            errors.append(f"class {g.edges()}: {bad} failed")
        return results

    vf.check_one = timed_check_one
    started = meter.clock()
    try:
        report = vf.run_verification(max_n=wl.verify_max_n(smoke), jobs=1)
    except Exception as exc:  # the classes not reached count as failed
        errors.append(f"run_verification raised {type(exc).__name__}: {exc}")
        report = None
    finally:
        ended = meter.clock()
        vf.check_one = check_one
    items = [meter.scaled(*span) for span in spans]
    failed += max(0, expected["classes"] - len(items))
    extra = {}
    if report is not None:
        got = report.to_jsonable()
        extra = {"allPassed": got["allPassed"],
                 "classes": sum(got["graphCounts"].values())}
        passes = {name: c["pass"] for name, c in got["checks"].items()}
        if (passes != expected["pass"] or extra["classes"] != expected["classes"]
                or extra["allPassed"] != expected["allPassed"]):
            errors.append(f"report {extra} {passes} differs from golden")
            failed = max(failed, 1)
    return (ended - started, meter.scaled(started, ended), items, failed,
            errors, extra)


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", nargs="?", choices=wl.NAMES)
    parser.add_argument("seed", nargs="?", type=int)
    parser.add_argument("trace", nargs="?", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--golden", default=str(wl.GOLDEN_PATH))
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    meter = calibrate.Meter()  # times MIN_UNITS kernel units at once
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S * meter.start_scale,
                          "raw_setup_s": SETUP_S}))
        return

    golden = wl.load_golden(args.golden)
    tracer = tracing.Tracer(meter.clock) if args.trace else None
    meter.sample()
    if args.workload == "verify-n6":
        if tracer is not None:
            tracer.install()
        wall, scaled_wall, items, failed, errors, extra = run_verify(
            golden, args.smoke, tracer, meter)
        attempted = max(len(items), wl.verify_golden(golden, args.smoke)["classes"])
    else:
        ops = wl.build(args.workload, golden, args.seed, args.smoke)
        if tracer is not None:
            tracer.install()
        wall, scaled_wall, items, failed, errors = run_ops(ops, tracer,
                                                          meter)
        attempted, extra = len(ops), {}
    meter.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = scaled_wall / wall if wall > 0 else meter.start_scale
    out = {"setup_s": SETUP_S * meter.start_scale, "wall_s": scaled_wall,
           "items": items, "raw_setup_s": SETUP_S,
           "raw_wall_s": wall, "unit_s": calibrate.UNIT_S / scale,
           "attempted": attempted, "failed": failed,
           "errors": errors[:MAX_ERRORS_SHOWN], "peak_rss_mb": peak_kib / 1024,
           "extra": extra}
    if tracer is not None:
        tracer.uninstall()
        # self times on the pass's mean speed
        out["layers"] = {name: value * scale if name.endswith("_s") else value
                         for name, value in tracer.metrics().items()}
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[2:])
