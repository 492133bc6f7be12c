"""Tests of the benchmark itself: smoke-sized runs of every workload, the
golden-value gate, the traced call counts, and BENCHMARK.json's metric
lists.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def smoke(workload, trace=0, golden=None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "0.1",
            "--trace", str(trace), "--smoke"]
    if golden is not None:
        args += ["--golden", str(golden)]
    return bench(*args)


@pytest.mark.parametrize("workload", wl.NAMES)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    out = result(smoke(workload))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(out["metrics"]) == names
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload, used, bypassed", [
    ("structural", "witnesses.gen_lrc",
     ("hochster.hochster_regularity", "groebner.lex_groebner")),
    ("oracle-n8", "hochster.hochster_regularity",
     ("regularity.structural_reg",)),
])
def test_traced_smoke_run_reports_every_per_layer_metric(workload, used,
                                                         bypassed):
    out = result(smoke(workload, trace=1))
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert out["metrics"][f"{used}.calls"]["value"] > 0
    for fn in bypassed:
        assert out["metrics"][f"{fn}.calls"]["value"] == 0


def corrupt(tmp_path, edit):
    golden = wl.load_golden()
    edit(golden)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    return path


@pytest.mark.parametrize("workload, edit", [
    ("structural", lambda g: g["structural_ops"]["gen_lrc(1, 1, 2)"].update(n=9)),
    ("oracle-n8", lambda g: [e.update(oracle=e["oracle"] + 1)
                             for e in g["pool_n7"]]),
    ("verify-n6", lambda g: g["verify"][str(wl.SMOKE_VERIFY_MAX_N)]["pass"]
     .update(bounds=0)),
])
def test_wrong_golden_value_counts_as_an_error(tmp_path, workload, edit):
    out = result(smoke(workload, golden=corrupt(tmp_path, edit)))
    assert not out["correct"]
    assert out["failed"] >= 1


COUNT_SCRIPT = """
import cProfile, json, pstats, sys
import tracing
from beireg import graphs as gr, regularity as rg, verification as vf
from beireg import witnesses as wt

def work():
    star = gr.star_graph(3)
    rg.reg(star)                      # structural interval, then the oracle
    vf.check_one(gr.path_graph(4))    # recognition and initial_ideals_of
    wt.gen_lrc(2, 2, 3)
    wt.gen_lrw(3, 3, 3)
    gr.enumerate_graphs(3)

if sys.argv[1] == "trace":
    tracer = tracing.Tracer()
    tracer.install()
    work()
    tracer.uninstall()
    m = tracer.metrics()
    counts = {fn: m[fn + ".calls"] for fn in tracing.FUNCTIONS}
else:
    import importlib
    codes = {}
    for fn in tracing.FUNCTIONS:
        module, name = fn.split(".")
        code = getattr(importlib.import_module("beireg." + module), name).__code__
        codes[(code.co_filename, code.co_firstlineno, code.co_name)] = fn
    profile = cProfile.Profile()
    profile.runcall(work)
    stats = pstats.Stats(profile).stats
    counts = {fn: 0 for fn in tracing.FUNCTIONS}
    for key, (cc, nc, tt, ct, callers) in stats.items():
        if key in codes:
            counts[codes[key]] = nc
print(json.dumps(counts))
"""


def test_traced_call_counts_equal_cprofile_counts():
    env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}")

    def counts(mode):
        done = subprocess.run([sys.executable, "-c", COUNT_SCRIPT, mode],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    traced = counts("trace")
    assert traced == counts("profile")
    assert all(traced[fn] > 0 for fn in tracing.FUNCTIONS)


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.NAMES)
    assert SPEC["end_to_end"][0]["name"] == "setup_s"


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    import run
    items = [float(i) for i in range(1, 101)]
    value, q = run.tail(items)
    assert q == 90 and value == 90.0
    assert sum(t > value for t in items) >= 10


def test_each_operation_counts_once_at_its_median_time_over_the_passes():
    import run
    fast = [float(i) for i in range(1, 58)]
    slow = [2 * t for t in fast]
    passes = [{"setup_s": 0.2, "wall_s": sum(p), "items": p,
               "peak_rss_mb": 40.0, "raw_wall_s": sum(p), "unit_s": 0.005}
              for p in (slow, fast, fast)]
    metrics, notes = run.end_to_end([0.2], passes)
    assert metrics["item_tail_s"][0] == 47.0
    assert notes["tail_percentile"][0] == 82
    assert notes["item_samples"][0] == len(fast)
    assert metrics["wall_s"][0] == sum(fast)


def test_the_pass_count_depends_on_the_arguments_only():
    assert wl.passes("oracle-n8", 30) == 2
    assert wl.passes("structural", 30) == 1
    assert wl.passes("verify-n6", 0.1) == 1


def test_only_cheap_repeatable_operations_are_timed_again():
    import calibrate
    import worker
    calls = {"repeatable": 0, "once": 0}

    def call(name):
        calls[name] += 1
        return name

    ops = [wl.Op("repeatable", lambda: call("repeatable"), lambda r: None,
                 repeat=True),
           wl.Op("once", lambda: call("once"), lambda r: None)]
    wall, scale, items, failed, errors = worker.run_ops(ops, None,
                                                        calibrate.Meter())
    assert calls == {"repeatable": 1 + worker.PROBE_ROUNDS, "once": 1}
    assert len(items) == 2 and failed == 0 and errors == []


def test_the_meter_scales_timings_to_the_nominal_kernel_speed():
    import calibrate
    meter = calibrate.Meter()
    assert len(meter.units) == calibrate.MIN_UNITS
    assert meter.start_scale == pytest.approx(
        calibrate.UNIT_S * calibrate.MIN_UNITS / sum(meter.units))
    assert calibrate.rank(calibrate._matrix()) == 60
    # the clock stops while the kernel runs
    t0 = meter.clock()
    meter.tick()
    assert meter.clock() - t0 < meter.units[-1]
    meter.stamps, meter.units = [0.0, 1.0, 2.0], [0.01, 0.02, 0.04]
    # a timing between two kernel timings is scaled by their mean
    assert meter.scaled(1.1, 1.9) == pytest.approx(
        0.8 * calibrate.UNIT_S / 0.03)
    assert meter.scaled(2.1, 2.5) == pytest.approx(
        0.4 * calibrate.UNIT_S / 0.04)
    # a longer one piece by piece
    assert meter.scaled(0.5, 1.5) == pytest.approx(
        0.5 * calibrate.UNIT_S / 0.015 + 0.5 * calibrate.UNIT_S / 0.03)


def test_the_timer_times_the_kernel_during_a_long_operation():
    import calibrate
    meter = calibrate.Meter()
    meter.sample()
    try:
        t0 = meter.clock()
        while meter.clock() - t0 < 4 * calibrate.EVERY_S:
            pass
        t1 = meter.clock()
    finally:
        meter.stop()
    inside = [t for t in meter.stamps if t0 < t < t1]
    assert len(inside) >= 2


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "structural", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
