"""Every value recorded in the benchmark's golden file, replayed.

The benchmark (`perfbench/`) checks each operation it times against
`perfbench/golden.json` with the comparisons of `perfbench/workloads.py`.
These tests make the same comparisons on every recorded value, not only on
a seed's draw, so a change to a result's shape or value fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from beireg import graphs as gr
from beireg import regularity as rg
from beireg import verification as vf

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def wl():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden(wl):
    return wl.load_golden()


def test_structural_ops(wl, golden):
    expected = golden["structural_ops"]
    ops = wl.deterministic_structural_ops(golden["fixtures"])
    assert sorted(name for name, _ in ops) == sorted(expected)
    problems = [(name, wl.equals(expected[name])(call())) for name, call in ops]
    assert [p for p in problems if p[1] is not None] == []


def test_pool_n8_structural_intervals(wl, golden):
    problems = []
    for entry in golden["pool_n8"]:
        check = wl.inside(entry["structural"], entry["oracle"])
        problem = check(rg.reg(wl._graph(gr, entry), method="structural"))
        if problem is not None:
            problems.append((entry["id"], problem))
    assert problems == []


@pytest.mark.parametrize("pool", ["pool_n7", "pool_n8"])
def test_pool_oracle_values(wl, golden, pool):
    problems = []
    for entry in golden[pool]:
        report = rg.reg(wl._graph(gr, entry), method="oracle")
        problem = wl.exact(entry["oracle"])(report)
        if problem is not None:
            problems.append((entry["id"], problem))
    assert problems == []


def test_verify_n6(golden):
    expected = golden["verify"]["6"]
    got = vf.run_verification(max_n=6, jobs=1).to_jsonable()
    assert {name: c["pass"] for name, c in got["checks"].items()} == expected["pass"]
    assert sum(got["graphCounts"].values()) == expected["classes"]
    assert got["allPassed"] is expected["allPassed"]
