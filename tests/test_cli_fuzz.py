"""Property tests of the CLI contract: whatever the input file holds, the
graph commands exit 0, 1 or 2, raise nothing, and write at most one line
to stderr; so do gen, verify, search-l2 and reg on the fixtures, whatever
their integer arguments and flags.

Generated vertex counts, and gen's last argument, are either at most 7 or
past formats.MAX_VERTICES, up to 10^30: the parsers and the generators
refuse a graph past the limit before allocating anything for it.  A raw
byte string holds at most one decimal digit, since a count of a few
hundred or thousand vertices is a valid graph whose answers take seconds,
not a test of the contract.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beireg import cli
from beireg.formats import MAX_VERTICES
from conftest import FIXTURES

SMALL_INT = st.integers(-2, 8)
COUNT = st.one_of(st.integers(0, 7), st.integers(MAX_VERTICES + 1, 10**30))
# gen's clique count or n - omega + 1, which bounds its vertex count below
GEN_BOUND = st.one_of(st.integers(-2, 7),
                      st.integers(MAX_VERTICES + 1, 10**30))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.floats(-2, 8), st.lists(SMALL_INT, max_size=3))

EDGELIST_TEXT = st.builds(
    lambda header, lines: "\n".join([header] + lines) + "\n",
    st.one_of(COUNT.map(lambda k: f"n {k}"),
              st.sampled_from(["", "n", "n x", "m 3", "n 3 4", "n -1",
                               "n ²", "# comment"])),
    st.lists(st.lists(st.one_of(SMALL_INT.map(str),
                                st.sampled_from(["x", "1.0", "²", "#"])),
                      max_size=3).map(" ".join),
             max_size=8))

GRAPH_JSON = st.fixed_dictionaries(
    {"n": st.one_of(st.just(-1), COUNT, JUNK),
     "edges": st.one_of(
         st.lists(st.one_of(st.lists(st.one_of(SMALL_INT, JUNK), max_size=3),
                            JUNK),
                  max_size=8),
         JUNK)},
    optional={"labels": st.one_of(
        st.lists(st.one_of(st.text(max_size=2), SMALL_INT), max_size=8),
        JUNK)})

JSON_TEXT = st.one_of(GRAPH_JSON, JUNK).map(json.dumps)


def _one_digit_at_most(raw):
    return sum(ch.isdecimal() for ch in raw.decode("utf-8", "replace")) <= 1


FILE_BYTES = st.one_of(EDGELIST_TEXT.map(str.encode),
                       JSON_TEXT.map(str.encode),
                       st.binary(max_size=12).filter(_one_digit_at_most))

COMMANDS = st.sampled_from([
    ["invariants"],
    ["recognize", "cl"],
    ["recognize", "wl"],
    ["recognize", "sig"],
    ["reg", "--method", "structural"],
])

FORMAT = st.sampled_from([[], ["--format", "edgelist"], ["--format", "json"]])


@settings(database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=FILE_BYTES, command=COMMANDS, fmt=FORMAT)
def test_graph_commands_keep_the_exit_contract(tmp_path_factory, raw,
                                               command, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz.graph"
    path.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command + [str(path)] + fmt)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1


def _ints(low, high, count):
    return st.lists(st.integers(low, high), min_size=count,
                    max_size=count).map(lambda xs: [str(x) for x in xs])


# --jobs never exceeds 1, so no process pool is started; --budget stays at
# or below 3, because the structural recursion is exponential in it
PARAMETER_ARGV = st.one_of(
    _ints(-2, 8, 3).map(
        lambda v: ["search-l2", "--r", v[0], "--wbar", v[1],
                   "--max-omega", v[2]]),
    st.builds(lambda kind, v, bound, compact: ["gen", kind] + v + [str(bound)]
              + compact,
              st.sampled_from(["lrc", "lrw"]), _ints(-2, 7, 2), GEN_BOUND,
              st.sampled_from([[], ["--compact"]])),
    st.builds(lambda k, connected: ["verify", "--max-n", str(k)] + connected,
              st.integers(-1, 3), st.sampled_from([[], ["--connected-only"]])),
    st.builds(lambda path, method, b, k: ["reg", str(path), "--method", method,
                                          "--budget", str(b),
                                          "--oracle-max-n", str(k)],
              st.sampled_from(sorted(FIXTURES.iterdir())),
              st.sampled_from(["auto", "structural", "oracle"]),
              st.integers(-2, 3), st.integers(-2, 12)),
    st.builds(lambda k, j: ["verify", "--max-n", str(k), "--jobs", str(j)],
              st.integers(-1, 3), st.integers(-2, 1)),
)


@settings(database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=PARAMETER_ARGV)
def test_parameter_commands_keep_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
