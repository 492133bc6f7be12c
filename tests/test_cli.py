import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from beireg import cli
from beireg import graphs as gr
from beireg import recognition as rec
from beireg import regularity as rg
from beireg import verification as vf
from beireg.groebner import NonBinomialError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_c11(tmp_path):
    """The 11-cycle as an edge-list file; its one component needs 22
    polynomial variables, more than the Groebner basis allows."""
    c11 = tmp_path / "c11.edges"
    c11.write_text("n 11\n" + "".join(f"{i} {(i + 1) % 11}\n"
                                      for i in range(11)))
    return c11


class TestInvariants:
    def test_valid_cl_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "invariants", str(fixtures_dir / "cl_example.json"))
        assert code == 0
        data = json.loads(out)
        assert data["ell"] == 7
        assert data["cliqueCount"] == 7
        assert data["bounds"] == {"lo": 7, "hi": 7}

    def test_wl_fixture(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "invariants", str(fixtures_dir / "wl_example.edges"))
        assert code == 0
        data = json.loads(out)
        assert data["ell"] == 8
        assert data["omega"] == 6
        assert data["n"] == 13

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("n 4\n3 3\n")
        code, _, err = run(capsys, "invariants", str(bad))
        assert code == 1
        assert "self-loop" in err and "line 2" in err

    def test_deterministic_output(self, capsys, fixtures_dir):
        path = str(fixtures_dir / "wl_example.json")
        _, out1, _ = run(capsys, "invariants", path)
        _, out2, _ = run(capsys, "invariants", path)
        assert out1 == out2

    def test_edgeless_graph_at_the_vertex_limit(self, capsys, tmp_path):
        # one induced subgraph per isolated vertex: each must cost O(1)
        # big-int steps, not O(n)
        edgeless = tmp_path / "edgeless.edges"
        edgeless.write_text("n 4096\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", str(edgeless))
        assert time.perf_counter() - start < 5
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["components"] == 4096 and data["ell"] == 0


class TestRecognize:
    def test_cl_success(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "recognize", "cl",
                           str(fixtures_dir / "cl_example.json"), "--compact")
        assert code == 0
        data = json.loads(out)
        assert data["components"][0]["family"]["ell"] == 7

    def test_cl_borderline_rejected(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "recognize", "cl",
                           str(fixtures_dir / "cl_borderline.json"))
        assert code == 2
        data = json.loads(out)
        assert data == {"recognized": False, "componentIndex": 0,
                        "ell": 7, "cliqueCount": 8}

    def test_wl_on_c4(self, capsys, tmp_path):
        f = tmp_path / "c4.edges"
        f.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(capsys, "recognize", "wl", str(f))
        assert code == 2
        assert json.loads(out) == {"recognized": False, "ell": 2, "n": 4, "omega": 2}

    def test_wl_disconnected_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "two.edges"
        f.write_text("n 4\n0 1\n2 3\n")
        code, _, err = run(capsys, "recognize", "wl", str(f))
        assert code == 1
        assert err == "error: wl recognition needs a connected graph\n"

    def test_wl_connectivity_is_judged_by_the_recognizer(
            self, capsys, tmp_path, monkeypatch):
        # the CLI reports recognize_wl's ValueError and has no check of its
        # own: a connected graph the recognizer refuses gets the same line
        f = tmp_path / "p3.edges"
        f.write_text("n 3\n0 1\n1 2\n")

        def refuse(g):
            raise ValueError("recognition is defined for connected graphs only")

        monkeypatch.setattr(rec, "recognize_wl", refuse)
        code, out, err = run(capsys, "recognize", "wl", str(f))
        assert (code, out) == (1, "")
        assert err == "error: wl recognition needs a connected graph\n"

    def test_sig(self, capsys, tmp_path):
        f = tmp_path / "cat.edges"
        f.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n1 5\n2 5\n")
        code, out, _ = run(capsys, "recognize", "sig", str(f), "--compact")
        assert code == 0
        assert out == ('{"recognized":true,'
                       '"families":[{"ell":4,"I":[[[2,3]]]}]}\n')


class TestGen:
    def test_lrc_with_verify(self, capsys):
        code, out, _ = run(capsys, "gen", "lrc", "2", "3", "5")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 9
        assert data["labels"][0] == "v"
        # the flag did nothing and is gone: every graph is checked anyway
        code, out, err = run(capsys, "gen", "lrc", "2", "3", "5", "--verify")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_lrw_degenerate(self, capsys):
        code, out, _ = run(capsys, "gen", "lrw", "3", "3", "3")
        assert code == 0
        assert json.loads(out)["edges"] == [[0, 1], [1, 2], [2, 3]]

    def test_impossible_request(self, capsys):
        code, _, err = run(capsys, "gen", "lrw", "2", "3", "3")
        assert code == 2
        assert "open question" in err

    @pytest.mark.parametrize("argv", [("lrc", "1", "1", str(10**20)),
                                      ("lrc", "2", "5", "1000000"),
                                      ("lrw", "3", "3", str(10**20))])
    def test_witness_past_the_vertex_limit_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "above the limit" in err


class TestReg:
    def test_complete(self, capsys, tmp_path):
        f = tmp_path / "k5.edges"
        f.write_text("n 5\n" + "".join(
            f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
        code, out, _ = run(capsys, "reg", str(f))
        assert code == 0
        assert json.loads(out)["value"] == {"exact": 1}

    def test_path(self, capsys, tmp_path):
        f = tmp_path / "p6.edges"
        f.write_text("n 6\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
        code, out, _ = run(capsys, "reg", str(f))
        assert json.loads(out)["value"] == {"exact": 5}

    def test_oracle_method(self, capsys, tmp_path):
        f = tmp_path / "c4.edges"
        f.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(capsys, "reg", str(f), "--method", "oracle")
        data = json.loads(out)
        assert data["value"] == {"exact": 2}
        assert data["method"] == "oracle"

    def test_oracle_gate_is_usage_error(self, capsys, fixtures_dir):
        code, _, err = run(capsys, "reg", str(fixtures_dir / "wl_example.json"),
                           "--method", "oracle")
        assert code == 1
        assert "gate" in err

    @pytest.mark.parametrize("graph, flags, env", [
        ("cl_example.json", ["--method", "oracle", "--oracle-max-n", "11"], None),
        ("c11.edges", ["--method", "oracle", "--oracle-max-n", "11"], None),
        ("c11.edges", ["--method", "oracle"], "11"),
    ])
    def test_oracle_gate_above_groebner_limit_is_usage_error(
            self, capsys, monkeypatch, tmp_path, fixtures_dir, graph, flags,
            env):
        # an 11-vertex component needs 22 polynomial variables, more than
        # the Groebner basis allows, whatever the raised gate says
        if env is not None:
            monkeypatch.setenv(rg.ORACLE_MAX_N_ENV, env)
        path = (fixtures_dir / graph if graph.endswith(".json")
                else write_c11(tmp_path))
        code, out, err = run(capsys, "reg", str(path), *flags)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "gate" in err

    @pytest.mark.parametrize("flags, env", [
        (["--oracle-max-n", "11"], None),
        ([], "11"),
    ])
    def test_auto_above_groebner_limit_reports_interval(
            self, capsys, monkeypatch, tmp_path, flags, env):
        # with the gate raised past the Groebner limit, auto returns the
        # structural interval, as it does under the default gate
        if env is not None:
            monkeypatch.setenv(rg.ORACLE_MAX_N_ENV, env)
        code, out, err = run(capsys, "reg", str(write_c11(tmp_path)), *flags)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["value"] == {"interval": [9, 10]}
        skipped = [t for t in data["trace"] if t["rule"] == "oracle"]
        assert len(skipped) == 1
        assert skipped[0]["detail"].startswith("skipped: ")

    def test_oracle_gate_is_checked_per_component(self, capsys, tmp_path):
        # C6 + C6 has n = 12, but each component needs only 12 variables
        f = tmp_path / "c6c6.edges"
        f.write_text("n 12\n" + "".join(
            f"{k + i} {k + (i + 1) % 6}\n" for k in (0, 6) for i in range(6)))
        code, out, _ = run(capsys, "reg", str(f), "--method", "oracle",
                           "--oracle-max-n", "12")
        assert code == 0
        assert json.loads(out)["value"] == {"exact": 8}

    @pytest.mark.parametrize("budget", ["-5", "-1"])
    def test_negative_budget_is_usage_error(self, capsys, fixtures_dir, budget):
        code, out, err = run(capsys, "reg", str(fixtures_dir / "cl_example.json"),
                             "--budget", budget)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("gate", ["-5", "-1"])
    def test_negative_oracle_gate_is_usage_error(self, capsys, tmp_path, gate):
        c4 = tmp_path / "c4.edges"
        c4.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, err = run(capsys, "reg", str(c4), "--oracle-max-n", gate)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--oracle-max-n" in err

    @pytest.mark.parametrize("edges", ['[[0, "1"]]', "[[0, 1.0]]",
                                       "[[0, true]]", "[[null, 1]]"])
    def test_non_integer_json_endpoint_is_usage_error(self, capsys, tmp_path,
                                                      edges):
        f = tmp_path / "bad.json"
        f.write_text(f'{{"n": 3, "edges": {edges}}}')
        code, out, err = run(capsys, "reg", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("labels", ["5", "[1, 2, 3]", '"abc"', '["a", "b"]'])
    def test_bad_json_labels_are_usage_error(self, capsys, tmp_path, labels):
        f = tmp_path / "bad.json"
        f.write_text(f'{{"n": 3, "edges": [[0, 1]], "labels": {labels}}}')
        code, out, err = run(capsys, "reg", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'labels' must be a list of 3 strings" in err

    def test_top_level_json_array_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("[[0, 1]]\n")
        code, out, err = run(capsys, "reg", str(f))
        assert code == 1 and out == ""
        assert err == "error: graph JSON needs an object with 'n' and 'edges'\n"


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        data = json.loads(out)
        assert data["allPassed"] is True
        assert data["graphCounts"] == {"1": 1, "2": 2, "3": 4, "4": 11}
        assert all(c["fail"] == 0 and c["counterexamples"] == []
                   for c in data["checks"].values())

    @pytest.mark.parametrize("max_n", ["0", "-1", "9"])
    def test_max_n_out_of_range_is_usage_error(self, capsys, max_n):
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "--max-n", "2", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--jobs" in err

    def test_jobs_above_the_cpu_count_is_usage_error(self, capsys,
                                                     monkeypatch):
        # the pool forks all its workers up front, so none may start
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        jobs = (os.cpu_count() or 1) + 1
        code, out, err = run(capsys, "verify", "--max-n", "2",
                             "--jobs", str(jobs))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--jobs" in err
        # the stub stands where run_verification takes its pool from
        with pytest.raises(AssertionError, match="process pool"):
            vf.run_verification(max_n=2, jobs=2)

    def test_cli_import_loads_no_process_pool(self):
        src = str(Path(cli.__file__).parents[1])
        code = ("import sys, beireg.cli; print(sorted({'multiprocessing', "
                "'concurrent.futures'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "[]\n"

    def test_fault_injection_detected(self):
        # harness self-test: a corrupted ground truth must surface as
        # counterexamples, not silent passes
        report = vf.run_verification(max_n=4, oracle=lambda g: 0)
        assert not report.all_passed
        failing = [name for name, tally in report.checks.items() if tally.failed]
        assert "bounds" in failing
        for name in failing:
            assert report.checks[name].counterexamples

    @pytest.mark.parametrize("validator, kind, fails", [
        ("validate_cl_certificate", "cl", 8),
        ("validate_wl_decomposition", "wl", 7),
    ])
    def test_rejected_witness_is_a_counterexample(self, monkeypatch, validator,
                                                  kind, fails):
        # a witness its validator rejects is reported, not raised
        monkeypatch.setattr(rec, validator, lambda g, cert: "boom")
        report = vf.run_verification(max_n=4)
        assert not report.all_passed
        for name in (f"{kind}-roundtrip", f"{kind}-characterization"):
            tally = report.checks[name]
            assert (tally.passed, tally.failed) == (18 - fails, fails)
            assert len(tally.counterexamples) == fails
        assert report.checks["sig-implies-cl"].failed == 0

    def test_check_one_builds_each_basis_once(self, monkeypatch):
        # the squarefree check builds no basis the oracle memo holds, and
        # the oracle has just solved both components
        built = []
        real = rg.lex_groebner
        monkeypatch.setattr(rg, "lex_groebner",
                            lambda g: built.append(g) or real(g))
        monkeypatch.setattr(rg, "_oracle_memo", {})
        g = gr.disjoint_union(gr.cycle_graph(4), gr.path_graph(3))
        assert all(vf.check_one(g).values())
        assert len(built) == 2

    def test_check_one_on_a_labelled_copy_builds_no_basis(self, monkeypatch):
        # the oracle memo keys a component by its masks, not its labels
        built = []
        real = rg.lex_groebner
        monkeypatch.setattr(rg, "lex_groebner",
                            lambda g: built.append(g) or real(g))
        monkeypatch.setattr(rg, "_oracle_memo", {})
        g = gr.path_graph(4)
        assert all(vf.check_one(g).values())
        assert len(built) == 1
        copy = gr.Graph.from_edges(4, g.edges(), "abcd")
        assert all(vf.check_one(copy).values())
        assert len(built) == 1

    def test_failed_certificate_fails_squarefree(self, monkeypatch):
        # an injected oracle writes no memo entry, so the squarefree check
        # builds every basis itself, and a basis failing its certificate
        # makes the class a counterexample
        def uncertified(g):
            raise NonBinomialError("zero-reduction certificate failed")

        monkeypatch.setattr(rg, "_oracle_memo", {})
        monkeypatch.setattr(rg, "lex_groebner", uncertified)
        report = vf.run_verification(max_n=3, oracle=lambda g: 0)
        tally = report.checks["squarefree"]
        assert (tally.passed, tally.failed) == (3, 4)
        assert tally.counterexamples == [
            {"n": g.n, "edges": [list(e) for e in g.edges()]}
            for n in range(1, 4) for g in gr.enumerate_graphs(n)
            if g.edge_count()]

    def test_worker_pool_matches_serial(self):
        serial = vf.run_verification(max_n=4)
        parallel = vf.run_verification(max_n=4, jobs=2)
        assert parallel.all_passed == serial.all_passed
        assert parallel.to_jsonable() == serial.to_jsonable()


class TestSearchL2:
    def test_hits_schema(self, capsys):
        code, out, _ = run(capsys, "search-l2", "--r", "2", "--wbar", "2",
                           "--max-omega", "3")
        assert code == 0
        data = json.loads(out)
        assert data["r"] == 2 and data["wbar"] == 2
        assert len(data["hits"]) == 3  # frozen from an exhaustive run
        for g in data["hits"]:
            assert g["n"] - 1 == max(max(e) for e in g["edges"])

    def test_gate_error(self, capsys):
        code, _, err = run(capsys, "search-l2", "--r", "2", "--wbar", "4",
                           "--max-omega", "6")
        assert code == 1
        assert "gate" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["bogus"]) == 1

    @pytest.mark.parametrize("argv", [
        ("bogus",),
        ("gen", "lrc", "1", "1", "1", "--bogus"),
        ("reg",),
        ("reg", "X", "--budget", "x"),
        ("reg", "X", "--method", "exact"),
    ], ids=["unknown-command", "unknown-flag", "missing-input",
            "non-integer-budget", "bad-method"])
    def test_malformed_command_line_is_one_error_line(self, capsys, argv):
        # argparse's message, without its usage block
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "reg", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: beireg reg")

    def test_missing_file(self, capsys):
        assert cli.main(["invariants", "/nonexistent/file"]) == 1

    def test_directory_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "invariants", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("raw", [b"n 2\n0 1\xff", b"n \xc2\xb2\n"])
    def test_undecodable_or_non_decimal_header_is_usage_error(
            self, capsys, tmp_path, raw):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(raw)
        code, out, err = run(capsys, "invariants", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "n 12\n1_0 3\n", "n 3\n+1 2\n", "n 3\n0 \uff12\n",
        "n \u0663\n0 1\n", "n 3\n\u0660 1\n", "n 1_0\n0 1\n", "n +3\n0 1\n",
        "n " + "1" * 5000 + "\n", "n 3\n0 " + "1" * 5000 + "\n",
        '{"n": ' + "1" * 5000 + ', "edges": []}',
    ], ids=["underscore", "plus-sign", "fullwidth-digit",
            "arabic-indic-count", "arabic-indic-endpoint",
            "underscore-count", "plus-count", "count-past-int-digits",
            "endpoint-past-int-digits", "json-count-past-int-digits"])
    def test_integer_outside_the_format_is_usage_error(self, capsys,
                                                       tmp_path, text):
        bad = tmp_path / "bad.graph"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "invariants", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "n 100000000000000000000\n0 1\n",
        '{"n": 100000000000000000000, "edges": [[0, 1]]}',
    ], ids=["edgelist", "json"])
    def test_huge_vertex_count_is_refused_at_once(self, capsys, tmp_path,
                                                  text):
        huge = tmp_path / "huge.graph"
        huge.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", str(huge))
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("reg", "C4", "--method", "oracle"),
                                      ("reg", "C4", "--method", "structural"),
                                      ("verify", "--max-n", "2")])
    @pytest.mark.parametrize("raw", ["x", "-1", "2.5", "٨", pytest.param(
        "9" * 5000, id="past-the-digit-limit-of-int")])
    def test_malformed_oracle_gate_env(self, capsys, monkeypatch, tmp_path,
                                       argv, raw):
        c4 = tmp_path / "c4.edges"
        c4.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        monkeypatch.setenv(rg.ORACLE_MAX_N_ENV, raw)
        code, out, err = run(capsys, *[str(c4) if a == "C4" else a for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert rg.ORACLE_MAX_N_ENV in err

    # a 1100-vertex path, and the lrc witness whose apex closes a clique of
    # about 1100 vertices: the path DFS and the clique search would go one
    # level deeper per vertex they add, past Python's recursion limit, if
    # they did not keep their own stacks
    @pytest.mark.parametrize("argv, key, value", [
        (("invariants", "P1100"), "ell", 1099),
        (("gen", "lrc", "2", "2", "1100"), "n", 1103)])
    def test_graph_past_the_recursion_limit_is_answered(
            self, capsys, tmp_path, argv, key, value):
        p1100 = tmp_path / "p1100.edges"
        p1100.write_text("n 1100\n" + "".join(f"{i} {i + 1}\n"
                                              for i in range(1099)))
        code, out, err = run(capsys, *[str(p1100) if a == "P1100" else a
                                       for a in argv])
        assert code == 0 and err == ""
        assert json.loads(out)[key] == value

    def test_recursion_error_is_usage_error(self, capsys, monkeypatch,
                                            tmp_path):
        # the structural solver's sub-solves still recurse
        def too_deep(nb, budget):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(rg, "_solve", too_deep)
        c4 = tmp_path / "c4.edges"
        c4.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, err = run(capsys, "reg", str(c4), "--method", "structural")
        assert code == 1 and out == ""
        assert err == ("error: graph too large: "
                       "maximum recursion depth exceeded\n")


class TestOutputPin:
    """Every command's observable output, pinned by one digest: a change
    that alters any byte of stdout or stderr, or any exit code, on these
    invocations changes the digest."""

    FIXTURES = ["cl_borderline.edges", "cl_borderline.json", "cl_example.edges",
                "cl_example.json", "wl_example.edges", "wl_example.json"]
    # sha256 over (argv, exit code, stdout, stderr) of every invocation
    DIGEST = "24b9decb713aa8c9ed87dd6bd7cd815dac31302d29bf2a3be912edbae1d674b9"
    # sha256 of the stdout of `verify --max-n 6 --compact`
    VERIFY_N6 = "4dc8ca8a3e174dc723b8a45a374114b622e1c311b9f614e4cfb1fb8d7bc08a7a"

    def invocations(self):
        for name in self.FIXTURES:
            path = f"fixtures/{name}"
            yield ["invariants", path]
            for kind in ("cl", "wl", "sig"):
                yield ["recognize", kind, path]
            for method in ("auto", "structural", "oracle"):
                yield ["reg", path, "--method", method]
        for kind in ("lrc", "lrw"):
            for ell in range(1, 5):
                for r in range(1, 5):
                    for bound in range(1, 5):
                        yield ["gen", kind, str(ell), str(r), str(bound)]
        yield ["verify", "--max-n", "6", "--compact"]

    def test_cli_output_digest(self, capsys, fixtures_dir):
        digest = hashlib.sha256()
        for argv in self.invocations():
            real = [str(fixtures_dir / a[len("fixtures/"):])
                    if a.startswith("fixtures/") else a for a in argv]
            code, out, err = run(capsys, *real)
            digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        assert hashlib.sha256(out.encode()).hexdigest() == self.VERIFY_N6
        assert digest.hexdigest() == self.DIGEST
