import json

import pytest

from beireg import cli
from beireg import graphs as gr
from beireg import regularity as rg
from beireg import verification as vf


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        assert "connected" in err

    def test_sig(self, capsys, tmp_path):
        f = tmp_path / "cat.edges"
        f.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n1 5\n2 5\n")
        code, out, _ = run(capsys, "recognize", "sig", str(f))
        assert code == 0
        assert json.loads(out)["recognized"] is True


class TestGen:
    def test_lrc_with_verify(self, capsys):
        code, out, _ = run(capsys, "gen", "lrc", "2", "3", "5", "--verify")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 9
        assert data["labels"][0] == "v"

    def test_lrw_degenerate(self, capsys):
        code, out, _ = run(capsys, "gen", "lrw", "3", "3", "3")
        assert code == 0
        assert json.loads(out)["edges"] == [[0, 1], [1, 2], [2, 3]]

    def test_impossible_request(self, capsys):
        code, _, err = run(capsys, "gen", "lrw", "2", "3", "3")
        assert code == 2
        assert "open question" in err


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

    @pytest.mark.parametrize("max_n", ["0", "-1", "8", "9"])
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

    def test_fault_injection_detected(self):
        # harness self-test: a corrupted ground truth must surface as
        # counterexamples, not silent passes
        report = vf.run_verification(max_n=4, oracle=lambda g: 0)
        assert not report.all_passed
        failing = [name for name, tally in report.checks.items() if tally.failed]
        assert "bounds" in failing
        for name in failing:
            assert report.checks[name].counterexamples

    def test_check_one_builds_each_basis_once(self, monkeypatch):
        # the squarefree check reads the ideals the oracle has just built
        built = []
        real = rg.lex_groebner
        monkeypatch.setattr(rg, "lex_groebner",
                            lambda g: built.append(g) or real(g))
        monkeypatch.setattr(rg, "_oracle_memo", {})
        rg._initial_ideal.cache_clear()
        g = gr.disjoint_union(gr.cycle_graph(4), gr.path_graph(3))
        assert all(vf.check_one(g).values())
        assert len(built) == 2

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
                           "--max-omega", "5")
        assert code == 1
        assert "gate" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["bogus"]) == 1

    def test_missing_file(self, capsys):
        assert cli.main(["invariants", "/nonexistent/file"]) == 1

    @pytest.mark.parametrize("argv", [("reg", "C4", "--method", "oracle"),
                                      ("reg", "C4", "--method", "structural"),
                                      ("verify", "--max-n", "2")])
    @pytest.mark.parametrize("raw", ["x", "-1", "2.5"])
    def test_malformed_oracle_gate_env(self, capsys, monkeypatch, tmp_path,
                                       argv, raw):
        c4 = tmp_path / "c4.edges"
        c4.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        monkeypatch.setenv(rg.ORACLE_MAX_N_ENV, raw)
        code, out, err = run(capsys, *[str(c4) if a == "C4" else a for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert rg.ORACLE_MAX_N_ENV in err
