import pytest

from beireg import formats as fm
from beireg import graphs as gr
from beireg import recognition as rec
from beireg import regularity as rg


class TestGraphText:
    def test_roundtrip(self):
        g = gr.cycle_graph(4)
        assert fm.parse_graph_text(fm.graph_to_text(g)).edges() == g.edges()

    def test_self_loop_with_line_number(self):
        with pytest.raises(fm.ParseError) as err:
            fm.parse_graph_text("n 4\n0 1\n3 3\n")
        assert "line 3" in str(err.value)
        assert "self-loop" in str(err.value)

    def test_duplicate(self):
        with pytest.raises(fm.ParseError) as err:
            fm.parse_graph_text("n 4\n0 1\n1 0\n")
        assert "duplicate" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_text("0 1\n")

    def test_out_of_range(self):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_text("n 2\n0 5\n")

    def test_comments_and_blanks_skipped(self):
        g = fm.parse_graph_text("# a triangle\nn 3\n\n0 1\n1 2\n0 2\n")
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]


class TestGraphJson:
    def test_roundtrip_with_labels(self):
        g = gr.Graph.from_edges(3, [(0, 1)], labels=["a", "b", "c"])
        text = fm.dumps(fm.graph_to_jsonable(g))
        back = fm.parse_graph_json(text)
        assert back.edges() == g.edges()
        assert back.labels == g.labels

    def test_self_loop(self):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_json('{"n": 3, "edges": [[1, 1]]}')

    def test_duplicate(self):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_json('{"n": 3, "edges": [[0, 1], [1, 0]]}')

    def test_invalid_json(self):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_json("{nope")

    @pytest.mark.parametrize("edge", ['[0, "1"]', "[0, 1.0]", "[1.0, 0]",
                                      "[0, true]", "[false, 1]", "[0, null]",
                                      "[0, [1]]"])
    def test_non_integer_endpoint(self, edge):
        with pytest.raises(fm.ParseError) as err:
            fm.parse_graph_json(f'{{"n": 3, "edges": [{edge}]}}')
        assert "non-integer endpoint" in str(err.value)

    @pytest.mark.parametrize("n", ["true", "2.0", '"3"'])
    def test_non_integer_vertex_count(self, n):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_json(f'{{"n": {n}, "edges": []}}')

    @pytest.mark.parametrize("edges", ["5", "null", '{"0": 1}'])
    def test_edges_not_a_list(self, edges):
        with pytest.raises(fm.ParseError):
            fm.parse_graph_json(f'{{"n": 3, "edges": {edges}}}')

    @pytest.mark.parametrize("labels", ["5", "[1, 2, 3]", '"abc"', '["a", "b"]',
                                        '["a", "b", "c", "d"]', "null",
                                        '{"0": "a"}', '["a", null, "c"]'])
    def test_labels_not_n_strings(self, labels):
        with pytest.raises(fm.ParseError) as err:
            fm.parse_graph_json(f'{{"n": 3, "edges": [[0, 1]], "labels": {labels}}}')
        assert "'labels' must be a list of 3 strings" in str(err.value)

    def test_format_sniffing(self, fixtures_dir):
        a = fm.load_graph(fixtures_dir / "wl_example.json")
        b = fm.load_graph(fixtures_dir / "wl_example.edges")
        assert a.edges() == b.edges()

    def test_top_level_array_sniffed_as_json(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("  [[0, 1]]\n")
        with pytest.raises(fm.ParseError) as err:
            fm.load_graph(f)
        assert "needs an object with 'n' and 'edges'" in str(err.value)


class TestFamilyJson:
    def test_roundtrip(self, cl_example):
        cert = rec.recognize_cl(cl_example)
        data = fm.family_to_jsonable(cert.components[0].family)
        assert data["ell"] == 7
        back = fm.family_from_jsonable(data)
        assert back == cert.components[0].family


class TestCertificateJson:
    def test_roundtrip(self, cl_example):
        cert = rec.recognize_cl(cl_example)
        back = fm.cl_certificate_from_jsonable(fm.cl_certificate_to_jsonable(cert))
        assert back == cert
        assert rec.validate_cl_certificate(cl_example, back) is None


class TestWlJson:
    def test_roundtrip(self, wl_example):
        d = rec.recognize_wl(wl_example)
        data = fm.wl_to_jsonable(d)
        assert data["t"] == 4
        assert data["clique"] == [4, 5, 9, 10, 11, 12]
        back = fm.wl_from_jsonable(data)
        assert back == d


class TestReportJson:
    def test_exact(self):
        data = fm.report_to_jsonable(rg.reg(gr.complete_graph(4)))
        assert data["value"] == {"exact": 1}
        assert data["characteristic"] == 0
        assert "inexact" not in data

    def test_interval_flagged(self):
        g = gr.Graph.from_edges(
            6, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5)])
        data = fm.report_to_jsonable(rg.reg(g, oracle_max_n=5))
        assert data["value"] == {"interval": [3, 4]}
        assert data["inexact"] is True

    def test_trace_schema(self):
        data = fm.report_to_jsonable(rg.reg(gr.path_graph(4)))
        assert all(set(step) == {"rule", "detail"} for step in data["trace"])
