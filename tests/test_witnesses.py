import pytest

from beireg import graphs as gr
from beireg import regularity as rg
from beireg import witnesses as wt

from helpers import clique_closure, is_simplicial, splits_at


# canonical forms (hex) of the hits of search_l2(r, wbar, max_omega), in
# order, as an independent search over every edge pattern around a fixed
# maximum clique found them
SEARCH_L2_REACH = {
    (2, 4, 4): (
        "0512c0 053780 06089e 0608be 0609be 0609d6 060bf6 0619be 0619fc "
        "061bfc 063bf2 063bf6 063dbc 067fbc 070423f8 070427f8 07042ff8 "
        "070467f8 07046ff8 07047b58 0704eff8 0704f6f8 0704ffd8 0705fef8 "
        "070c67f8 070c6ff8 070c7ff0 070ceff8 070cf6f8 070cfff0 070dfef8 "
        "070dfff0 071ceff8 071cffc8 071cffd8 071dffc8 071dffd8 071f3278 "
        "071f76f0 071fffc0 073dfe78 073dfef8 073eefc8 073eefd8 073ffef0 "
        "077fefd8"
    ).split(),
    (2, 5, 3): (
        "060896 0619bc 063bf0 07042278 070422f8 070426f8 07042758 "
        "07042fd8 070466f8 0704efd8 070c66f8 070c67f0 070c6ff0 070ceff0 "
        "070cf6f0 070dfef0 071cefc8 071cefd8 071cffc0 071dffc0 073dfe58 "
        "073dfe60 073dfef0"
    ).split(),
    (2, 6, 2): (
        "07042258 070c66f0 071cefc0"
    ).split(),
    (3, 4, 4): (
        "0619d6 070c7b58 070cb6d8 070dbb58 071cf6f8"
    ).split(),
    (2, 2, 6): (
        "0360 043c 047c 051fc0 053fc0 057fc0 060ffe 061ffe 063ffe 067ffe "
        "0707fff8 070ffff8 071ffff8 073ffff8 077ffff8"
    ).split(),
}


class TestGenLrc:
    def test_two_triangles(self):
        g = wt.gen_lrc(2, 2, 2)
        assert g.n == 5
        assert gr.canonical_form(g) == gr.canonical_form(
            gr.Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]))

    def test_length_one_family(self):
        g = wt.gen_lrc(1, 1, 3)
        assert g.edges() == [(0, 1)]
        assert g.n == 4
        assert len(gr.components(g)) == 3

    def test_3_4_5_instance(self):
        g = wt.gen_lrc(3, 4, 5)
        assert g.n == 9
        assert gr.ell(g) == 3
        assert len(gr.maximal_cliques(g)) == 5
        assert rg.oracle_reg(g, max_n=9) == 4

    def test_vertex_counts(self):
        for ell in range(2, 7):
            for r in range(ell, 7):
                for c in range(r, 7):
                    g = wt.gen_lrc(ell, r, c)
                    if ell == 2:
                        assert g.n == 1 + 2 * r + (c - r)
                    else:
                        assert g.n == 1 + 2 * (r - ell + 2) + (c - r) + (ell - 2)

    def test_labels_deterministic(self):
        g = wt.gen_lrc(2, 3, 5)
        assert g.labels == ("v", "v1", "v1'", "v2", "v2'", "v3", "v3'", "w1", "w2")
        assert wt.gen_lrc(2, 3, 5).edges() == g.edges()

    def test_apex_closure_is_complete(self):
        # closing the apex of a length-2 witness joins all its neighbors
        g = wt.gen_lrc(2, 3, 4)
        closed = clique_closure(g, 0)
        assert closed.edge_count() == g.n * (g.n - 1) // 2
        assert not is_simplicial(g, 0) and is_simplicial(closed, 0)

    def test_length_one_needs_r_one(self):
        with pytest.raises(ValueError):
            wt.gen_lrc(1, 2, 3)

    def test_order_violations(self):
        with pytest.raises(ValueError):
            wt.gen_lrc(3, 2, 4)
        with pytest.raises(ValueError):
            wt.gen_lrc(2, 4, 3)


class TestGenLrw:
    def test_degenerate_is_path(self):
        g = wt.gen_lrw(3, 3, 3)
        assert g.edges() == gr.path_graph(4).edges()

    def test_3_4_5_instance(self):
        g = wt.gen_lrw(3, 4, 5)
        assert g.n == 8
        assert gr.clique_number(g) == 4
        assert g.n - gr.clique_number(g) + 1 == 5
        assert gr.ell(g) == 3
        assert rg.oracle_reg(g, max_n=8) == 4

    def test_pure_path(self):
        g = wt.gen_lrw(4, 4, 4)
        assert g.edges() == gr.path_graph(5).edges()

    def test_vertex_counts(self):
        for ell in range(3, 7):
            for r in range(ell, 7):
                for wbar in range(r, 7):
                    g = wt.gen_lrw(ell, r, wbar)
                    assert g.n == (ell + 1) + 2 * (wbar - r) + 2 * (r - ell)

    def test_length_two_rejected(self):
        with pytest.raises(ValueError) as err:
            wt.gen_lrw(2, 3, 3)
        assert "open question" in str(err.value)

    def test_gluing_split_structure(self):
        # vertex "2" of the (3,4,5) witness splits into the first clique
        # and the rest, both seeing it as a simplicial vertex
        g = wt.gen_lrw(3, 4, 5)
        parts = splits_at(g, 1)
        assert len(parts) == 2
        subs = [gr.induced_subgraph(g, p)[0] for p in parts]
        assert all(is_simplicial(s, p.index(1)) for s, p in zip(subs, parts))
        assert sorted(len(p) for p in parts) == [3, 6]

    def test_order_violation(self):
        with pytest.raises(ValueError):
            wt.gen_lrw(4, 3, 5)


class TestSearchL2:
    def test_trivial_hits_exist(self):
        hits = wt.search_l2(2, 2, 4)
        assert len(hits) == 6  # frozen from an exhaustive run
        for g in hits:
            assert gr.ell(g) == 2
            assert g.n - gr.clique_number(g) + 1 == 2
            assert rg.oracle_reg(g) == 2

    def test_wider_band_hits(self):
        hits = wt.search_l2(2, 3, 4)
        assert len(hits) == 20  # frozen from an exhaustive run
        for g in hits:
            assert gr.ell(g) == 2
            assert g.n - gr.clique_number(g) + 1 == 3
            assert rg.oracle_reg(g) == 2

    @pytest.mark.parametrize("args", list(SEARCH_L2_REACH))
    def test_reach(self, args):
        hits = wt.search_l2(*args)
        assert [gr.canonical_form(g).hex() for g in hits] == SEARCH_L2_REACH[args]

    def test_size_gate(self):
        with pytest.raises(ValueError):
            wt.search_l2(2, 4, 5)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            wt.search_l2(3, 2, 4)

    def test_deterministic(self):
        a = [g.edges() for g in wt.search_l2(2, 2, 3)]
        b = [g.edges() for g in wt.search_l2(2, 2, 3)]
        assert a == b
