import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import beireg
from beireg import graphs as gr

from helpers import (brute_canonical_form, brute_is_chordal,
                     brute_longest_induced_path, brute_maximal_cliques,
                     clique_closure, is_simplicial, relabel, splits_at)


def bowtie():
    return gr.Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            gr.Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            gr.Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gr.Graph.from_edges(3, [(0, 3)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            gr.Graph(2, (frozenset({1}), frozenset()))


class TestComponents:
    def test_triangle_plus_isolated(self):
        g = gr.disjoint_union(gr.complete_graph(3), gr.empty_graph(1))
        assert gr.components(g) == [(0, 1, 2), (3,)]

    def test_path_is_one_component(self):
        assert gr.components(gr.path_graph(4)) == [(0, 1, 2, 3)]

    def test_empty_graph(self):
        assert gr.components(gr.empty_graph(0)) == []


class TestInducedSubgraph:
    def test_cycle_restriction_is_path(self):
        sub, old = gr.induced_subgraph(gr.cycle_graph(4), [0, 1, 2])
        assert old == (0, 1, 2)
        assert sub.edges() == [(0, 1), (1, 2)]

    def test_identity(self):
        g = bowtie()
        sub, _ = gr.induced_subgraph(g, range(g.n))
        assert sub.edges() == g.edges()

    def test_path_part_of_cl_fixture(self, cl_borderline):
        sub, _ = gr.induced_subgraph(cl_borderline, range(8))
        assert sub.edges() == gr.path_graph(8).edges()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gr.induced_subgraph(gr.path_graph(3), [0, 5])


class TestComponentGraphs:
    def test_connected_graph_is_its_own_view(self, cl_example):
        assert gr.component_graphs(cl_example) == [
            (cl_example, tuple(range(cl_example.n)))]
        assert gr.component_graphs(cl_example)[0][0] is cl_example

    def test_labelled_disconnected_graph(self):
        g = gr.Graph.from_edges(6, [(0, 3), (3, 5), (1, 4)],
                                labels=["a", "b", "c", "d", "e", "f"])
        view = gr.component_graphs(g)
        assert [old_ids for _, old_ids in view] == gr.components(g)
        for sub, old_ids in view:
            assert (sub, old_ids) == gr.induced_subgraph(g, old_ids)
        assert [sub.labels for sub, _ in view] == [
            ("a", "d", "f"), ("b", "e"), ("c",)]

    def test_empty_graph_has_no_components(self):
        assert gr.component_graphs(gr.empty_graph(0)) == []

    def test_view_is_built_once(self):
        g = gr.disjoint_union(gr.path_graph(3), gr.complete_graph(2))
        first, second = gr.component_graphs(g), gr.component_graphs(g)
        assert first == second
        assert all(a[0] is b[0] for a, b in zip(first, second))


class TestCachedLists:
    """The per-graph caches and the enumeration cache hand out copies."""

    def test_mutating_a_result_leaves_the_next_call_alone(self):
        g = gr.disjoint_union(bowtie(), gr.path_graph(2))
        for fn in (gr.component_graphs, gr.maximal_cliques, gr.components,
                   lambda g: gr.enumerate_graphs(4)):
            before = fn(g)
            fn(g).clear()
            returned = fn(g)
            returned.append(None)
            assert fn(g) == before


class TestLongestInducedPath:
    def test_path(self):
        assert gr.longest_induced_path(gr.path_graph(5)) == (4, (0, 1, 2, 3, 4))

    def test_c4(self):
        assert gr.longest_induced_path(gr.cycle_graph(4))[0] == 2

    def test_cl_fixture(self, cl_borderline):
        length, path = gr.longest_induced_path(cl_borderline)
        assert length == 7
        assert path == tuple(range(8))

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            gr.longest_induced_path(gr.empty_graph(2))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = gr.Graph.from_edges(n, edges)
            if not gr.is_connected(g) or g.n == 0:
                continue
            assert gr.longest_induced_path(g) == brute_longest_induced_path(g)

    def test_result_is_induced(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = gr.Graph.from_edges(n, edges)
            if not gr.is_connected(g):
                continue
            _, path = gr.longest_induced_path(g)
            for i, a in enumerate(path):
                for j in range(i + 1, len(path)):
                    assert g.has_edge(a, path[j]) == (j == i + 1)


class TestEll:
    def test_edge_plus_isolated(self):
        g = gr.disjoint_union(gr.complete_graph(2), gr.empty_graph(1))
        assert gr.ell(g) == 1

    def test_two_paths(self):
        assert gr.ell(gr.disjoint_union(gr.path_graph(4), gr.path_graph(3))) == 5

    def test_wl_fixture(self, wl_example):
        assert gr.ell(wl_example) == 8

    def test_additive_over_disjoint_union(self):
        rng = random.Random(3)
        for _ in range(20):
            gs = []
            for _ in range(2):
                n = rng.randint(1, 5)
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.5]
                gs.append(gr.Graph.from_edges(n, edges))
            assert gr.ell(gr.disjoint_union(*gs)) == sum(gr.ell(g) for g in gs)


class TestMaximalCliques:
    def test_complete(self):
        assert gr.maximal_cliques(gr.complete_graph(4)) == [(0, 1, 2, 3)]

    def test_c4_gives_edges(self):
        assert gr.maximal_cliques(gr.cycle_graph(4)) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_cl_fixture_has_eight(self, cl_borderline):
        # the borderline fixture misses ell = c by exactly this extra clique
        cliques = gr.maximal_cliques(cl_borderline)
        assert len(cliques) == 8
        assert (5, 8, 9) in cliques

    def test_cl_example_has_seven(self, cl_example):
        assert len(gr.maximal_cliques(cl_example)) == 7

    def test_isolated_vertex_is_singleton(self):
        g = gr.disjoint_union(gr.complete_graph(2), gr.empty_graph(1))
        assert (2,) in gr.maximal_cliques(g)

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = gr.Graph.from_edges(n, edges)
            assert gr.maximal_cliques(g) == brute_maximal_cliques(g)

    def test_every_edge_covered(self):
        for g in gr.enumerate_graphs(5):
            cliques = gr.maximal_cliques(g)
            for u, v in g.edges():
                assert any(u in c and v in c for c in cliques)


class TestCliqueNumber:
    def test_complete(self):
        assert gr.clique_number(gr.complete_graph(6)) == 6

    def test_wl_fixture(self, wl_example):
        assert gr.clique_number(wl_example) == 6

    def test_path(self):
        assert gr.clique_number(gr.path_graph(5)) == 2

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            gr.clique_number(gr.empty_graph(0))


class TestChordal:
    def test_c4(self):
        assert not gr.is_chordal(gr.cycle_graph(4))

    def test_tree(self):
        tree = gr.Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert gr.is_chordal(tree)

    def test_cl_fixture_not_chordal(self, cl_borderline):
        assert not gr.is_chordal(cl_borderline)

    def test_matches_induced_cycle_search(self):
        for n in range(1, 7):
            for g in gr.enumerate_graphs(n):
                assert gr.is_chordal(g) == brute_is_chordal(g), g.edges()


class TestSimplicial:
    def test_path_leaf(self):
        assert is_simplicial(gr.path_graph(4), 0)

    def test_star_center(self):
        assert not is_simplicial(gr.star_graph(3), 0)

    def test_bowtie_apex(self):
        assert not is_simplicial(bowtie(), 0)


class TestSplits:
    def test_bowtie(self):
        parts = splits_at(bowtie(), 0)
        assert parts == [(0, 1, 2), (0, 3, 4)]
        assert set(parts[0]) & set(parts[1]) == {0}

    def test_leaf_raises(self):
        with pytest.raises(ValueError):
            splits_at(gr.path_graph(4), 0)

    def test_star_center_has_three(self):
        assert len(splits_at(gr.star_graph(3), 0)) == 3


class TestCliqueMembership:
    """The structural solver reads simplicial and gluing vertices from the
    number of maximal cliques through a vertex; pin both equivalences."""

    def test_simplicial_iff_in_one_clique(self):
        for n in range(1, 7):
            for g in gr.enumerate_graphs(n):
                cliques = gr.maximal_cliques(g)
                for v in range(g.n):
                    inside = sum(v in c for c in cliques)
                    assert is_simplicial(g, v) == (inside == 1), g.edges()

    def test_gluing_vertex_iff_cut_vertex_in_two_cliques(self):
        for n in range(2, 7):
            for g in gr.enumerate_graphs(n, connected_only=True):
                cliques = gr.maximal_cliques(g)
                for v in range(g.n):
                    try:
                        split = splits_at(g, v)
                    except ValueError:
                        split = None
                    glues = split is not None and len(split) == 2 and all(
                        is_simplicial(sub, ids.index(v)) for sub, ids in
                        (gr.induced_subgraph(g, part) for part in split))
                    inside = sum(v in c for c in cliques)
                    assert glues == (inside == 2 and split is not None), \
                        g.edges()


class TestCliqueClosure:
    def test_star_center_becomes_complete(self):
        closed = clique_closure(gr.star_graph(3), 0)
        assert closed.edges() == gr.complete_graph(4).edges()

    def test_simplicial_vertex_unchanged(self):
        g = gr.path_graph(4)
        assert clique_closure(g, 0).edges() == g.edges()

    def test_fixpoint_iff_simplicial(self):
        for g in gr.enumerate_graphs(5):
            for v in range(g.n):
                unchanged = clique_closure(g, v).edges() == g.edges()
                assert unchanged == is_simplicial(g, v)


class TestMaskKernels:
    def test_components_cliques_and_induced_masks_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(41)
        graphs = [g for n in range(1, 7) for g in gr.enumerate_graphs(n)]
        for _ in range(200):
            n, p = rng.randint(1, 12), rng.random()
            graphs.append(gr.Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < p]))
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            nb = g.neighbor_masks()
            comps = gr.component_masks(nb, (1 << g.n) - 1)
            assert {gr.bits(c) for c in comps} == {
                tuple(sorted(c)) for c in nx.connected_components(h)}
            assert {gr.bits(c) for c in gr.clique_masks(nb)} == {
                tuple(sorted(c)) for c in nx.find_cliques(h)}
            keep = rng.getrandbits(g.n)
            sub = nx.convert_node_labels_to_integers(
                h.subgraph(gr.bits(keep)), ordering="sorted")
            assert gr.induced_masks(nb, keep) == tuple(
                sum(1 << u for u in sub[v]) for v in range(len(sub)))


class TestCanonicalForm:
    def test_relabeled_path_equal(self):
        p = gr.path_graph(3)
        q = gr.Graph.from_edges(3, [(0, 1), (0, 2)])  # center at 0
        assert gr.canonical_form(p) == gr.canonical_form(q)

    def test_path_vs_triangle_differ(self):
        assert gr.canonical_form(gr.path_graph(3)) != gr.canonical_form(gr.complete_graph(3))

    def test_eleven_classes_on_four_vertices(self):
        forms = set()
        for mask in range(1 << 6):
            pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            forms.add(gr.canonical_form(gr.Graph.from_edges(4, edges)))
        assert len(forms) == 11

    def test_permutation_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = gr.Graph.from_edges(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            assert gr.canonical_form(relabel(g, perm)) == gr.canonical_form(g)

    def test_gate(self):
        with pytest.raises(ValueError):
            gr.canonical_form(gr.empty_graph(9))

    def test_wraps_the_mask_code(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(0, 8)
            g = gr.Graph.from_edges(n, [(u, v) for u in range(n)
                                        for v in range(u + 1, n)
                                        if rng.random() < 0.5])
            assert gr.canonical_form(g) == gr._canonical_code(g.neighbor_masks())

    def test_brute_force_bytes_small_classes(self):
        rng = random.Random(29)
        for n in range(7):
            for g in gr.enumerate_graphs(n):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    h = relabel(g, perm)
                    assert gr.canonical_form(h) == brute_canonical_form(h)

    @pytest.mark.parametrize("n, count", [(7, 30), (8, 8)])
    def test_brute_force_bytes_random(self, n, count):
        rng = random.Random(31 + n)
        for _ in range(count):
            p = rng.random()
            g = gr.Graph.from_edges(n, [(u, v) for u in range(n)
                                        for v in range(u + 1, n) if rng.random() < p])
            assert gr.canonical_form(g) == brute_canonical_form(g)

    @pytest.mark.parametrize("g", [
        gr.complete_graph(8),
        gr.empty_graph(8),
        gr.cycle_graph(8),
        gr.Graph.from_edges(8, [(u, u | 1 << b) for u in range(8) for b in range(3)
                                if not u >> b & 1]),
        gr.Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)]),
    ], ids=["K8", "empty8", "C8", "Q3", "K44"])
    def test_brute_force_bytes_symmetric(self, g):
        assert gr.canonical_form(g) == brute_canonical_form(g)


class TestEnumeration:
    def test_known_counts(self):
        assert len(gr.enumerate_graphs(1)) == 1
        assert len(gr.enumerate_graphs(4)) == 11
        assert len(gr.enumerate_graphs(4, connected_only=True)) == 6
        assert len(gr.enumerate_graphs(5)) == 34

    def test_gate(self):
        with pytest.raises(ValueError):
            gr.enumerate_graphs(8)

    def test_deterministic(self):
        first = [g.edges() for g in gr.enumerate_graphs(4)]
        second = [g.edges() for g in gr.enumerate_graphs(4)]
        assert first == second

    def test_representatives_and_order_pinned(self):
        # recorded when enumeration still built a Graph for every candidate
        listing = [(g.n, g.edges()) for n in range(1, 8)
                   for g in gr.enumerate_graphs(n)]
        assert hashlib.sha256(repr(listing).encode()).hexdigest() == (
            "dc95a6ad937f7d1cc052402c52d7a57fbd9eff001f2c67bf525b6df7bd14ebf8")

    def test_seven_vertices_match_graph_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
        expected = {gr.canonical_form(gr.Graph.from_edges(7, list(h.edges())))
                    for h in atlas}
        graphs = gr.enumerate_graphs(7)
        assert len(graphs) == len(atlas) == 1044
        assert {gr.canonical_form(g) for g in graphs} == expected
        assert len(gr.enumerate_graphs(7, connected_only=True)) == 853
        assert sum(nx.is_connected(h) for h in atlas) == 853


def test_import_leaves_numpy_out():
    src = str(Path(beireg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c",
                    "import beireg, sys; assert 'numpy' not in sys.modules"],
                   env=dict(os.environ, PYTHONPATH=path), check=True)


class TestInvariants:
    def test_ell_at_most_clique_count_with_edges(self):
        for n in range(2, 7):
            for g in gr.enumerate_graphs(n):
                comps = gr.components(g)
                subs = [gr.induced_subgraph(g, c)[0] for c in comps]
                if all(s.edge_count() > 0 for s in subs):
                    inv = gr.invariants(g)
                    assert inv.ell <= inv.clique_count
