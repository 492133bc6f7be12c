import hashlib
import random
from collections import Counter
from itertools import permutations

import pytest

from beireg import graphs as gr
from beireg import regularity as rg
from beireg.groebner import initial_ideal, lex_groebner
from beireg.hochster import hochster_regularity

from helpers import (clique_closure, is_simplicial, reference_refine,
                     splits_at)


def bowtie():
    return gr.Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


# a 6-vertex class the structural rules cannot close (interval [3, 4])
HARD6 = [(0, 2), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (3, 5)]


class TestBounds:
    def test_valid_cl_showcase(self, cl_example):
        assert rg.bounds(cl_example) == (7, 7)

    def test_borderline_showcase(self, cl_borderline):
        # the extra maximal clique only moves the c-bound; n - omega + 1
        # gives 8, so the sandwich stays open at (7, 8)
        assert rg.bounds(cl_borderline) == (7, 8)

    def test_wl_showcase(self, wl_example):
        assert rg.bounds(wl_example) == (8, 8)

    def test_c4(self):
        assert rg.bounds(gr.cycle_graph(4)) == (2, 3)

    def test_isolated_vertices_contribute_zero(self):
        g = gr.disjoint_union(gr.path_graph(3), gr.empty_graph(2))
        assert rg.bounds(g) == (2, 2)


class TestOracle:
    def test_complete_graphs(self):
        for n in range(2, 7):
            assert rg.oracle_reg(gr.complete_graph(n)) == 1

    def test_paths(self):
        for length in range(1, 6):
            assert rg.oracle_reg(gr.path_graph(length + 1)) == length

    def test_c4(self):
        assert rg.oracle_reg(gr.cycle_graph(4)) == 2

    # theorem-pinned values at up to 20 variables, each computed afresh
    # rather than read from the oracle memo; past 8 vertices the gate is
    # raised, and the rings of 18 and 20 variables take the sweep's paths
    # for vertex masks of more than 16 bits

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycles(self, monkeypatch, n):
        # reg(S/J_{C_n}) = n - 2 (Zafar & Zahid, EJC 2013)
        monkeypatch.setattr(rg, "_oracle_memo", {})
        assert rg.oracle_reg(gr.cycle_graph(n), max_n=n) == n - 2

    def test_closed_band_graph(self, monkeypatch):
        # i ~ j iff |i - j| <= 2 is a closed graph, so reg = ell (Ene &
        # Zarojanu, Math. Nachr. 2015); for n = 8, 0-1-3-4-6-7 is a longest
        # induced path, and 0-1-3-4-6-7-9 for n = 10
        monkeypatch.setattr(rg, "_oracle_memo", {})
        for n, ell in [(8, 5), (9, 5), (10, 6)]:
            g = gr.Graph.from_edges(n, [(i, j) for i in range(n)
                                        for j in range(i + 1, min(i + 3, n))])
            assert gr.ell(g) == ell
            assert rg.oracle_reg(g, max_n=n) == ell

    def test_rank_tail_class(self, monkeypatch):
        # the slowest class of perfbench/golden.json pool_n8 (id 21), about
        # half of it in hochster._rank; the structural solver gives 5 too
        monkeypatch.setattr(rg, "_oracle_memo", {})
        g = gr.Graph.from_edges(8, [(0, 2), (0, 4), (1, 4), (1, 5), (1, 7),
                                    (2, 5), (3, 4), (3, 6), (3, 7), (4, 5),
                                    (5, 6), (6, 7)])
        assert rg.oracle_reg(g) == 5

    def test_hard_core_class(self, monkeypatch):
        # a random connected 8-vertex graph with 48 generators in its
        # initial ideal, among the oracle's slowest classes; most of its
        # sweep is the homology of large cores
        monkeypatch.setattr(rg, "_oracle_memo", {})
        g = gr.Graph.from_edges(8, [(0, 4), (0, 5), (0, 7), (1, 2), (1, 3),
                                    (1, 4), (1, 6), (2, 5), (2, 6), (2, 7),
                                    (3, 4), (3, 5), (4, 6), (4, 7)])
        assert rg.oracle_reg(g) == 5

    @pytest.mark.parametrize("edges", [
        "01 05 06 12 14 16 23 24 25 34 35 37 46 47 67",
        "01 03 05 12 13 14 17 24 25 26 34 36 46 56 57 67"])
    def test_vanishing_core_classes(self, monkeypatch, edges):
        # connected 8-vertex graphs whose sweeps spend most of their time on
        # cores with no homology down to the floor
        monkeypatch.setattr(rg, "_oracle_memo", {})
        g = gr.Graph.from_edges(8, [(int(a), int(b)) for a, b in edges.split()])
        assert rg.oracle_reg(g) == 4

    def test_each_component_passes_the_traced_layers_once(self, monkeypatch):
        """With a cleared memo, oracle_reg calls lex_groebner and
        hochster_regularity under the names regularity binds, once per
        component of two or more vertices.  The benchmark's tracer wraps
        those names, so it sees every basis and every sweep."""
        calls = Counter()
        for name in ("lex_groebner", "hochster_regularity"):
            real = getattr(rg, name)
            monkeypatch.setattr(
                rg, name,
                lambda arg, _name=name, _real=real: (calls.update([_name])
                                                     or _real(arg)))
        for g, components, value in [
                (gr.cycle_graph(6), 1, 4),
                (gr.disjoint_union(gr.cycle_graph(4), gr.path_graph(3),
                                   gr.empty_graph(1)), 2, 4)]:
            monkeypatch.setattr(rg, "_oracle_memo", {})
            calls.clear()
            assert rg.oracle_reg(g) == value
            assert calls == {"lex_groebner": components,
                             "hochster_regularity": components}

    def test_gate(self):
        with pytest.raises(rg.OracleGateError):
            rg.oracle_reg(gr.path_graph(9))
        assert rg.oracle_reg(gr.path_graph(9), max_n=9) == 8

    def test_env_gate(self, monkeypatch):
        monkeypatch.setenv(rg.ORACLE_MAX_N_ENV, "3")
        with pytest.raises(rg.OracleGateError):
            rg.oracle_reg(gr.path_graph(4))

    def test_component_sum_matches_direct(self):
        cases = [
            gr.disjoint_union(gr.complete_graph(2), gr.complete_graph(2)),
            gr.disjoint_union(gr.path_graph(3), gr.complete_graph(2)),
            gr.disjoint_union(gr.path_graph(2), gr.empty_graph(1)),
            gr.disjoint_union(gr.complete_graph(3), gr.path_graph(2)),
        ]
        for g in cases:
            whole = initial_ideal(lex_groebner(g), 2 * g.n)
            assert rg.oracle_reg(g) == hochster_regularity(whole)

    def test_additivity_random_pairs(self):
        rng = random.Random(43)
        for _ in range(15):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 3)
            parts = []
            for n in (n1, n2):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.6]
                parts.append(gr.Graph.from_edges(n, edges))
            whole = gr.disjoint_union(*parts)
            assert rg.oracle_reg(whole) == sum(rg.oracle_reg(p) for p in parts)

    def test_monotone_under_induced_subgraphs(self):
        rng = random.Random(47)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 6)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            g = gr.Graph.from_edges(n, edges)
            k = rng.randint(1, n)
            sub, _ = gr.induced_subgraph(g, rng.sample(range(n), k))
            assert rg.oracle_reg(sub) <= rg.oracle_reg(g)
            checked += 1

    def test_gluing_at_two_split_simplicial_vertices(self):
        for g in gr.enumerate_graphs(6, connected_only=True):
            for v in range(g.n):
                try:
                    parts = splits_at(g, v)
                except ValueError:
                    continue
                if len(parts) != 2:
                    continue
                subs = [gr.induced_subgraph(g, p)[0] for p in parts]
                if all(is_simplicial(s, p.index(v)) for s, p in zip(subs, parts)):
                    assert rg.oracle_reg(g) == sum(rg.oracle_reg(s) for s in subs)
                    break


def closed_labelling_exists(g):
    """Brute force over all n! labellings: some labelling is closed, that
    is, for edges {i, j}, {i, k} with i < j < k or i > j > k, {j, k} is an
    edge (Herzog et al. 2010): the neighbours above each vertex, and those
    below it, form cliques."""
    nb = g.neighbor_masks()
    for label in permutations(range(g.n)):
        masks = [0] * g.n
        for v, m in enumerate(nb):
            masks[label[v]] = sum(1 << label[u] for u in gr.bits(m))
        if all(all(side & ~(1 << j) & ~masks[j] == 0 for j in gr.bits(side))
               for i, m in enumerate(masks)
               for side in (m >> i + 1 << i + 1, m & (1 << i) - 1)):
            return True
    return False


class TestRelabelling:
    """The oracle builds each basis on its reverse Cuthill-McKee
    relabelling."""

    @staticmethod
    def connected():
        return [g for n in range(2, 8)
                for g in gr.enumerate_graphs(n, connected_only=True)]

    def test_relabelling_is_an_isomorphism(self):
        graphs = self.connected()
        assert len(graphs) == 995
        for g in graphs:
            order = gr.reverse_cuthill_mckee(g.neighbor_masks())
            assert sorted(order) == list(range(g.n))
            h = rg._relabelled(g)
            assert gr.canonical_form(h) == gr.canonical_form(g), g.edges()

    def test_closed_classes_get_just_the_edge_binomials(self):
        """A reduced basis has one minimal lead per element, so the initial
        ideal has as many generators as edges iff the basis is the edge
        binomials, iff the relabelling is closed.  119 classes get it, and
        for n <= 6 they are exactly the classes with a closed labelling."""
        graphs = self.connected()
        edge_only = [g for g in graphs
                     if len(rg._initial_ideal(g).gens) == g.edge_count()]
        assert [sum(g.n == n for g in edge_only) for n in range(2, 8)] == [
            1, 2, 4, 10, 26, 76]
        small = [g for g in graphs if g.n <= 6]
        assert ({id(g) for g in small if closed_labelling_exists(g)}
                == {id(g) for g in edge_only if g.n <= 6})


class TestStructural:
    def test_bowtie_by_sandwich(self):
        report = rg.structural_reg(bowtie())
        assert report.exact and report.value == 2
        assert report.trace[0][0] == "sandwich"

    def test_star_never_three(self):
        # the gluing rule must not fire at a three-split cut vertex
        report = rg.structural_reg(gr.star_graph(3))
        assert report.exact and report.value == 2

    def test_complete_base(self):
        report = rg.structural_reg(gr.complete_graph(5))
        assert report.exact and report.value == 1
        assert report.trace == (("complete-base", "K_5"),)

    def test_path_base(self):
        report = rg.structural_reg(gr.path_graph(6))
        assert report.exact and report.value == 5
        assert report.trace == (("path-base", "path of length 5"),)

    def test_budget_zero_keeps_bounds(self):
        report = rg.structural_reg(gr.Graph.from_edges(6, HARD6), budget=0)
        assert (report.lo, report.hi) == rg.bounds(gr.Graph.from_edges(6, HARD6))

    def test_interval_case(self):
        report = rg.structural_reg(gr.Graph.from_edges(6, HARD6))
        assert not report.exact
        assert (report.lo, report.hi) == (3, 4)

    def test_interval_contains_oracle_small(self):
        for n in range(1, 6):
            for g in gr.enumerate_graphs(n):
                report = rg.structural_reg(g)
                value = rg.oracle_reg(g)
                assert report.lo <= value <= report.hi

    def test_gluing_trace(self):
        # two triangles joined by a path: gluing must fire
        g = gr.Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                    (3, 5), (4, 5)])
        report = rg.structural_reg(g)
        assert report.exact and report.value == 3

    def test_deterministic(self):
        g = gr.Graph.from_edges(6, HARD6)
        assert rg.structural_reg(g) == rg.structural_reg(g)

    def test_top_level_reads_the_kernel_memos(self, cl_borderline):
        # with the sub-solves in the structural memo, only the top-level
        # rules run again, and they read the answers that
        # longest_induced_path and maximal_cliques left in the kernel
        # memos; fresh copies, so that no Graph holds its cliques yet
        graphs = [gr.Graph.from_edges(g.n, g.edges()) for g in [
            gr.Graph.from_edges(6, HARD6), cl_borderline,
            *gr.enumerate_graphs(5, connected_only=True),
            *gr.enumerate_graphs(6, connected_only=True)]]
        for g in graphs:
            rg.structural_reg(g)
        gr.induced_path.cache_clear()
        gr.clique_masks.cache_clear()
        path_hits = 0
        for g in graphs:
            gr.longest_induced_path(g)
            gr.maximal_cliques(g)
            path, cliques = (gr.induced_path.cache_info(),
                             gr.clique_masks.cache_info())
            rg.structural_reg(g)
            path_now, cliques_now = (gr.induced_path.cache_info(),
                                     gr.clique_masks.cache_info())
            assert path_now.misses == path.misses
            assert cliques_now.misses == cliques.misses
            assert cliques_now.hits == cliques.hits + 1
            path_hits += path_now.hits - path.hits
        assert path_hits


class TestStructuralMemo:
    """The process-wide memo against a fresh memo per call."""

    @staticmethod
    def fresh(monkeypatch, g, budget):
        monkeypatch.setattr(rg, "_structural_memo", {})
        return rg.structural_reg(g, budget)

    def test_reports_match_a_fresh_memo(self, monkeypatch):
        cases = [(g, b) for n in range(1, 7) for g in gr.enumerate_graphs(n)
                 for b in range(4)]
        expected = [self.fresh(monkeypatch, g, b) for g, b in cases]
        monkeypatch.setattr(rg, "_structural_memo", {})
        for _ in ("cold", "warm"):
            assert [rg.structural_reg(g, b) for g, b in cases] == expected
        assert len(rg._structural_memo) > len(cases)

    def test_repeated_call_derives_only_the_graph(self, monkeypatch):
        monkeypatch.setattr(rg, "_structural_memo", {})
        derived = []
        real = rg._derive
        monkeypatch.setattr(rg, "_derive", lambda nb, *rest: derived.append(
            nb) or real(nb, *rest))
        g = gr.Graph.from_edges(6, HARD6)
        first = rg.structural_reg(g)
        assert len(derived) > 1
        derived.clear()
        assert rg.structural_reg(g) == first
        assert derived == [g.neighbor_masks()]


class TestRefinementExits:
    """The refinement stops once it can no longer move the interval, with
    the reports of the full sweep."""

    # sha256 of (n, edges, budget, lo, hi, trace) over every class of
    # enumerate_graphs(n), n = 1..7, at budgets 0..3 from an empty memo,
    # recorded before the refinement stopped early
    REPORTS_SHA256 = \
        "ede81f14947edff583eb4f949b37f64c3523df41fa83d12ea5149c3d00721397"

    @staticmethod
    def refinement_calls(monkeypatch, g, budget=rg.DEFAULT_BUDGET):
        """g's report and the sub-graphs its own refinement solves: with the
        memo warm every sub-solve is a hit, so _solve sees the top-level
        calls only."""
        rg.structural_reg(g, budget)
        calls = []
        real = rg._solve
        monkeypatch.setattr(rg, "_solve", lambda nb, b, *rest: calls.append(
            (nb, b)) or real(nb, b, *rest))
        report = rg.structural_reg(g, budget)
        return report, [nb for nb, b in calls if b == budget - 1]

    def test_reports_match_the_pinned_digest(self, monkeypatch):
        monkeypatch.setattr(rg, "_structural_memo", {})
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in gr.enumerate_graphs(n):
                for budget in range(4):
                    r = rg.structural_reg(g, budget)
                    digest.update(repr((g.n, g.edges(), budget, r.lo, r.hi,
                                        r.trace)).encode())
        assert digest.hexdigest() == self.REPORTS_SHA256

    def test_reference_refinement_gives_the_same_reports(self, monkeypatch):
        # the reference solves every sub-graph, so _derive's crossed-bounds
        # check sees every cap and floor of the recursion
        cases = [(g, b) for n in range(1, 7) for g in gr.enumerate_graphs(n)
                 for b in range(4)]
        monkeypatch.setattr(rg, "_structural_memo", {})
        expected = [rg.structural_reg(g, b) for g, b in cases]
        monkeypatch.setattr(rg, "_structural_memo", {})
        monkeypatch.setattr(rg, "_refine", reference_refine)
        assert [rg.structural_reg(g, b) for g, b in cases] == expected

    def test_cold_borderline_derives_38_graphs(self, monkeypatch,
                                               cl_borderline):
        # 564 without the exits
        monkeypatch.setattr(rg, "_structural_memo", {})
        derived = []
        real = rg._derive
        monkeypatch.setattr(rg, "_derive", lambda nb, *rest: derived.append(
            nb) or real(nb, *rest))
        report = rg.structural_reg(cl_borderline)
        assert len(derived) == 38
        assert (report.lo, report.hi) == (7, 7)
        assert report.trace == (("gluing", "split at 1 gives [7, 7]"),
                                ("sandwich", "bounds meet at 7"))

    def test_gap_closed_by_split_inequality_skips_deletions(self,
                                                            monkeypatch):
        g = gr.star_graph(3)
        nb = g.neighbor_masks()
        report, calls = self.refinement_calls(monkeypatch, g)
        assert report.trace == (
            ("split-inequality", "vertex 0 caps the value at 2"),
            ("sandwich", "refined bounds meet at 2"))
        closed = rg._closure(nb, 0)
        assert calls == [rg._drop(nb, 0), closed, rg._drop(closed, 0)]

    def test_g_minus_v_at_hi_skips_both_closures(self, monkeypatch):
        # vertex 0 lowers hi to 4; hi(G - 1) is already 4
        g = gr.Graph.from_edges(7, [(0, 3), (0, 5), (0, 6), (1, 4), (1, 5),
                                    (1, 6), (2, 4), (2, 5), (2, 6), (3, 6),
                                    (4, 5)])
        nb = g.neighbor_masks()
        report, calls = self.refinement_calls(monkeypatch, g)
        assert report.trace == (
            ("split-inequality", "vertex 0 caps the value at 4"),)
        assert (report.lo, report.hi) == (3, 4)
        assert sum(1 in c for c in gr.maximal_cliques(g)) >= 2
        minus = rg._drop(nb, 1)
        assert rg._structural_memo[minus, rg.DEFAULT_BUDGET - 1][1] >= 4
        closed = rg._closure(nb, 1)
        assert closed not in calls and rg._drop(closed, 1) not in calls


class TestMaskSteps:
    """The solver's mask steps against the Graph functions kept as their
    independent references."""

    def test_split_and_closure_match_references(self):
        for n in range(1, 7):
            for g in gr.enumerate_graphs(n, connected_only=True):
                nb = g.neighbor_masks()
                cliques = gr.maximal_cliques(g)
                for v in range(g.n):
                    closed = rg._closure(nb, v)
                    assert [(u, w) for u, m in enumerate(closed)
                            for w in gr.bits(m) if u < w] == \
                        clique_closure(g, v).edges()
                    if sum(v in c for c in cliques) != 2:
                        continue
                    try:
                        expected = splits_at(g, v)
                    except ValueError:
                        expected = None
                    split = rg._split(nb, v)
                    decoded = None if split is None else sorted(
                        map(gr.bits, split))
                    assert decoded == expected, (g.edges(), v)

    # exact structural values per n over the connected classes, measured
    # at the labelled-key solver before it moved to masks
    @pytest.mark.parametrize("n, exact, total", [
        (1, 1, 1), (2, 1, 1), (3, 2, 2), (4, 6, 6), (5, 21, 21),
        (6, 110, 112), (7, 828, 853)])
    def test_exact_coverage_of_connected_classes(self, n, exact, total):
        classes = gr.enumerate_graphs(n, connected_only=True)
        assert len(classes) == total
        assert sum(rg.structural_reg(g).exact for g in classes) == exact


class TestRegFacade:
    def test_auto_sandwich(self, cl_example):
        report = rg.reg(cl_example)
        assert report.exact and report.value == 7
        assert report.trace == (("sandwich", "bounds meet at 7"),)

    def test_auto_oracle_fallback(self):
        g = gr.Graph.from_edges(6, HARD6)
        report = rg.reg(g)
        assert report.exact and report.value == 4
        assert report.trace[-1][0] == "oracle"

    def test_structural_method(self):
        report = rg.reg(gr.complete_graph(5), method="structural")
        assert report.method == "structural"
        assert report.exact and report.value == 1

    def test_oracle_method(self):
        report = rg.reg(gr.cycle_graph(4), method="oracle")
        assert report.method == "oracle"
        assert report.exact and report.value == 2

    def test_gate_exceeded_reports_interval(self):
        g = gr.Graph.from_edges(6, HARD6)
        report = rg.reg(g, oracle_max_n=5)
        assert not report.exact
        assert (report.lo, report.hi) == (3, 4)
        assert report.trace[-1][0] == "oracle"
        assert "skipped" in report.trace[-1][1]

    def test_methods_agree_small(self):
        for n in range(1, 6):
            for g in gr.enumerate_graphs(n):
                auto = rg.reg(g)
                oracle = rg.reg(g, method="oracle")
                assert auto.exact
                assert auto.value == oracle.value

    def test_characteristic_recorded(self):
        assert rg.reg(gr.complete_graph(2)).characteristic == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            rg.reg(gr.complete_graph(2), method="guess")

    def test_interval_value_raises(self):
        report = rg.reg(gr.Graph.from_edges(6, HARD6), oracle_max_n=5)
        with pytest.raises(ValueError):
            report.value
