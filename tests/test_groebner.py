import pytest

from beireg import graphs as gr
from beireg.groebner import (Binomial, MonomialIdeal, NonBinomialError,
                             NonSquarefreeLeadError, PolynomialContext,
                             _certify, initial_ideal, lex_groebner)

from helpers import assert_is_groebner


def edge_binomial(n, i, j):
    """x_i y_j - x_j y_i on 2n variables, 0-based vertex ids."""
    lead = [0] * (2 * n)
    trail = [0] * (2 * n)
    lead[i] = lead[n + j] = 1
    trail[j] = trail[n + i] = 1
    return Binomial(tuple(lead), tuple(trail))


class TestBinomialEdgeIdeal:
    """The edges are the admissible paths of length 1."""

    def test_single_edge(self):
        assert edge_binomial(2, 0, 1).to_string(PolynomialContext(2)) == \
            "x1*y2 - x2*y1"

    def test_edgeless(self):
        assert lex_groebner(gr.empty_graph(3)) == []

    def test_path(self):
        # the path 1 - 0 - 2 adds the admissible path 1 -> 2, whose
        # interior vertex 0 lies below both ends and contributes y1
        ctx = PolynomialContext(3)
        gb = lex_groebner(gr.Graph.from_edges(3, [(0, 1), (0, 2)]))
        assert sorted(b.to_string(ctx) for b in gb) == [
            "x1*y2 - x2*y1", "x1*y3 - x3*y1", "x2*y1*y3 - x3*y1*y2"]


class TestLexGroebner:
    def test_single_generator_fixed(self):
        assert lex_groebner(gr.complete_graph(2)) == [edge_binomial(2, 0, 1)]

    def test_path3_basis_frozen(self):
        # the only admissible paths are the two edges
        ctx = PolynomialContext(3)
        gb = lex_groebner(gr.path_graph(3))
        assert sorted(b.to_string(ctx) for b in gb) == [
            "x1*y2 - x2*y1", "x2*y3 - x3*y2"]

    def test_c4_basis_frozen(self):
        ctx = PolynomialContext(4)
        gb = lex_groebner(gr.cycle_graph(4))
        assert sorted(b.to_string(ctx) for b in gb) == [
            "x1*x4*y3 - x3*x4*y1",
            "x1*y2 - x2*y1",
            "x1*y4 - x4*y1",
            "x2*y1*y4 - x4*y1*y2",
            "x2*y3 - x3*y2",
            "x3*y4 - x4*y3",
        ]

    def test_c4_leads_squarefree(self):
        gb = lex_groebner(gr.cycle_graph(4))
        assert all(all(e <= 1 for e in b.lead) for b in gb)

    def test_zero_reduction_certificate(self):
        for n in range(2, 6):
            for g in gr.enumerate_graphs(n, connected_only=True):
                gb = lex_groebner(g)
                assert_is_groebner(gb)
                for u, v in g.edges():
                    assert edge_binomial(n, u, v) in gb, g.edges()

    def test_certificate_rejects_non_basis(self):
        # C4's edge binomials generate J_G but are not a Groebner basis
        edges = [edge_binomial(4, u, v) for u, v in gr.cycle_graph(4).edges()]
        with pytest.raises(NonBinomialError):
            _certify(edges)

    def test_reduced(self):
        # no lead divides another lead; no tail divisible by any lead
        for g in [gr.cycle_graph(5), gr.complete_graph(5)]:
            gb = lex_groebner(g)
            for b in gb:
                for other in gb:
                    if other is not b:
                        assert not all(
                            x <= y for x, y in zip(other.lead, b.lead))
                    assert not all(x <= y for x, y in zip(other.lead, b.trail))

    def test_variable_gate(self):
        with pytest.raises(ValueError):
            lex_groebner(gr.empty_graph(11))

    def test_deterministic(self):
        g = gr.cycle_graph(5)
        assert lex_groebner(g) == lex_groebner(g)


class TestInitialIdeal:
    def test_single_edge(self):
        ctx = PolynomialContext(2)
        ideal = initial_ideal(lex_groebner(gr.complete_graph(2)), ctx)
        assert ideal.supports() == [(0, 3)]  # {x1, y2}

    def test_path3(self):
        ctx = PolynomialContext(3)
        gb = lex_groebner(gr.path_graph(3))
        assert initial_ideal(gb, ctx).supports() == [(0, 4), (1, 5)]

    def test_empty(self):
        ctx = PolynomialContext(2)
        assert initial_ideal([], ctx).gens == ()

    def test_non_squarefree_rejected(self):
        ctx = PolynomialContext(1)
        square = Binomial((2, 0), (0, 1))
        with pytest.raises(NonSquarefreeLeadError):
            initial_ideal([square], ctx)

    def test_minimalization(self):
        ideal = MonomialIdeal.from_supports(4, [0b0011, 0b0111, 0b1100])
        assert ideal.gens == (0b0011, 0b1100)


class TestBinomialType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Binomial((0, 1), (1, 0))
