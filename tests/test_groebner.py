import random

import pytest

from beireg import graphs as gr
from beireg.groebner import (Binomial, MonomialIdeal, NonBinomialError,
                             NonSquarefreeLeadError, PolynomialContext,
                             _certify, initial_ideal, lex_groebner)

from helpers import assert_is_groebner, reference_certify


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


def _mutants(basis, rng, tries=3):
    """Seeded near-misses of a basis: one element dropped, and one trail
    replaced by a rearrangement of its exponents that stays below the
    lead."""
    out = []
    for _ in range(tries):
        k = rng.randrange(len(basis))
        out.append(basis[:k] + basis[k + 1:])
        b = basis[k]
        trail = rng.sample(b.trail, len(b.trail))
        if tuple(trail) != b.trail and tuple(trail) < b.lead:
            out.append(basis[:k] + [Binomial(b.lead, tuple(trail))]
                       + basis[k + 1:])
    return out


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

    def test_certificate_matches_reference(self):
        # every connected class with n <= 5, and seeded mutants of its
        # basis: one element dropped, one trail replaced by another
        # monomial of its degree below its lead, each also shuffled out
        # of lead order
        rng = random.Random(59)
        verdicts = {True: 0, False: 0}
        for n in range(2, 6):
            for g in gr.enumerate_graphs(n, connected_only=True):
                gb = lex_groebner(g)
                for basis in [gb, *_mutants(gb, rng)]:
                    for order in (basis, rng.sample(basis, len(basis))):
                        expected = reference_certify(order)
                        try:
                            _certify(order)
                            accepted = True
                        except NonBinomialError:
                            accepted = False
                        assert accepted == expected, (g.edges(), order)
                        verdicts[accepted] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_certificate_requires_squarefree_homogeneous(self):
        with pytest.raises(NonSquarefreeLeadError):
            _certify([Binomial((2, 0), (1, 1))])
        with pytest.raises(ValueError):
            _certify([Binomial((1, 0), (0, 2))])

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

    def test_mask_beyond_nvars_rejected(self):
        # two variables cannot carry generators on variables 20-23
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(2, [(1 << 20) | (1 << 21),
                                            (1 << 22) | (1 << 23)])
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(3, [0b1000])

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(3, [-3])

    def test_empty_mask_rejected(self):
        # the empty support is the monomial 1, which generates the unit ideal
        with pytest.raises(ValueError):
            MonomialIdeal.from_supports(3, [0b011, 0])


class TestBinomialType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Binomial((0, 1), (1, 0))
