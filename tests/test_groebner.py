import importlib.util
import random
from pathlib import Path

import pytest

from beireg import graphs as gr
from beireg.groebner import (MonomialIdeal, NonBinomialError, _certify,
                             initial_ideal, lex_groebner)

from helpers import (assert_is_groebner, brute_admissible_basis, exponents,
                     reference_certify, supports)


def edge_binomial(n, i, j):
    """x_i y_j - x_j y_i as (lead, trail) masks over 2n variables,
    0-based vertex ids."""
    return (1 << i | 1 << n + j, 1 << j | 1 << n + i)


def basis_strings(g):
    """The lex basis of g written out, x's before y's in each monomial."""
    names = ([f"x{v}" for v in range(1, g.n + 1)]
             + [f"y{v}" for v in range(1, g.n + 1)])

    def monomial(mask):
        return "*".join(name for k, name in enumerate(names) if mask >> k & 1)

    return sorted(f"{monomial(lead)} - {monomial(trail)}"
                  for lead, trail in lex_groebner(g))


class TestBinomialEdgeIdeal:
    """The edges are the admissible paths of length 1."""

    def test_single_edge(self):
        assert basis_strings(gr.complete_graph(2)) == ["x1*y2 - x2*y1"]

    def test_edgeless(self):
        assert lex_groebner(gr.empty_graph(3)) == []

    def test_path(self):
        # the path 1 - 0 - 2 adds the admissible path 1 -> 2, whose
        # interior vertex 0 lies below both ends and contributes y1
        assert basis_strings(gr.Graph.from_edges(3, [(0, 1), (0, 2)])) == [
            "x1*y2 - x2*y1", "x1*y3 - x3*y1", "x2*y1*y3 - x3*y1*y2"]


def _mutants(basis, nvars, rng, tries=3):
    """Seeded near-misses of a basis: one element dropped, and one trail
    replaced by a permutation of its bits that stays below the lead."""
    out = []
    for _ in range(tries):
        k = rng.randrange(len(basis))
        out.append(basis[:k] + basis[k + 1:])
        lead, trail = basis[k]
        perm = rng.sample(range(nvars), nvars)
        moved = sum(1 << perm[v] for v in range(nvars) if trail >> v & 1)
        if moved != trail and exponents(moved, nvars) < exponents(lead, nvars):
            out.append(basis[:k] + [(lead, moved)] + basis[k + 1:])
    return out


class TestLexGroebner:
    def test_single_generator_fixed(self):
        assert lex_groebner(gr.complete_graph(2)) == [edge_binomial(2, 0, 1)]

    def test_path3_basis_frozen(self):
        # the only admissible paths are the two edges
        assert basis_strings(gr.path_graph(3)) == [
            "x1*y2 - x2*y1", "x2*y3 - x3*y2"]

    def test_c4_basis_frozen(self):
        assert basis_strings(gr.cycle_graph(4)) == [
            "x1*x4*y3 - x3*x4*y1",
            "x1*y2 - x2*y1",
            "x1*y4 - x4*y1",
            "x2*y1*y4 - x4*y1*y2",
            "x2*y3 - x3*y2",
            "x3*y4 - x4*y3",
        ]

    def test_matches_admissible_path_enumeration(self):
        # the whole closed-form basis, against a brute force over every
        # injective vertex sequence
        for n in range(2, 7):
            for g in gr.enumerate_graphs(n, connected_only=True):
                gb = lex_groebner(g)
                assert len(set(gb)) == len(gb), g.edges()
                assert set(gb) == brute_admissible_basis(g), g.edges()

    def test_zero_reduction_certificate(self):
        for n in range(2, 6):
            for g in gr.enumerate_graphs(n, connected_only=True):
                gb = lex_groebner(g)
                assert_is_groebner(gb, 2 * n)
                for u, v in g.edges():
                    assert edge_binomial(n, u, v) in gb, g.edges()

    def test_certificate_rejects_non_basis(self):
        # C4's edge binomials generate J_G but are not a Groebner basis
        edges = [edge_binomial(4, u, v) for u, v in gr.cycle_graph(4).edges()]
        with pytest.raises(NonBinomialError):
            _certify(edges, 8)

    def test_certificate_matches_reference(self):
        # every connected class with n <= 5, and seeded mutants of its
        # basis: one element dropped, one trail replaced by another
        # squarefree monomial of its degree below its lead, each also
        # shuffled out of lead order
        rng = random.Random(59)
        verdicts = {True: 0, False: 0}
        for n in range(2, 6):
            for g in gr.enumerate_graphs(n, connected_only=True):
                gb = lex_groebner(g)
                for basis in [gb, *_mutants(gb, 2 * n, rng)]:
                    for order in (basis, rng.sample(basis, len(basis))):
                        expected = reference_certify(order, 2 * n)
                        try:
                            _certify(order, 2 * n)
                            accepted = True
                        except NonBinomialError:
                            accepted = False
                        assert accepted == expected, (g.edges(), order)
                        verdicts[accepted] += 1
        assert min(verdicts.values()) > 50, verdicts

    def test_certificate_requires_lead_above_trail(self):
        # x2*y1 - x1*y2: the edge binomial of K2 the wrong way round
        lead, trail = edge_binomial(2, 0, 1)
        with pytest.raises(ValueError):
            _certify([(trail, lead)], 4)

    def test_certificate_requires_homogeneous(self):
        # x1*y1 - y1 on one vertex's two variables
        with pytest.raises(ValueError):
            _certify([(0b11, 0b10)], 2)

    def test_reduced(self):
        # no lead divides another lead; no tail divisible by any lead
        for g in [gr.cycle_graph(5), gr.complete_graph(5)]:
            gb = lex_groebner(g)
            for b in gb:
                for other in gb:
                    if other is not b:
                        assert other[0] & b[0] != other[0]
                    assert other[0] & b[1] != other[0]

    def test_variable_gate(self):
        with pytest.raises(ValueError):
            lex_groebner(gr.empty_graph(11))

    def test_deterministic(self):
        g = gr.cycle_graph(5)
        assert lex_groebner(g) == lex_groebner(g)


class TestInitialIdeal:
    def test_single_edge(self):
        ideal = initial_ideal(lex_groebner(gr.complete_graph(2)), 4)
        assert supports(ideal) == [(0, 3)]  # {x1, y2}

    def test_path3(self):
        gb = lex_groebner(gr.path_graph(3))
        assert supports(initial_ideal(gb, 6)) == [(0, 4), (1, 5)]

    def test_empty(self):
        assert initial_ideal([], 4).gens == ()

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


def test_traced_layer_names_resolve():
    # the benchmark's tracer wraps these functions by name; a rename or
    # deletion would otherwise show only when a traced run starts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, names in tracing.LAYERS.items():
        layer = importlib.import_module(f"beireg.{module}")
        for name in names:
            assert callable(getattr(layer, name, None)), f"beireg.{module}.{name}"
