import random

import pytest

from beireg import graphs as gr
from beireg.groebner import (MonomialIdeal, PolynomialContext, initial_ideal,
                             lex_groebner)
from beireg.hochster import hochster_regularity

from helpers import naive_monomial_regularity


def ideal_of(g):
    return initial_ideal(lex_groebner(g), PolynomialContext(g.n))


def mask(*verts):
    out = 0
    for v in verts:
        out |= 1 << v
    return out


class TestHollowSimplex:
    """Boundary-of-simplex sanity anchors, cross-checked by dense rational
    homology before anything else relies on the oracle."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_sphere_homology(self, k):
        ideal = MonomialIdeal.from_supports(k, [(1 << k) - 1])
        assert hochster_regularity(ideal) == k - 1
        assert naive_monomial_regularity([range(k)], k) == k - 1


class TestHochsterRegularity:
    def test_single_pair(self):
        # two disconnected points: homology in degree 0
        ideal = MonomialIdeal.from_supports(4, [mask(0, 3)])
        assert hochster_regularity(ideal) == 1

    def test_zero_ideal(self):
        assert hochster_regularity(MonomialIdeal.from_supports(4, [])) == 0

    def test_path4_initial_ideal(self):
        assert hochster_regularity(ideal_of(gr.path_graph(4))) == 3

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            hochster_regularity(MonomialIdeal(4, (0,)))

    def test_size_gate(self):
        ideal = MonomialIdeal.from_supports(18, [mask(0, 1)])
        with pytest.raises(ValueError):
            hochster_regularity(ideal)
        assert hochster_regularity(ideal, max_vertices=18) == 1

    def test_matches_naive_on_small_graphs(self):
        # every connected graph on up to 4 vertices, full 2^(2n) reference
        for n in range(2, 5):
            for g in gr.enumerate_graphs(n, connected_only=True):
                ideal = ideal_of(g)
                expected = naive_monomial_regularity(ideal.supports(), 2 * n)
                assert hochster_regularity(ideal) == expected, g.edges()

    def test_matches_naive_on_random_ideals(self):
        rng = random.Random(41)
        for _ in range(60):
            nverts = rng.randint(2, 8)
            gens = set()
            for _ in range(rng.randint(1, 6)):
                size = rng.randint(1, min(3, nverts))
                gens.add(mask(*rng.sample(range(nverts), size)))
            ideal = MonomialIdeal.from_supports(nverts, gens)
            if not ideal.gens:
                continue
            expected = naive_monomial_regularity(ideal.supports(), nverts)
            assert hochster_regularity(ideal) == expected, ideal.supports()

    def test_disjoint_pairs_add(self):
        # k disjoint two-point complexes join to regularity k
        for k in range(1, 5):
            gens = [mask(2 * i, 2 * i + 1) for i in range(k)]
            ideal = MonomialIdeal.from_supports(2 * k, gens)
            assert hochster_regularity(ideal) == k
