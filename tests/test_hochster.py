import random
from collections import Counter

import pytest

from beireg import graphs as gr
from beireg import hochster
from beireg.groebner import MonomialIdeal, initial_ideal, lex_groebner
from beireg.graphs import bits
from beireg.hochster import _rank, _RestrictedSweep, hochster_regularity

from helpers import (_fraction_rank, brute_dominates, naive_monomial_regularity,
                     supports)


def ideal_of(g):
    return initial_ideal(lex_groebner(g), 2 * g.n)


def mask(*verts):
    out = 0
    for v in verts:
        out |= 1 << v
    return out


def random_ideal(rng, nverts, max_gens, sizes):
    """Up to max_gens random generators on nverts vertices, each of a size
    drawn from sizes; from_supports keeps the inclusion-minimal ones."""
    gens = {mask(*rng.sample(range(nverts), min(rng.choice(sizes), nverts)))
            for _ in range(rng.randint(1, max_gens))}
    return MonomialIdeal.from_supports(nverts, gens)


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

    def test_generator_beyond_nvars_rejected(self):
        # an ideal built without from_supports cannot carry generators on
        # variables past nvars under the size gate
        wide = MonomialIdeal(2, (mask(20, 21), mask(22, 23)))
        with pytest.raises(ValueError):
            hochster_regularity(wide)
        with pytest.raises(ValueError):
            hochster_regularity(MonomialIdeal(3, (-3,)))

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
                expected = naive_monomial_regularity(supports(ideal), 2 * n)
                assert hochster_regularity(ideal) == expected, g.edges()

    def test_matches_naive_on_random_ideals(self, monkeypatch):
        """The recursion against the full 2^n reference on random ideals of
        up to 8 vertices and 10 generators of 1 to 4 vertices, singletons
        rare; every other draw has 3-vertex generators only on 5 to 7
        vertices, where a core's subsets often beat the core itself.  A
        spy on each rule's method counts its firings, and every rule must
        fire somewhere in the draws: singles (the only caller of _without
        in a sweep), cone apexes, a dominated pair, a join of several
        factors, and the homology of a core, on some core of at least 5
        vertices."""
        fired = Counter()
        core_sizes = set()

        def spy(name, fires):
            original = getattr(_RestrictedSweep, name)

            def counted(self, *args):
                out = original(self, *args)
                if fires(out):
                    fired[name] += 1
                return out

            monkeypatch.setattr(_RestrictedSweep, name, counted)

        spy("_without", lambda out: True)
        spy("_apexes", bool)
        spy("_dominated", lambda out: out is not None)
        spy("_gen_components", lambda out: len(out) > 1)
        core_jj = _RestrictedSweep._core_jj

        def sized_core_jj(self, core, internal, floor):
            core_sizes.add(core.bit_count())
            return core_jj(self, core, internal, floor)

        monkeypatch.setattr(_RestrictedSweep, "_core_jj", sized_core_jj)
        rng = random.Random(59)
        for trial in range(120):
            if trial % 2:
                nverts = rng.randint(2, 8)
                ideal = random_ideal(rng, nverts, 10, (1, 2, 2, 3, 3, 3, 4, 4))
            else:
                nverts = rng.randint(5, 7)
                ideal = random_ideal(rng, nverts, 10, (3,))
            expected = naive_monomial_regularity(supports(ideal), nverts)
            assert hochster_regularity(ideal) == expected, supports(ideal)
        assert set(fired) == {"_without", "_apexes", "_dominated",
                              "_gen_components"}, fired
        assert max(core_sizes) >= 5, core_sizes

    def test_generator_leaving_sigma_by_one_vertex(self):
        # the value 3 comes from sigma = {0,1,2,4,5} alone; the generator
        # {0,1,3} leaves it by vertex 3 only, and must not count as inside
        supports = [(0, 1, 2), (0, 1, 3), (2, 4, 5)]
        ideal = MonomialIdeal.from_supports(6, [mask(*s) for s in supports])
        assert naive_monomial_regularity(supports, 6) == 3
        assert hochster_regularity(ideal) == 3

    def test_disjoint_pairs_add(self):
        # k disjoint two-point complexes join to regularity k
        for k in range(1, 5):
            gens = [mask(2 * i, 2 * i + 1) for i in range(k)]
            ideal = MonomialIdeal.from_supports(2 * k, gens)
            assert hochster_regularity(ideal) == k

    def test_join_additivity(self):
        # I and J on disjoint blocks of variables: the complex of I + J is
        # the join of theirs, so the regularities add (Kuenneth).  In every
        # fifth trial one block has singleton generators only, and
        # contributes 0.
        rng = random.Random(47)
        for trial in range(80):
            sizes = rng.randint(1, 6), rng.randint(1, 6)
            blocks = []
            offset = 0
            for size in sizes:
                gens = set()
                width = 1 if trial % 10 == len(blocks) * 5 else min(3, size)
                for _ in range(rng.randint(1, 5)):
                    k = rng.randint(1, width)
                    gens.add(mask(*(offset + v
                                    for v in rng.sample(range(size), k))))
                blocks.append(gens)
                offset += size
            parts = [hochster_regularity(MonomialIdeal.from_supports(offset, b))
                     for b in blocks]
            whole = MonomialIdeal.from_supports(offset, blocks[0] | blocks[1])
            assert hochster_regularity(whole) == sum(parts), blocks
            if offset <= 8:
                assert sum(parts) == naive_monomial_regularity(
                    supports(whole), offset), blocks


def test_core_subsets_count():
    """The restriction to all five vertices is a core with no homology,
    and the answer 2 comes from its subsets alone."""
    supports = [(1, 2, 3), (0, 1, 4), (0, 3, 4), (2, 3, 4)]
    ideal = MonomialIdeal.from_supports(5, [mask(*s) for s in supports])
    sweep = _RestrictedSweep(list(ideal.gens))
    everything = (1 << len(ideal.gens)) - 1
    core = mask(0, 1, 2, 3, 4)
    assert sweep._dominated(core, bits(core), everything) is None
    assert len(sweep._gen_components(core, everything)) == 1
    assert sweep._core_jj(core, everything, -1) is None
    assert naive_monomial_regularity(supports, 5) == 2
    assert hochster_regularity(ideal) == 2


def test_domination_is_inherited():
    """Whenever _dominated(W, ...) returns (v, u), v stays dominated by u
    in the restriction to every tau with {u, v} inside tau inside W, checked
    by listing the faces.  W is a random set of generator vertices less its
    singletons and cone apexes, as the dominated-pair rule sees it.  The
    face check itself is anchored first: with the one generator {0, 1} on
    3 vertices, 0 is dominated by 2 and 2 not by 0."""
    assert brute_dominates([(0, 1)], {0, 1, 2}, 0, 2)
    assert not brute_dominates([(0, 1)], {0, 1, 2}, 2, 0)
    rng = random.Random(67)
    checked = 0
    for _ in range(150):
        nverts = rng.randint(3, 7)
        ideal = random_ideal(rng, nverts, 8, (1, 2, 3))
        sweep = _RestrictedSweep(list(ideal.gens))
        everything = (1 << len(ideal.gens)) - 1
        span = sweep._masks(everything)[1]
        singles = sweep._masks(sweep.singles)[1]
        for _ in range(8):
            w = rng.getrandbits(nverts) & span & ~singles
            internal = sweep._without(everything, span & ~w)
            w &= ~sweep._apexes(w, internal)
            pair = sweep._dominated(w, bits(w), internal)
            if pair is None:
                continue
            v, u = pair
            assert v != u and w >> v & 1 and w >> u & 1
            for _ in range(4):
                tau = w & rng.getrandbits(nverts) | 1 << u | 1 << v
                assert brute_dominates(supports(ideal), bits(tau), v, u), (
                    supports(ideal), w, tau, v, u)
                checked += 1
    assert checked >= 200, checked


def test_without_matches_vertex_loop():
    """The byte-table lookup of _without against clearing the generators
    through each vertex one at a time, on up to 20 vertices so that masks
    above 16 bits take the loop.  The sweep only removes vertices that some
    generator covers."""
    rng = random.Random(61)
    for _ in range(40):
        nverts = rng.randint(2, 20)
        gens = sorted({mask(*rng.sample(range(nverts),
                                        rng.randint(1, min(3, nverts))))
                       for _ in range(rng.randint(1, 12))})
        sweep = _RestrictedSweep(gens)
        span = sweep._masks((1 << len(gens)) - 1)[1]
        for _ in range(20):
            gen_set = rng.getrandbits(len(gens))
            verts = rng.getrandbits(nverts) & span
            expected = {i for i in range(len(gens))
                        if gen_set >> i & 1 and not gens[i] & verts}
            got = sweep._without(gen_set, verts)
            assert got == sum(1 << i for i in expected), (gens, verts)


def _random_column(rng, nrows, values):
    return {r: rng.choice(values) for r in range(nrows) if rng.random() < 0.4}


def test_rank_matches_fraction_rank():
    """_rank against dense Fraction elimination on sparse integer matrices
    with entries in +-1..+-4; each matrix also has an empty column, a
    duplicate column, an integer combination of two columns and a column
    with no unit entry, which is put first in half the draws so that a
    non-unit pivot is certain to be taken."""
    rng = random.Random(53)
    small = [1, -1, 2, -2, 3, -3, 4, -4]
    no_unit = [2, -2, 3, -3, 4, -4]
    for trial in range(300):
        nrows = rng.randint(1, 9)
        cols = [_random_column(rng, nrows, small)
                for _ in range(rng.randint(1, 7))]
        a, b = rng.choice(cols), rng.choice(cols)
        ka, kb = rng.choice(small), rng.choice(small)
        combo = {r: ka * a.get(r, 0) + kb * b.get(r, 0) for r in range(nrows)}
        cols += [{}, dict(rng.choice(cols)),
                 {r: v for r, v in combo.items() if v}]
        rng.shuffle(cols)
        bare = _random_column(rng, nrows, no_unit) or {0: 2}
        cols.insert(0 if trial % 2 else rng.randint(0, len(cols)), bare)
        dense = [[col.get(r, 0) for col in cols] for r in range(nrows)]
        assert _rank([dict(col) for col in cols]) == _fraction_rank(dense), cols


def test_rank_takes_unit_pivots(monkeypatch):
    """Where every column keeps a unit entry the elimination needs no gcd:
    row 0 is first but is passed over for the unit rows 1 and 2."""
    def no_gcd(*args):
        raise AssertionError("non-unit pivot taken")

    monkeypatch.setattr(hochster, "gcd", no_gcd)
    assert _rank([{0: 2, 1: 1}, {0: 3, 2: 1}]) == 2
