import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from beireg import graphs as gr
from beireg import hochster
from beireg import regularity as rg
from beireg.groebner import MonomialIdeal, initial_ideal, lex_groebner
from beireg.graphs import bits
from beireg.hochster import (_rank, _rank_mod2, _RestrictedSweep,
                             hochster_regularity)

from helpers import (_fraction_rank, brute_dominates, gf2_rank, naive_betti,
                     naive_jj, naive_monomial_regularity, reference_dominated,
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


def single_vertices(gens):
    """The vertices that are generators by themselves, as a mask."""
    return sum(g for g in gens if g & (g - 1) == 0)


def rule_sets(rng, sweep, nverts, count):
    """count random vertex sets of the sweep's span as the dominated-pair
    and bound rules see them, less singletons and cone apexes, each with
    its generator bitset."""
    everything = (1 << len(sweep.gens)) - 1
    span = sweep._union(everything)
    singles = single_vertices(sweep.gens)
    for _ in range(count):
        w = rng.getrandbits(nverts) & span & ~singles
        internal = sweep._without(everything, span & ~w)
        yield w & sweep._union(internal), internal


def anchor_missed(sweep, sigma, internal, floor, anchor=0):
    """True when anchor has a vertex outside the set that the cone-apex
    rule leaves of sigma, the union of the generators inside sigma, so
    that _solve prunes sigma at or below floor by the missing-anchor
    rule."""
    kept = 0
    for i in bits(internal):
        kept |= sweep.gens[i]
    return bool(anchor & ~(sigma & kept))


def restricted_table(ideal):
    """R(w) for every vertex set w of the ideal's ring, indexed by mask:
    jj by the dense reference naive_jj on each set, then R(w) the largest
    over the sets inside w, R(emptyset) = 0."""
    gens = supports(ideal)
    table = [0] * (1 << ideal.nvars)
    for w in range(1, len(table)):
        jj = naive_jj(gens, bits(w))
        table[w] = max([0 if jj is None else jj]
                       + [table[w & ~(1 << x)] for x in bits(w)])
    return table


def naive_restricted(ideal, w):
    """R(w) by the full 2^|w| reference: the generators inside w,
    relabelled onto 0 .. |w| - 1."""
    index = {x: i for i, x in enumerate(bits(w))}
    inside = [[index[x] for x in bits(g)] for g in ideal.gens if g & w == g]
    return naive_monomial_regularity(inside, len(index))


class TestHollowSimplex:
    """Boundary-of-simplex sanity anchors, cross-checked by dense rational
    homology before anything else relies on the oracle."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_sphere_homology(self, k, monkeypatch):
        """One generator of k vertices gives k - 1 by the closed form, with
        no dominated pair, join or core tried, also in a ring of two more
        variables."""
        def no_branch(*args):
            raise AssertionError("one generator branched")

        monkeypatch.setattr(_RestrictedSweep, "_branch", no_branch)
        for nverts in (k, k + 2):
            ideal = MonomialIdeal.from_supports(nverts, [(1 << k) - 1])
            assert hochster_regularity(ideal) == k - 1
        if k <= 5:
            assert naive_monomial_regularity([range(k)], k) == k - 1

    def test_two_generators_bound(self):
        """With two generators or more the regularity is at most the size
        of their span less 2, by the full 2^n reference on random ideals
        of up to 8 vertices; the bound is met in some draws."""
        rng = random.Random(71)
        tight = 0
        for _ in range(40):
            nverts = rng.randint(3, 8)
            ideal = random_ideal(rng, nverts, 6, (1, 2, 2, 3, 3, 4))
            if len(ideal.gens) < 2:
                continue
            span = 0
            for g in ideal.gens:
                span |= g
            reg = naive_monomial_regularity(supports(ideal), nverts)
            assert reg <= span.bit_count() - 2, supports(ideal)
            tight += reg == span.bit_count() - 2
        assert tight >= 3, tight


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

    def test_non_minimal_generators_rejected(self):
        """A MonomialIdeal built directly with a duplicate or a nested
        generator raises, where the sweep would read a wrong value (0 for
        the duplicate pair, whose value is 1); on random directly built
        ideals the sweep raises or agrees with from_supports."""
        for nvars, gens in ((2, (0b11, 0b11)), (2, (0b01, 0b11)),
                            (3, (0b011, 0b110, 0b111))):
            with pytest.raises(ValueError, match="not minimal"):
                hochster_regularity(MonomialIdeal(nvars, gens))
        assert hochster_regularity(MonomialIdeal.from_supports(2, [0b11])) == 1
        rng = random.Random(5)
        raised = agreed = 0
        for _ in range(3000):
            nvars = rng.randint(2, 7)
            gens = tuple(rng.randrange(1, 1 << nvars)
                         for _ in range(rng.randint(1, 6)))
            expected = hochster_regularity(
                MonomialIdeal.from_supports(nvars, gens))
            try:
                value = hochster_regularity(MonomialIdeal(nvars, gens))
            except ValueError:
                raised += 1
                continue
            agreed += 1
            assert value == expected, (nvars, gens)
        assert raised >= 1000 and agreed >= 300, (raised, agreed)

    def test_generator_beyond_nvars_rejected(self):
        # an ideal built without from_supports cannot carry generators on
        # variables past nvars under the size gate
        wide = MonomialIdeal(2, (mask(20, 21), mask(22, 23)))
        with pytest.raises(ValueError):
            hochster_regularity(wide)
        with pytest.raises(ValueError):
            hochster_regularity(MonomialIdeal(3, (-3,)))

    def test_size_gate(self):
        # the oracle's gate: 2n variables for n <= 10 vertices
        assert hochster_regularity(
            MonomialIdeal.from_supports(20, [mask(0, 1)])) == 1
        with pytest.raises(ValueError):
            hochster_regularity(MonomialIdeal.from_supports(21, [mask(0, 1)]))

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
        fire somewhere in the draws: singles (the one call of _without
        that drops vertices of singleton generators only), cone apexes, a
        dominated pair, a join of several factors, and the homology of a
        core, on some core of at least 5 vertices; besides, some dominated
        pair is mutual."""
        fired = Counter()
        core_sizes = set()

        def spy(name, fires, label=None):
            original = getattr(_RestrictedSweep, name)

            def counted(self, *args):
                out = original(self, *args)
                if fires(out, self, *args):
                    fired[label or name] += 1
                return out

            monkeypatch.setattr(_RestrictedSweep, name, counted)

        spy("_dominated", lambda out, *args: out is not None)
        spy("_dominated", lambda out, *args: out is not None and out[2],
            "mutual")
        spy("_link_packs", lambda out, *args: out)
        spy("_gen_components", lambda out, *args: len(out) > 1)
        spy("_solve", lambda out, sweep, *args: anchor_missed(sweep, *args),
            "missed")
        solve = _RestrictedSweep._solve
        core_jj, without = _RestrictedSweep._core_jj, _RestrictedSweep._without

        def apex_solve(self, sigma, internal, floor, anchor=0):
            # the cone-apex rule drops the vertices of a set that no
            # generator inside it covers, once the memo and anchor pass it
            if (sigma not in self._exact and not anchor & ~sigma
                    and sigma & ~self._union(internal)):
                fired["apexes"] += 1
            return solve(self, sigma, internal, floor, anchor)

        def sized_core_jj(self, core, internal, floor):
            core_sizes.add(core.bit_count())
            return core_jj(self, core, internal, floor)

        def singles_without(self, gen_set, verts):
            if verts and not verts & ~single_vertices(self.gens):
                fired["singles"] += 1
            return without(self, gen_set, verts)

        monkeypatch.setattr(_RestrictedSweep, "_solve", apex_solve)
        monkeypatch.setattr(_RestrictedSweep, "_core_jj", sized_core_jj)
        monkeypatch.setattr(_RestrictedSweep, "_without", singles_without)
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
        assert set(fired) == {"singles", "apexes", "_dominated", "mutual",
                              "_link_packs", "_gen_components", "missed"}, fired
        assert max(core_sizes) >= 5, core_sizes

    def test_singles_leave_before_the_recursion(self, monkeypatch):
        """On random ideals that hold singleton generators, no _solve call
        of the sweep sees a singleton in internal or a singleton's vertex
        in sigma, and the values match the full 2^n reference."""
        solve = _RestrictedSweep._solve
        calls = 0

        def checked(self, sigma, internal, floor, anchor=0):
            nonlocal calls
            calls += 1
            singles = single_vertices(self.gens)
            assert not sigma & singles, (self.gens, sigma)
            assert not any(self.gens[i] & singles for i in bits(internal)), (
                self.gens, internal)
            return solve(self, sigma, internal, floor, anchor)

        monkeypatch.setattr(_RestrictedSweep, "_solve", checked)
        rng = random.Random(227)
        with_singles = 0
        for _ in range(60):
            nverts = rng.randint(3, 8)
            ideal = random_ideal(rng, nverts, 10, (1, 2, 2, 3, 3))
            with_singles += single_vertices(ideal.gens) != 0
            expected = naive_monomial_regularity(supports(ideal), nverts)
            assert hochster_regularity(ideal) == expected, supports(ideal)
        assert with_singles >= 30 and calls >= 100, (with_singles, calls)

    def test_anchored_solve_keeps_its_contract(self, monkeypatch):
        """Every _solve call of the sweep on random ideals of up to 8
        vertices, against the full reference table R: the anchor's
        guarantee holds on entry (R(sigma - a) <= floor for each anchor
        vertex a); the answer is R(sigma) when that exceeds floor and
        otherwise lies in [R(sigma), floor]; and a set that the
        missing-anchor rule or the anchored link bound prunes has
        R(sigma) <= floor.  After each sweep every memo entry is R.  Both
        prunes fire in the draws."""
        solve, link_packs = _RestrictedSweep._solve, _RestrictedSweep._link_packs
        fired = Counter()
        frames = []
        table = []

        def checked(self, sigma, internal, floor, anchor=0):
            for a in bits(anchor):
                assert table[sigma & ~(1 << a)] <= floor, (sigma, anchor, a)
            missed = anchor_missed(self, sigma, internal, floor, anchor)
            frames.append(False)
            out = solve(self, sigma, internal, floor, anchor)
            linked = frames.pop()
            r = table[sigma]
            assert out == r if r > floor else r <= out <= floor, (
                sigma, floor, anchor, out, r)
            for rule, fires in (("missed", missed), ("link", linked)):
                if fires:
                    fired[rule] += 1
                    assert r <= floor, (rule, sigma, floor, anchor)
            return out

        def spied_link_packs(self, *args):
            out = link_packs(self, *args)
            frames[-1] |= out
            return out

        monkeypatch.setattr(_RestrictedSweep, "_solve", checked)
        monkeypatch.setattr(_RestrictedSweep, "_link_packs", spied_link_packs)
        rng = random.Random(211)
        for trial in range(60):
            nverts = rng.randint(5, 8)
            ideal = random_ideal(rng, nverts, 12,
                                 (2, 3, 3) if trial % 2 else (1, 2, 3, 3, 4))
            table[:] = restricted_table(ideal)
            sweep = _RestrictedSweep(list(ideal.gens))
            assert sweep.regularity() == table[-1], supports(ideal)
            for sigma, value in sweep._exact.items():
                assert value == table[sigma], (supports(ideal), sigma)
        assert fired["missed"] >= 10 and fired["link"] >= 10, fired

    def test_link_pack_screen_skips_only_failing_greedies(self,
                                                          monkeypatch):
        """Every anchor that _link_packs screens out by counting, in the
        sweeps of random ideals and of in(J_G) of seeded 7- and 8-vertex
        graphs, is one where _packs fails; and the screen fires there."""
        link_packs, packs = _RestrictedSweep._link_packs, _RestrictedSweep._packs
        screened = Counter()

        def spied(self, internal, anchor, need, size):
            tried = []

            def tracked(internal, need, apex):
                tried.append(apex)
                return packs(self, internal, need, apex)

            self._packs = tracked
            try:
                out = link_packs(self, internal, anchor, need, size)
            finally:
                del self._packs
            reached = [1 << a for a in bits(anchor)]
            if out:  # the anchors after the one that packs are not reached
                reached = reached[:reached.index(tried[-1]) + 1]
            for apex in reached:
                if apex not in tried:
                    screened[size] += 1
                    assert not packs(self, internal, need, apex), (
                        self.gens, internal, need, apex)
            return out

        monkeypatch.setattr(_RestrictedSweep, "_link_packs", spied)
        rng = random.Random(211)
        for trial in range(60):
            ideal = random_ideal(rng, rng.randint(5, 8), 12,
                                 (2, 3, 3) if trial % 2 else (1, 2, 3, 3, 4))
            hochster_regularity(ideal)
        random_screens = sum(screened.values())
        for g in TestSweepPins.seeded_connected_8()[:10]:
            hochster_regularity(ideal_of(g))
        assert random_screens >= 30, screened
        assert sum(screened.values()) - random_screens >= 500, screened

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


def test_core_jj_matches_naive():
    """_core_jj against the dense homology of naive_jj on random vertex
    sets, in ideals on up to 9 vertices, that hold at least two generators
    of 2 to 4 vertices: at floor -1 it is jj itself (None when acyclic),
    and at a random floor jj when jj exceeds it, else None.  The faces it
    builds size by size are the subsets of each size that contain no
    generator."""
    rng = random.Random(73)
    seen = Counter()
    checked = 0
    while checked < 60:
        nverts = rng.randint(4, 9)
        ideal = random_ideal(rng, nverts, 8, (2, 2, 3, 3, 4))
        sweep = _RestrictedSweep(list(ideal.gens))
        # the sweep's sets lie in the generators' span
        w = ((rng.getrandbits(nverts) | rng.getrandbits(nverts))
             & sweep._union((1 << len(ideal.gens)) - 1))
        internal = sum(1 << i for i, g in enumerate(ideal.gens) if g & w == g)
        if internal.bit_count() < 2:
            continue
        checked += 1
        inside = [g for g in ideal.gens if g & w == g]
        by_size = [sorted(mask(*c) for c in combinations(bits(w), k)
                          if not any(g & mask(*c) == g for g in inside))
                   for k in range(w.bit_count() + 1)]
        while not by_size[-1]:
            by_size.pop()
        faces = sweep._faces(w, internal)
        assert [sorted(level) for level in faces] == by_size, (inside, w)
        expected = naive_jj(supports(ideal), bits(w))
        seen[expected] += 1
        assert sweep._core_jj(w, internal, -1) == expected, (inside, w)
        floor = rng.randint(-1, w.bit_count())
        above = expected if expected is not None and expected > floor else None
        assert sweep._core_jj(w, internal, floor) == above, (inside, w, floor)
    assert {None, 1, 2} <= set(seen), seen


def test_domination_is_inherited():
    """Whenever _dominated(W, ...) returns (v, D, _), v stays dominated by
    each u of D in the restriction to every tau with {u, v} inside tau
    inside W, checked by listing the faces.  W is a random set of generator
    vertices less its singletons and cone apexes, as the dominated-pair
    rule sees it.  The face check itself is anchored first: with the one
    generator {0, 1} on 3 vertices, 0 is dominated by 2 and 2 not by 0."""
    assert brute_dominates([(0, 1)], {0, 1, 2}, 0, 2)
    assert not brute_dominates([(0, 1)], {0, 1, 2}, 2, 0)
    rng = random.Random(67)
    checked = 0
    for _ in range(150):
        nverts = rng.randint(3, 7)
        ideal = random_ideal(rng, nverts, 8, (1, 2, 3))
        sweep = _RestrictedSweep(list(ideal.gens))
        for w, internal in rule_sets(rng, sweep, nverts, 8):
            dominated = sweep._dominated(w, bits(w), internal)
            if dominated is None:
                continue
            v, dominators, _ = dominated
            assert dominators and w >> v & 1 and dominators & ~w == 0
            assert not dominators >> v & 1
            for u in bits(dominators):
                for _ in range(4):
                    tau = w & rng.getrandbits(nverts) | 1 << u | 1 << v
                    assert brute_dominates(supports(ideal), bits(tau), v, u), (
                        supports(ideal), w, tau, v, u)
                    checked += 1
    assert checked >= 200, checked


def test_mutual_pairs_are_symmetric():
    """Whenever _dominated(W, ...) reports a mutual pair (v, {u}), each of
    the two dominates the other in the restriction to W, by listing the
    faces, and R(W - v) = R(W - u) by the full reference; otherwise v is
    dominated by every u of D and dominates none of them back.  Random
    sets of random ideals of up to 9 vertices, as the dominated-pair rule
    sees them."""
    rng = random.Random(113)
    mutual = one_way = 0
    for _ in range(400):
        nverts = rng.randint(3, 9)
        ideal = random_ideal(rng, nverts, 8, (2, 2, 3))
        sweep = _RestrictedSweep(list(ideal.gens))
        for w, internal in rule_sets(rng, sweep, nverts, 4):
            dominated = sweep._dominated(w, bits(w), internal)
            if dominated is None:
                continue
            v, dominators, both = dominated
            if both:
                assert dominators.bit_count() == 1, dominated
            for u in bits(dominators):
                assert brute_dominates(supports(ideal), bits(w), v, u)
                assert brute_dominates(supports(ideal), bits(w), u, v) == both, (
                    supports(ideal), w, dominated)
            if both:
                mutual += 1
                assert (naive_restricted(ideal, w & ~(1 << v))
                        == naive_restricted(ideal, w & ~dominators)), (
                    supports(ideal), w, dominated)
            else:
                one_way += 1
    assert mutual >= 100 and one_way >= 50, (mutual, one_way)


def test_dominated_vertex_drops_its_dominator_set():
    """For every one-way (v, D) that _dominated returns on random sets of
    random ideals of 5 to 7 vertices, R(W) = max(R(W - v), R(W - D)) by
    the full reference table.  In some draws D has several vertices, and
    in some the second branch alone reaches R(W)."""
    rng = random.Random(131)
    wide = second = checked = 0
    for trial in range(40):
        nverts = rng.randint(5, 7)
        ideal = random_ideal(rng, nverts, 12, (2, 2, 3) if trial % 2 else (2, 3))
        table = restricted_table(ideal)
        sweep = _RestrictedSweep(list(ideal.gens))
        for w, internal in rule_sets(rng, sweep, nverts, 60):
            dominated = sweep._dominated(w, bits(w), internal)
            if dominated is None or dominated[2]:
                continue
            v, dominators, _ = dominated
            first, rest = table[w & ~(1 << v)], table[w & ~dominators]
            assert table[w] == max(first, rest), (supports(ideal), w, v,
                                                  dominators)
            checked += 1
            wide += dominators.bit_count() >= 2
            second += rest > first
    assert checked >= 150 and wide >= 50 and second >= 5, (
        checked, wide, second)


def test_without_matches_vertex_loop():
    """The byte-table lookup of _without against clearing the generators
    through each vertex one at a time, on up to 20 vertices so that masks
    above 16 bits take the third table.  The sweep only removes vertices
    that some generator covers."""
    rng = random.Random(61)
    for _ in range(40):
        nverts = rng.randint(2, 20)
        gens = sorted({mask(*rng.sample(range(nverts),
                                        rng.randint(1, min(3, nverts))))
                       for _ in range(rng.randint(1, 12))})
        sweep = _RestrictedSweep(gens)
        span = sweep._union((1 << len(gens)) - 1)
        for _ in range(20):
            gen_set = rng.getrandbits(len(gens))
            verts = rng.getrandbits(nverts) & span
            expected = {i for i in range(len(gens))
                        if gen_set >> i & 1 and not gens[i] & verts}
            got = sweep._without(gen_set, verts)
            assert got == sum(1 << i for i in expected), (gens, verts)


def test_without_tables_sized_to_the_ideal():
    """_without against the per-vertex loop on ideals whose last vertex is
    each of 0..19, the variables hochster_regularity admits, so the second
    and third byte tables have 1 (a stand-in) to 256 and 16 entries, on
    every vertex set of the span up to 8 vertices and on random ones
    above."""
    rng = random.Random(67)
    for nverts in range(1, 21):
        for _ in range(3):
            gens = sorted({mask(*rng.sample(range(nverts),
                                            rng.randint(1, min(3, nverts))))
                           for _ in range(rng.randint(1, 10))}
                          | {mask(nverts - 1)})
            sweep = _RestrictedSweep(gens)
            assert len(sweep._byte_through[1]) == 1 << min(max(nverts - 8, 0), 8)
            assert len(sweep._byte_through[2]) == 1 << min(max(nverts - 16, 0), 8)
            span = sweep._union((1 << len(gens)) - 1)
            sets = (range(1 << nverts) if nverts <= 8
                    else [rng.getrandbits(nverts) for _ in range(300)])
            for verts in sets:
                verts &= span
                gen_set = rng.getrandbits(len(gens))
                expected = gen_set
                for v in bits(verts):
                    expected &= ~sweep.through[v]
                assert sweep._without(gen_set, verts) == expected, (gens, verts)


def _random_column(rng, nrows, values):
    return {r: rng.choice(values) for r in range(nrows) if rng.random() < 0.4}


def test_rank_matches_fraction_rank():
    """_rank against dense Fraction elimination on sparse integer matrices
    with entries in +-1..+-4, and in every third draw +-1..+-50, where
    the combinations leave a content to divide out; each matrix also has
    an empty column, a duplicate column, an integer combination of two
    columns and a column with no unit entry, which is put first in half
    the draws so that a non-unit top entry is certain to be kept."""
    rng = random.Random(53)
    small = [1, -1, 2, -2, 3, -3, 4, -4]
    wide = [v for v in range(-50, 51) if v]
    for trial in range(450):
        values = small if trial % 3 else wide
        no_unit = [v for v in values if abs(v) > 1]
        nrows = rng.randint(1, 9)
        cols = [_random_column(rng, nrows, values)
                for _ in range(rng.randint(1, 7))]
        a, b = rng.choice(cols), rng.choice(cols)
        ka, kb = rng.choice(values), rng.choice(values)
        combo = {r: ka * a.get(r, 0) + kb * b.get(r, 0) for r in range(nrows)}
        cols += [{}, dict(rng.choice(cols)),
                 {r: v for r, v in combo.items() if v}]
        rng.shuffle(cols)
        bare = _random_column(rng, nrows, no_unit) or {0: 2}
        cols.insert(0 if trial % 2 else rng.randint(0, len(cols)), bare)
        dense = [[col.get(r, 0) for col in cols] for r in range(nrows)]
        assert _rank([dict(col) for col in cols]) == _fraction_rank(dense), cols


# the 10 triangles of the 6-vertex real projective plane (1-based labels);
# every edge lies in two of them and every vertex link is a 5-cycle
RP2_TRIANGLES = ["124", "126", "135", "136", "145",
                 "234", "235", "256", "346", "456"]


class TestModTwoScreen:
    """GF(2) proves a Betti number zero; only exact elimination proves one
    nonzero."""

    @staticmethod
    def rp2():
        """The Stanley-Reisner ideal of RP^2_6: its 10 minimal non-faces,
        the triples that are not triangles, all cubic."""
        faces = {frozenset(int(c) - 1 for c in t) for t in RP2_TRIANGLES}
        return MonomialIdeal.from_supports(
            6, [mask(*c) for c in combinations(range(6), 3)
                if frozenset(c) not in faces])

    def test_projective_plane_is_rational(self, monkeypatch):
        """Over Q, RP^2 is acyclic and reg = 2; over GF(2) it has homology
        in degree 2, so a sweep that trusted GF(2) would give 3.  The sweep
        reaches the whole plane as a core at floor 2: its 10 triangles
        have a boundary map of rank 9 mod 2, and _rank confirms rank 10."""
        ideal = self.rp2()
        assert len(ideal.gens) == 10
        assert all(g.bit_count() == 3 for g in ideal.gens)
        calls = {"mod2": [], "rational": []}
        for name, kind in (("_rank_mod2", "mod2"), ("_rank", "rational")):
            original = getattr(hochster, name)

            def spied(columns, _original=original, _kind=kind):
                out = _original(columns)
                calls[_kind].append((len(columns), out))
                return out

            monkeypatch.setattr(hochster, name, spied)
        assert hochster_regularity(ideal) == 2
        assert (10, 9) in calls["mod2"]
        assert (10, 10) in calls["rational"]
        assert naive_monomial_regularity(supports(ideal), 6) == 2
        sweep = _RestrictedSweep(list(ideal.gens))
        everything = (1 << 10) - 1
        assert sweep._core_jj(mask(*range(6)), everything, -1) is None

    def test_rank_mod2_matches_dense_reference(self):
        """_rank_mod2 against dense GF(2) elimination, and never above the
        rational rank, on integer matrices with entries in -2..2 whose
        columns include duplicates, sums of two columns and columns that
        vanish mod 2."""
        rng = random.Random(89)
        below = 0
        for _ in range(300):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            dense = [[rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(ncols)]
                     for _ in range(nrows)]
            for row in dense:
                a, b = rng.randrange(ncols), rng.randrange(ncols)
                row.append(row[a] + row[b])
                row.append(row[a])
            columns = [sum(1 << r for r in range(nrows) if dense[r][c] % 2)
                       for c in range(ncols + 2)]
            assert _rank_mod2(columns) == gf2_rank(dense), dense
            assert _rank_mod2(columns) <= _fraction_rank(dense), dense
            below += _rank_mod2(columns) < _fraction_rank(dense)
        assert below >= 20, below


def test_union_matches_generator_loop():
    """The byte-table union of a generator bitset against OR-ing the
    generators one by one, on up to 20 vertices and 40 generators, so that
    bitsets reach past several bytes and the last table is partial."""
    rng = random.Random(97)
    for _ in range(60):
        nverts = rng.randint(2, 20)
        gens = [mask(*rng.sample(range(nverts), rng.randint(1, min(4, nverts))))
                for _ in range(rng.randint(1, 40))]
        sweep = _RestrictedSweep(gens)
        for _ in range(20):
            gen_set = rng.getrandbits(len(gens))
            expected = 0
            for i in bits(gen_set):
                expected |= gens[i]
            assert sweep._union(gen_set) == expected, (gens, gen_set)
        assert sweep._union(0) == 0


def test_dominated_matches_reference_scan():
    """_dominated, on precomputed covers, returns the triple of the scan
    that intersects through[w] per generator and tries each candidate u,
    whole dominator set included, on random sets of random ideals of up to
    12 vertices; the sets are taken as the dominated-pair rule sees them,
    less singletons and apexes."""
    rng = random.Random(101)
    found = missed = 0
    for _ in range(200):
        nverts = rng.randint(3, 12)
        ideal = random_ideal(rng, nverts, 14, (1, 2, 2, 3, 3, 4))
        sweep = _RestrictedSweep(list(ideal.gens))
        for w, internal in rule_sets(rng, sweep, nverts, 6):
            dominated = sweep._dominated(w, bits(w), internal)
            assert dominated == reference_dominated(sweep, w, bits(w),
                                                    internal), (ideal.gens, w)
            found += dominated is not None
            missed += dominated is None and internal.bit_count() >= 2
    assert found >= 100 and missed >= 15, (found, missed)


class TestLinkScreen:
    """A core is skipped when the link of its least vertex is acyclic mod 2
    in degrees floor - 1 .. |core| - 4."""

    @staticmethod
    def link_betti(ideal, core, v):
        """Naive rational Betti numbers of the link of v in the restriction
        to core: the complex on core - v of the generators g - v for g
        through v and g for the others, inside core."""
        inside = [g for g in ideal.gens if g & core == g]
        link_gens = [bits(g & ~(1 << v)) for g in inside]
        return naive_betti(link_gens, bits(core & ~(1 << v)))

    def test_acyclic_link_has_no_rational_homology(self):
        """Whenever _link_acyclic is true, the link's rational homology, by
        the dense reference, vanishes in the screened degrees; random cores
        of ideals on up to 9 vertices at random floors."""
        rng = random.Random(103)
        passed = failed = 0
        while passed + failed < 150:
            nverts = rng.randint(4, 9)
            ideal = random_ideal(rng, nverts, 10, (2, 2, 3, 3, 4))
            sweep = _RestrictedSweep(list(ideal.gens))
            w = ((rng.getrandbits(nverts) | rng.getrandbits(nverts))
                 & sweep._union((1 << len(ideal.gens)) - 1))
            internal = sum(1 << i for i, g in enumerate(ideal.gens)
                           if g & w == g)
            if internal.bit_count() < 2:
                continue
            floor = rng.randint(0, w.bit_count() - 3)
            if not sweep._link_acyclic(w, internal, floor):
                failed += 1
                continue
            passed += 1
            v = bits(w)[0]
            betti = self.link_betti(ideal, w, v)
            for h in range(floor - 1, w.bit_count() - 3):
                assert not betti.get(h), (ideal.gens, w, floor, v, betti)
        assert passed >= 40 and failed >= 40, (passed, failed)

    def test_screen_off_gives_the_same_values(self, monkeypatch):
        """Sweeps with the screen forced off agree with the screened ones
        on in(J_G) of 40 seeded 7- and 8-vertex graphs, and the screen
        skips cores in them."""
        rng = random.Random(107)
        ideals = []
        while len(ideals) < 40:
            n = 7 + len(ideals) % 2
            g = gr.Graph.from_edges(n, [(u, v) for u in range(n)
                                        for v in range(u + 1, n)
                                        if rng.random() < 0.45])
            if gr.is_connected(g):
                ideals.append(ideal_of(g))
        skipped = Counter()
        screen = _RestrictedSweep._link_acyclic

        def counted(self, core, internal, floor):
            out = screen(self, core, internal, floor)
            skipped[out] += 1
            return out

        monkeypatch.setattr(_RestrictedSweep, "_link_acyclic", counted)
        screened = [hochster_regularity(ideal) for ideal in ideals]
        assert skipped[True] >= 100, skipped
        monkeypatch.setattr(_RestrictedSweep, "_link_acyclic",
                            lambda *args: False)
        assert [hochster_regularity(ideal) for ideal in ideals] == screened


class TestSweepPins:
    """Values and recursion size of the sweep.  The values date from
    before its kernel was screened mod 2 and read generator unions from
    byte tables, the sizes from after the anchored rules.  A change to the
    kernel that alters a value, or the sets the recursion visits, changes
    a pin."""

    # sha256 over (n, edges, oracle_reg) of every connected class with
    # 2 <= n <= 7 (995 classes) and 30 seeded connected 8-vertex graphs
    VALUES_SHA256 = \
        "c0bc9c6a5c55a4a4afd5125af014ab2b58940f907f8f52365226cfe224d09f94"
    # _solve and _branch calls over in(J_G) of every connected class with
    # n <= 6, in the given labelling and in the oracle's relabelling
    SOLVE_CALLS, BRANCH_CALLS = 3848, 1933
    ORACLE_SOLVE_CALLS, ORACLE_BRANCH_CALLS = 3259, 1588

    @staticmethod
    def seeded_connected_8():
        rng = random.Random(83)
        out = []
        while len(out) < 30:
            g = gr.Graph.from_edges(8, [(u, v) for u in range(8)
                                        for v in range(u + 1, 8)
                                        if rng.random() < 0.45])
            if gr.is_connected(g):
                out.append(g)
        return out

    def test_oracle_values_match_the_pinned_digest(self, monkeypatch):
        monkeypatch.setattr(rg, "_oracle_memo", {})
        graphs = [g for n in range(2, 8)
                  for g in gr.enumerate_graphs(n, connected_only=True)]
        assert len(graphs) == 995
        digest = hashlib.sha256()
        for g in graphs + self.seeded_connected_8():
            digest.update(repr((g.n, g.edges(), rg.oracle_reg(g))).encode())
        assert digest.hexdigest() == self.VALUES_SHA256

    @staticmethod
    def count_calls(monkeypatch, ideals):
        calls = Counter()
        for name in ("_solve", "_branch"):
            original = getattr(_RestrictedSweep, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(_RestrictedSweep, name, counted)
        for ideal in ideals:
            hochster_regularity(ideal)
        return calls["_solve"], calls["_branch"]

    def test_recursion_size_is_pinned(self, monkeypatch):
        ideals = [ideal_of(g) for n in range(1, 7)
                  for g in gr.enumerate_graphs(n, connected_only=True)]
        assert self.count_calls(monkeypatch, ideals) == (
            self.SOLVE_CALLS, self.BRANCH_CALLS)

    def test_oracle_recursion_size_is_pinned(self, monkeypatch):
        ideals = [rg._initial_ideal(g) for n in range(2, 7)
                  for g in gr.enumerate_graphs(n, connected_only=True)]
        assert self.count_calls(monkeypatch, ideals) == (
            self.ORACLE_SOLVE_CALLS, self.ORACLE_BRANCH_CALLS)


def test_oracle_ideal_is_the_normalised_lead_ideal():
    """The oracle takes the sorted leads of its reduced basis as the
    minimal generators, with no minimalization.  On every connected class
    with 2 <= n <= 7 and the seeded 8-vertex graphs, in the given labelling
    and in the oracle's, the leads of lex_groebner are strictly increasing
    and are initial_ideal's generators, and _initial_ideal is the
    normalised ideal of the relabelled basis."""
    graphs = [g for n in range(2, 8)
              for g in gr.enumerate_graphs(n, connected_only=True)]
    assert len(graphs) == 995
    for g in graphs + TestSweepPins.seeded_connected_8():
        relabelled = rg._relabelled(g)
        for h in (g, relabelled):
            basis = lex_groebner(h)
            leads = [lead for lead, _ in basis]
            assert all(a < b for a, b in zip(leads, leads[1:])), h.edges()
            assert tuple(leads) == initial_ideal(basis, 2 * h.n).gens
        assert rg._initial_ideal(g) == initial_ideal(
            lex_groebner(relabelled), 2 * g.n), g.edges()
