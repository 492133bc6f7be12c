"""Regularity of a squarefree monomial quotient via reduced homology of
vertex-restricted Stanley-Reisner complexes, over the rationals.

By Hochster's formula the quotient's regularity is the largest jj(tau)
over the vertex subsets tau, where jj(tau) is h + 1 for the top degree h
in which the complex restricted to tau, Delta_tau, has nonzero reduced
homology; an acyclic restriction contributes nothing, and the empty set
({emptyset}, homology in degree -1) contributes 0.  The sweep computes
R(W), the largest jj(tau) over the subsets tau of W, by a memoized
recursion with R(emptyset) = 0.  A vertex that is itself a generator lies
in no face and, the generators being minimal, in no other generator, so
these singles leave with their generators before the recursion, which
starts at the span of the rest.  A restriction drops generators but never
shrinks one, so the recursion meets no single.  Five exact rules apply,
in this order:

  * cone apexes: a vertex in no generator inside W is the apex of a cone,
    so every restriction through it is acyclic, and it is dropped;
  * one generator: W is then that generator, Delta_W is the boundary of
    the simplex on W, and R(W) = |W| - 1;
  * dominated vertex: if v is dominated in Delta_W by each vertex u of a
    set D (every face through v extends by u), then R(W) = max(R(W - v),
    R(W - D)), and R(W - v) alone when v dominates some u of D back,
    which is then taken as D = {u};
  * join: if the generators inside W fall into several classes linked by
    shared vertices, every Delta_tau is the join of its restrictions to
    the classes' vertex groups, jj adds over a join (Kuenneth formula),
    and R(W) is the sum of R over the groups;
  * core: otherwise R(W) = max(jj(W), the largest R(W - x) over x in W),
    and jj(W) comes from homology.

The dominated-vertex rule is exact.  Take u in D and tau inside W with
u, v in tau.  A face F through v of Delta_tau is a face of Delta_W, so
F + u is a face of Delta_W, and it lies in tau.  Hence v stays dominated
by u in Delta_tau, a strong collapse (Barmak & Minian, DCG 2012) keeps
its homotopy type without v, and jj(tau) = jj(tau - v) <= R(W - v).  A
tau that misses v lies in W - v, so every tau with jj(tau) > R(W - v)
holds v and misses D, and lies in W - D.  When v also dominates u, the
swap (u v) takes a face F through v but not u into F + u, and one
through u but not v into F + v, so it is a simplicial automorphism of
Delta_W.  It maps each Delta_tau onto Delta_{swap tau}, R(W - v) =
R(W - u), and the rule with D = {u} gives R(W) = R(W - v).

With two or more generators inside W the recursion prunes by the bound
R(W) <= |W| - 2.  Homology in degree h of Delta_tau needs h <= |tau| - 2,
and at h = |tau| - 2 the cycle is the boundary of the simplex on tau, so
every proper subset of tau is a face and tau is a generator.  Such a tau
is a proper subset of W, since no other generator lies inside a generator,
so jj(tau) = |tau| - 1 <= |W| - 2, and every other tau has jj(tau) <=
|tau| - 2.  The same fact caps a core's homology at h <= |W| - 3.

_solve(W, t) returns R(W) exactly when R(W) > t, and otherwise an upper
bound on it that is at most t; a set that a bound puts at or below t
returns that bound at once.  One memo holds the exact values, and no
upper bound is kept.  The second set of a dominated vertex, each further
set of a core and the core's own jj(W) get the running best as their
threshold, and a join factor gets t minus the other factors' current
bounds.

A vertex set A, the anchor, rides along with t: every subset of W that
misses a vertex of A has jj at most t.  So every tau with jj(tau) > t
contains A, and the memo stays keyed by W.  Three exact rules use it.
The set W - D of a dominated vertex gets A + v, since a subset of W - D
that misses v lies in W - v, which the first branch has bounded by the
threshold of W - D; likewise each set W - x of a core gets A and the x
looped over before it, and the loop skips the x in A.  Thresholds never
fall along these steps, but they do into a join factor, which starts
with no anchor.  A set that has lost a vertex of A returns t.  And W
returns t when some a in A has p >= |W| - t pairwise disjoint sets
g - a, for g the generators inside W: a tau with jj(tau) > t contains a,
and Delta_{tau - a} has no homology in degrees h >= t, so the exact
sequence of the link screen below gives the link of a in Delta_tau a
face F with |F| >= t; F + a holds no generator, so F misses a vertex of
each g - a, p distinct vertices, and |F| <= |W| - 1 - p < t.  The sets
are picked greedily in generator index order, which stops once it
prunes.  They lie in W - a, and only a generator {a, w} leaves one
vertex, so an a with fewer than 2p - |W| + 1 of them is skipped without
the greedy.

A core's homology is taken of Delta_W itself.  Its faces are built size
by size: a face F + v grows by each vertex w > v for which F + w is a
face, and only the generators through both v and w are tested.  The
largest nonempty size caps the degrees, and the scan goes down from the
top and stops at degrees whose h + 1 cannot beat its floor.

Before that, a core is screened through the link of one vertex v.  After
the loop over W - x, every R(W - x) is at most F = max(floor, best), so
Delta_{W - v} has no homology in the degrees h >= F.  The exact sequence
of the pair (Delta_W, Delta_{W - v}) then embeds H~_h(Delta_W) in
H~_{h-1}(lk v), and a link with no homology mod 2 (so none over Q, see
below) in the degrees F - 1 to |W| - 4 proves jj(W) <= F without the
core's own faces.  v is the least vertex of W, and the link's faces are
the faces of Delta_W through v, built by the same rule from v.

The bookkeeping is done on generator indices.  Each sweep indexes the
generators once: through[v] is the int bitset of the generators through
vertex v, and pairs[v] that of the generators {v, w}.  The generators
inside W are all of them with through[v] cleared for every v outside W,
read from three tables that hold the union of through[v] over each byte
of vertices, each sized to the vertices the ideal has in its byte;
hochster_regularity admits at most 20 variables, so the three bytes hold
every vertex.  The union of a generator bitset is read the same way, from
one table per 8 generator indices.  The domination test for v ORs, over
the generators g through v, a bitset kept per (g, v): the generators
through every vertex of g but v.  That settles every candidate u at once.
A join factor grows by flood fill over these bitsets.

Homology is computed over GF(2) first.  A boundary column is an int
bitset over the row indices, and elimination XORs columns on their top
row.  rank over GF(2) <= rank over Q, so a Betti number that is 0 mod 2
is 0 over Q: that proves most of a sweep's zeros, and every link screen.
It cannot prove a nonzero one.  The 6-vertex real projective plane has
homology mod 2 in degree 2 and none over Q, so its quotient has
regularity 3 over GF(2) and 2 over Q (Bruns & Herzog, Cohen-Macaulay
Rings, 5.3).  Wherever GF(2) reports homology in a core, exact integer
elimination on the same two maps confirms or overrules it.  _rank is the
integer twin of _rank_mod2: it clears each column on its top row by an
integer combination with the kept column there, so every value is the
characteristic-zero one, with no floating point anywhere.
"""

from __future__ import annotations

from math import gcd

from .graphs import bits
from .groebner import GROEBNER_MAX_VARIABLES, MonomialIdeal, _byte_unions


def _rank(columns):
    """Rank over the rationals of an integer matrix given as sparse columns
    (dicts row -> value), the integer twin of _rank_mod2: each column is
    cleared on its top row by an integer combination with the kept column
    of that row and divided by its content, until its top row is new, and
    is then kept."""
    kept = {}
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            top = max(col)
            pivot = kept.get(top)
            if pivot is None:
                kept[top] = col
                break
            # col becomes a * col - b * pivot, whose top row is 0
            a, b = pivot[top], col.pop(top)
            for r in col:
                col[r] *= a
            for r, v in pivot.items():
                if r != top:
                    v = col.get(r, 0) - b * v
                    if v:
                        col[r] = v
                    else:
                        del col[r]
            content = gcd(*col.values())
            if content > 1:
                col = {r: v // content for r, v in col.items()}
    return len(kept)


def _rank_mod2(columns):
    """Rank over GF(2) of a matrix given as int bitset columns over its row
    indices: each column is cleared by XOR with the kept column of its top
    row until its top row is new, and is then kept."""
    kept = {}
    for col in columns:
        while col:
            top = col.bit_length()
            pivot = kept.get(top)
            if pivot is None:
                kept[top] = col
                break
            col ^= pivot
    return len(kept)


def _top_homology(levels, low, high, root=0, exact=True):
    """The top degree h in [low, high] in which the chain complex of levels
    has nonzero reduced homology, or None.  levels[k] lists the faces of
    size k, each a vertex mask that also carries the vertices of root,
    which the boundary map skips, and levels[0] is the one empty face.

    Over GF(2) unless exact.  rank over GF(2) <= rank over Q, so a zero
    Betti number mod 2 proves the rational one zero; when exact, only a
    degree with homology mod 2 has its rational Betti number computed, by
    _rank on the same two maps."""
    ranks = {}

    def rank(k, mod2):
        """Rank of the boundary map from the faces of size k to those of
        size k - 1, and 0 past the largest face."""
        if not 0 < k < len(levels):
            return 0
        if (k, mod2) not in ranks:
            if mod2:
                row = {f: 1 << i for i, f in enumerate(levels[k - 1])}
                columns = []
                for f in levels[k]:
                    col = 0
                    for v in bits(f & ~root):
                        col |= row[f & ~(1 << v)]
                    columns.append(col)
                ranks[k, mod2] = _rank_mod2(columns)
            else:
                row = {f: i for i, f in enumerate(levels[k - 1])}
                columns = []
                for f in levels[k]:
                    col = {}
                    sign = 1
                    for v in bits(f & ~root):
                        col[row[f & ~(1 << v)]] = sign
                        sign = -sign
                    columns.append(col)
                ranks[k, mod2] = _rank(columns)
        return ranks[k, mod2]

    def betti(h, mod2):
        return len(levels[h + 1]) - rank(h + 1, mod2) - rank(h + 2, mod2)

    for h in range(min(high, len(levels) - 2), low - 1, -1):
        if not betti(h, True):
            continue
        if not exact:
            return h
        rational = betti(h, False)
        if rational < 0:
            raise RuntimeError("negative Betti number: rank computation bug")
        if rational > 0:
            return h
    return None


class _RestrictedSweep:
    """Sweep machinery for one squarefree ideal, given by its
    inclusion-minimal generators.  A set of generators is an int bitset
    over their indices in gens."""

    def __init__(self, gens):
        self.gens = gens
        through = self.through = [0] * max(gens).bit_length()
        pairs = self.pairs = [0] * len(through)
        members = [bits(g) for g in gens]
        for i, verts in enumerate(members):
            for v in verts:
                through[v] |= 1 << i
                if len(verts) == 2:
                    pairs[v] |= 1 << i
        # the OR of through[v] over the set bits of a byte of vertices,
        # for vertices 0-7, 8-15 and 16-23, sized to the vertices there are
        # (a stand-in [0] for a byte with none), and the union of the
        # generators over the set bits of each byte of generator indices
        tables = _byte_unions(through)
        self._byte_through = tuple(tables + [[0]] * (3 - len(tables)))
        self._byte_gens = _byte_unions(gens)
        # _covers[v]: for each generator g through v, (its bit, g, the
        # generators through every vertex of g but v), all generators when
        # g is v alone
        covers = self._covers = [[] for _ in through]
        for i, (g, verts) in enumerate(zip(gens, members)):
            for v in verts:
                containing = -1
                for w in verts:
                    if w != v:
                        containing &= through[w]
                covers[v].append((1 << i, g, containing))
        # R(W) by vertex set W, where it is known exactly
        self._exact: dict[int, int] = {0: 0}

    def _union(self, gen_set):
        """The union of the vertex masks of the generators of gen_set."""
        union = 0
        for table in self._byte_gens:
            union |= table[gen_set & 0xFF]
            gen_set >>= 8
        return union

    def _without(self, gen_set, verts):
        """The generators of gen_set that miss every vertex of verts."""
        low_byte, high_byte, top_byte = self._byte_through
        if verts < 0x10000:
            return gen_set & ~(low_byte[verts & 0xFF] | high_byte[verts >> 8])
        return gen_set & ~(low_byte[verts & 0xFF] | high_byte[verts >> 8 & 0xFF]
                           | top_byte[verts >> 16])

    def _gen_components(self, sigma, internal):
        """Join factors of the restriction to sigma, whose generators are
        the bitset internal: (vertex group, its generator bitset) per class
        of generators linked by shared vertices, grown from a vertex by
        flood fill over the generators through each vertex reached.  For
        sigma the union of its generators the groups partition sigma, so
        no factor is a bare simplex (cone)."""
        through, union = self.through, self._union
        groups = []
        while sigma:
            group = fresh = sigma & -sigma
            comp = 0
            while fresh:
                reach = 0
                for v in bits(fresh):
                    here = through[v] & internal
                    comp |= here
                    reach |= union(here)
                fresh = reach & ~group
                group |= fresh
            groups.append((group, comp))
            sigma &= ~group
        return groups

    def _dominators(self, sigma, v, internal):
        """The vertices u of sigma that dominate v in the restriction to
        sigma, as a bitset; internal is the generator bitset of that
        restriction.

        v is dominated by u when every generator g through u, with u
        swapped for v, contains a generator g2.  Such a g2 passes through v:
        otherwise g2 lies in g minus u, a proper subset of g, which the
        minimality of the generators rules out.  So only the generators
        through v are scanned.  For the same reason u shares no generator
        with v: for g through both, g2 would lie in g minus u.  (Were the
        generators not minimal, the narrower scan would only find fewer
        dominations, never a wrong one.)  For such a u, g with u swapped
        for v contains g2 exactly when g contains g2 minus v, so the test
        for all u at once is one bitset: covers, the generators that
        contain g2 minus v for some g2 through v, an OR of the _covers
        entries.  u is dominating when no generator outside covers passes
        through it."""
        near = covers = 0
        for bit, g2, containing in self._covers[v]:
            if internal & bit:
                near |= g2
                covers |= containing
        others = sigma & ~near  # the candidates u
        if not others:
            return 0
        uncovered = internal & ~covers
        for table in self._byte_gens:
            others &= ~table[uncovered & 0xFF]
            uncovered >>= 8
        return others

    def _dominated(self, sigma, verts, internal):
        """A triple (v, D, mutual) for the first vertex v of sigma (whose
        vertices are verts) that some vertex dominates in the restriction
        to sigma, or None; internal is the generator bitset of that
        restriction.  D is a vertex bitset: the least dominator u that v
        dominates back, alone, with mutual True; otherwise every dominator
        of v, with mutual False.  The swap (u v) of a mutual pair maps the
        generators inside sigma onto themselves, so u and v lie in equally
        many of them, which is tested before the dominators of u are."""
        through, dominators = self.through, self._dominators
        for v in verts:
            above = dominators(sigma, v, internal)
            if above:
                count = (through[v] & internal).bit_count()
                for u in bits(above):
                    if ((through[u] & internal).bit_count() == count
                            and dominators(sigma, u, internal) >> v & 1):
                        return v, 1 << u, True
                return v, above, False
        return None

    # -- homology of a core ------------------------------------------------

    def _faces(self, sigma, internal, root=0):
        """The faces of the restriction to sigma that contain root, whose
        generators are the bitset internal and none a single vertex, as one
        list of vertex masks per size above root's, from root itself to the
        largest.  Each face F carries the vertices, above its largest
        vertex outside root, that extend it.  F + v + w, for v < w two of
        them, is a face unless a generator through both v and w lies in it,
        since every other generator there lies in F + v or F + w; so only
        those generators are tested."""
        through, without = self.through, self._without
        ext = 0
        for w in bits(sigma & ~root):
            if not without(internal & through[w], sigma & ~(root | 1 << w)):
                ext |= 1 << w
        level = [(root, ext)]
        levels = [[root]]
        while True:
            grown = []
            for face, ext in level:
                for v in bits(ext):
                    bigger = face | 1 << v
                    near = internal & through[v]
                    more = 0
                    for w in bits(ext & -(2 << v)):
                        both = near & through[w]
                        if not (both and without(both, sigma & ~(bigger | 1 << w))):
                            more |= 1 << w
                    grown.append((bigger, more))
            if not grown:
                return levels
            levels.append([face for face, _ in grown])
            level = grown

    def _core_jj(self, core, internal, floor):
        """jj(core) when it exceeds floor, else None, from the boundary
        maps of the restriction to core itself.  core is a set that no rule
        before the core rule shrinks, splits or closes, so its generator
        bitset internal holds at least two generators and homology in
        degree h needs h <= |core| - 3, besides a face of size h + 1."""
        h = _top_homology(self._faces(core, internal), max(floor, 0),
                          core.bit_count() - 3)
        return None if h is None else h + 1

    def _link_acyclic(self, core, internal, floor):
        """True when the link of one vertex v in the restriction to core
        shows that jj(core) <= floor, given that R(core - x) <= floor for
        every vertex x of core.

        H~_h(Delta_{core - v}) is then 0 for h >= floor, and the exact
        sequence of the pair (Delta_core, Delta_{core - v}), whose relative
        homology is that of the star of v modulo the link, embeds
        H~_h(Delta_core) in H~_{h-1}(lk v).  Homology of the core in the
        degrees floor <= h <= |core| - 3 therefore needs homology of the
        link in degree h - 1, and the link has none there when it has none
        mod 2.  v is the least vertex of core, and the link's faces are the
        faces through v, v left out."""
        low, high = max(floor, 0) - 1, core.bit_count() - 4
        if high < low:
            return True
        root = core & -core
        levels = self._faces(core, internal, root)
        return _top_homology(levels, low, high, root=root, exact=False) is None

    # -- the recursion -----------------------------------------------------

    def _packs(self, internal, need, apex):
        """True when need pairwise disjoint sets g - apex, for g among the
        generators of the bitset internal, are found by a greedy pick in
        index order: the least generator left is picked, and every
        generator that meets it outside apex is dropped."""
        gens, without = self.gens, self._without
        while internal:
            need -= 1
            if not need:
                return True
            internal = without(
                internal, gens[(internal & -internal).bit_length() - 1] & ~apex)
        return False

    def _link_packs(self, internal, anchor, need, size):
        """True when _packs finds need pairwise disjoint sets g - a for
        some vertex a of anchor: the anchored link bound.  The sets lie in
        the size - 1 vertices of sigma other than a, and only a generator
        {a, w} gives a set of one vertex, so need of them take at least
        2 need - pairs(a) vertices.  An a with pairs(a) < 2 need - size + 1
        is skipped without the greedy, which would fail there."""
        pairs, least = self.pairs, 2 * need - size + 1
        for a in bits(anchor):
            if ((pairs[a] & internal).bit_count() >= least
                    and self._packs(internal, need, 1 << a)):
                return True
        return False

    def _solve(self, sigma, internal, floor, anchor=0):
        """R(sigma), the largest jj over the subsets of sigma, when it
        exceeds floor; otherwise an upper bound on it that is at most
        floor.  internal is the generator bitset of the restriction to
        sigma, and every subset of sigma that misses a vertex of anchor
        has jj at most floor.  Every set the cone-apex rule passes through
        has the same R, so the answer is kept under each of them, when it
        is exact."""
        exact, byte_gens = self._exact, self._byte_gens
        path = []
        while sigma not in exact:
            path.append(sigma)
            if anchor & ~sigma:  # every subset misses an anchor vertex
                answer = floor
                break
            # a vertex in no generator of internal is a cone apex
            span, rest = 0, internal
            for table in byte_gens:
                span |= table[rest & 0xFF]
                rest >>= 8
            if sigma & ~span:
                sigma &= span
                continue
            if internal & (internal - 1) == 0:
                # one generator, all of sigma: the boundary of a simplex
                exact[sigma] = sigma.bit_count() - 1
                continue
            verts = bits(sigma)
            answer = len(verts) - 2  # two generators or more
            need = len(verts) - floor  # disjoint sets g - a that prune
            if (anchor and 2 < need < len(verts)
                    and self._link_packs(internal, anchor, need, len(verts))):
                answer = floor
            if answer > floor:
                answer = self._branch(sigma, verts, internal, floor, anchor)
            break
        else:
            answer = exact[sigma]
        if answer > floor or sigma in exact:
            for s in path:
                exact[s] = answer
        return answer

    def _branch(self, sigma, verts, internal, floor, anchor):
        """_solve on a set that the cone-apex rule leaves as it is, with two
        generators or more and a bound |sigma| - 2 that exceeds floor: the
        dominated-vertex, join and core rules, in that order."""
        through = self.through
        solve = self._solve
        dominated = self._dominated(sigma, verts, internal)
        if dominated is not None:
            v, dominators, mutual = dominated
            first = solve(sigma & ~(1 << v), internal & ~through[v], floor,
                          anchor)
            if mutual:  # the swap (u v) gives R(sigma - u) = R(sigma - v)
                return first
            second = solve(sigma & ~dominators,
                           self._without(internal, dominators),
                           max(floor, first), anchor | 1 << v)
            return max(first, second)
        factors = self._gen_components(sigma, internal)
        if len(factors) > 1:
            # each factor must beat floor less the others' current bounds:
            # the memo's, or else |group| - 1
            exact = self._exact
            bounds = [exact.get(group, group.bit_count() - 1)
                      for group, _ in factors]
            total = sum(bounds)
            for i, (group, group_internal) in enumerate(factors):
                if total <= floor:
                    break
                rest = total - bounds[i]
                bounds[i] = solve(group, group_internal, floor - rest)
                total = rest + bounds[i]
            return total
        best = 0
        for v in verts:
            bit = 1 << v
            if anchor & bit:
                continue
            best = max(best, solve(sigma & ~bit, internal & ~through[v],
                                   max(floor, best), anchor))
            anchor |= bit
        # every R(sigma - v) is now at most max(floor, best), a skipped
        # anchor's too, so that, not best, bounds R(sigma) when jj(sigma)
        # does not beat it.  The faces through one vertex are a fraction of
        # the core's, so the link screen pays on cores of every size, and a
        # core's faces are built only where it fails.
        floor = max(floor, best)
        if self._link_acyclic(sigma, internal, floor):
            return floor
        top = self._core_jj(sigma, internal, floor)
        return floor if top is None else top

    def regularity(self):
        """R of the span of the generators, which must be inclusion-minimal,
        once the singles have left with their generators."""
        singles = sum(g for g in self.gens if g & (g - 1) == 0)
        internal = self._without((1 << len(self.gens)) - 1, singles)
        return self._solve(self._union(internal), internal, -1)


def hochster_regularity(ideal: MonomialIdeal) -> int:
    """Castelnuovo-Mumford regularity of the quotient by a squarefree
    monomial ideal, over the rationals; 0 for the zero ideal.  Gated at the
    Groebner basis's variable limit, the largest ideal the oracle builds.
    Raises ValueError unless the generators are inclusion-minimal and
    distinct.  MonomialIdeal.from_supports leaves them so, and so are the
    leads of a reduced Groebner basis, which the oracle takes unchanged."""
    if ideal.nvars > GROEBNER_MAX_VARIABLES:
        raise ValueError(
            f"hochster_regularity is limited to {GROEBNER_MAX_VARIABLES} "
            f"vertices (got {ideal.nvars})")
    for g in ideal.gens:
        if g == 0:
            raise ValueError("the unit ideal has no Stanley-Reisner complex")
        if g < 0 or g >> ideal.nvars:
            raise ValueError(
                f"generator mask {g} is not a set of {ideal.nvars} variables")
    if not ideal.gens:
        return 0
    sweep = _RestrictedSweep(ideal.gens)
    through = sweep.through
    # the generators that contain g, those through every vertex of g: g
    # alone when the generators are minimal
    for v, entries in enumerate(sweep._covers):
        for bit, g, containing in entries:
            if containing & through[v] != bit:
                raise ValueError(
                    f"generator mask {g} is not minimal: it lies in another")
    return sweep.regularity()
