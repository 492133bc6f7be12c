"""Regularity of a squarefree monomial quotient via reduced homology of
vertex-restricted Stanley-Reisner complexes, over the rationals.

By Hochster's formula the quotient's regularity is the largest jj(tau)
over the vertex subsets tau, where jj(tau) is h + 1 for the top degree h
in which the complex restricted to tau, Delta_tau, has nonzero reduced
homology; an acyclic restriction contributes nothing, and the empty set
({emptyset}, homology in degree -1) contributes 0.  The sweep computes
R(W), the largest jj(tau) over the subsets tau of W, by a memoized
recursion that starts at the span of the generators, with R(emptyset) = 0.
Five exact rules apply, in this order:

  * singles: a vertex that is itself a generator lies in no face, so it
    is dropped;
  * cone apexes: a vertex in no generator inside W is the apex of a cone,
    so every restriction through it is acyclic, and it is dropped;
  * dominated pair: if v is dominated by u in Delta_W (every face through
    v extends by u), then R(W) = max(R(W - v), R(W - u));
  * join: if the generators inside W fall into several classes linked by
    shared vertices, every Delta_tau is the join of its restrictions to
    the classes' vertex groups, jj adds over a join (Kuenneth formula),
    and R(W) is the sum of R over the groups;
  * core: otherwise R(W) = max(jj(W), the largest R(W - x) over x in W),
    and jj(W) comes from homology.

The dominated-pair rule is exact.  Take a face F through v of Delta_tau,
with u, v in tau and tau inside W.  F is a face of Delta_W, so F + u is a
face of Delta_W, and it lies in tau.  Hence v stays dominated by u in every
such Delta_tau, a strong collapse (Barmak & Minian, DCG 2012) keeps its
homotopy type without v, and tau has the answer of tau - v.  A tau that
misses v lies in W - v, and one that misses u in W - u.

The recursion prunes by the bound jj(tau) <= |tau| - 1 for nonempty tau
(homology in degree h needs h <= |tau| - 2).  _solve(W, t) returns R(W)
exactly when R(W) > t, and otherwise an upper bound on it that is at most
t; a set with |W| - 1 <= t returns that bound at once.  One memo holds the
exact values and one the upper bounds.  The second set of a dominated
pair, each further set of a core and the core's own jj(W) get the running
best as their threshold, and a join factor gets t minus the other factors'
current bounds.  The core's homology scan stops at degrees whose h + 1
cannot beat its floor, and skips the largest face when only one degree
is left.

Alexander duality keeps the linear algebra small: homology in degree h of
a restriction equals homology in degree |tau| - h - 3 of the complement
complex, so the top-degree probes only ever build small boundary matrices.

The bookkeeping is done on generator indices.  Each sweep indexes the
generators once: through[v] is the int bitset of the generators through
vertex v, and one more bitset marks the singleton generators.  The
generators inside W are all of them with through[v] cleared for every v
outside W, read for vertices 0-15 from two 256-entry tables that hold the
union of through[v] over each byte of vertices; a set reaching past vertex
15, in the rings of 18 and 20 variables, takes a loop over its vertices
instead.  The domination test for v scans only the generators through v,
and one bitset of the generators they cover settles every candidate u at
once.  A join factor grows by flood fill over these bitsets.  A generator
bitset becomes a list of vertex masks only where a vertex is scanned for
domination or a core's homology is built, and a per-sweep dict keeps each
such list.

All ranks are computed by exact integer elimination that takes the
columns in order and pivots on short rows with unit entries, so the result
is the characteristic-zero value with no floating point anywhere.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .groebner import MonomialIdeal

HOCHSTER_MAX_VERTICES = 16


def _byte_bits(offset):
    """Entry b: the set bit positions of the byte b, plus offset."""
    table = [()]
    for v in range(offset, offset + 8):
        table += [bits + (v,) for bits in table]
    return table


_BYTE_BITS, _HIGH_BYTE_BITS = _byte_bits(0), _byte_bits(8)


def _bits(mask):
    if mask < 0x10000:
        return _BYTE_BITS[mask & 0xFF] + _HIGH_BYTE_BITS[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _rank(columns):
    """Rank over the rationals of an integer matrix given as sparse columns
    (dicts row -> value).

    Fraction-free elimination that takes the columns in order.  The pivot
    of a column is the shortest remaining row with a unit entry there, or
    else the shortest row with any entry there; every other row with an
    entry in the column is cleared by an integer combination with the
    pivot row and, when the pivot is not a unit, divided by its content.
    The pivot row then leaves the matrix.  It has no entry in an earlier
    column, so no row gains one there, and each column is visited once."""
    rows: dict[int, dict[int, int]] = {}
    holders: list[set[int]] = [set() for _ in columns]
    for c, col in enumerate(columns):
        for r, val in col.items():
            if val:
                rows.setdefault(r, {})[c] = val
                holders[c].add(r)
    rank = 0
    for c, here in enumerate(holders):
        if not here:
            continue
        pr = min(here, key=lambda r: (abs(rows[r][c]) != 1, len(rows[r])))
        prow = rows.pop(pr)
        for cc in prow:
            holders[cc].discard(pr)
        rank += 1
        pval = prow[c]
        unit = abs(pval) == 1
        for r in list(here):
            row = rows[r]
            val = row[c]
            if unit:
                factor = val * pval
            else:
                g = gcd(pval, val)
                factor, scale = val // g, pval // g
                for cc in row:
                    row[cc] *= scale
            for cc, pv in prow.items():
                nv = row.get(cc, 0) - factor * pv
                if nv:
                    row[cc] = nv
                    holders[cc].add(r)
                elif cc in row:
                    del row[cc]
                    holders[cc].discard(r)
            if not unit:
                content = 0
                for v in row.values():
                    content = gcd(content, v)
                if content > 1:
                    for cc in row:
                        row[cc] //= content
            if not row:
                del rows[r]
    return rank


class _RestrictedSweep:
    """Sweep machinery for one squarefree ideal, given by its
    inclusion-minimal generators.  A set of generators is an int bitset
    over their indices in gens."""

    def __init__(self, gens):
        self.gens = gens
        self.through = [0] * max(gens).bit_length()
        self.singles = 0
        for i, g in enumerate(gens):
            for v in _bits(g):
                self.through[v] |= 1 << i
            if g & (g - 1) == 0:
                self.singles |= 1 << i
        # the OR of through[v] over the set bits of a byte of vertices,
        # for vertices 0-7 and 8-15, built by doubling as in _byte_bits
        padded = self.through + [0] * (16 - len(self.through))
        self._byte_through = []
        for offset in (0, 8):
            table = [0]
            for v in range(offset, offset + 8):
                table += [gen_set | padded[v] for gen_set in table]
            self._byte_through.append(table)
        # R(W) by vertex set W: exact values, and upper bounds found below
        # a threshold
        self._exact: dict[int, int] = {0: 0}
        self._upper: dict[int, int] = {}
        self._listed: dict[int, tuple[list[int], int]] = {}

    def _masks(self, gen_set):
        """(vertex masks, their union) of a generator bitset, kept for the
        rest of the sweep."""
        hit = self._listed.get(gen_set)
        if hit is None:
            masks = [self.gens[i] for i in _bits(gen_set)]
            union = 0
            for g in masks:
                union |= g
            hit = self._listed[gen_set] = (masks, union)
        return hit

    def _without(self, gen_set, verts):
        """The generators of gen_set that miss every vertex of verts."""
        if verts < 0x10000:
            low_byte, high_byte = self._byte_through
            return gen_set & ~(low_byte[verts & 0xFF] | high_byte[verts >> 8])
        through = self.through
        while verts:
            low = verts & -verts
            verts ^= low
            gen_set &= ~through[low.bit_length() - 1]
        return gen_set

    def _gen_components(self, sigma, internal):
        """Join factors of the restriction to sigma, whose generators are
        the bitset internal: (vertex group, its generator bitset) per class
        of generators linked by shared vertices, grown from a vertex by
        flood fill over the generators through each vertex reached.  For
        sigma the union of its generators the groups partition sigma, so
        no factor is a bare simplex (cone)."""
        through = self.through
        groups = []
        while sigma:
            group = fresh = sigma & -sigma
            comp = 0
            while fresh:
                reach = 0
                for v in _bits(fresh):
                    here = through[v] & internal
                    comp |= here
                    reach |= self._masks(here)[1]
                fresh = reach & ~group
                group |= fresh
            groups.append((group, comp))
            sigma &= ~group
        return groups

    def _dominated(self, sigma, verts, internal):
        """A pair (v, u) of vertices of sigma (whose vertices are verts)
        with v dominated by u in the restriction to sigma, or None;
        internal is the generator bitset of that restriction.

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
        contain g2 minus v for some g2 through v."""
        through = self.through
        for v in verts:
            through_v, near = self._masks(through[v] & internal)
            others = sigma & ~near  # the candidates u
            if not others:
                continue
            covers = 0
            for g2 in through_v:
                containing = internal
                for w in _bits(g2 & ~(1 << v)):
                    containing &= through[w]
                covers |= containing
            for u in _bits(others):
                if not through[u] & internal & ~covers:
                    return v, u
        return None

    def _max_face(self, sigma, internal):
        """Size of the largest subset of sigma containing no generator."""
        verts = _bits(sigma)
        best = 0

        def grow(idx, current, size):
            nonlocal best
            if size + (len(verts) - idx) <= best:
                return
            if idx == len(verts):
                best = max(best, size)
                return
            v = verts[idx]
            cand = current | (1 << v)
            if not any(g & cand == g for g in internal):
                grow(idx + 1, cand, size + 1)
            grow(idx + 1, current, size)

        grow(0, 0, 0)
        return best

    # -- dual-complex homology ---------------------------------------------

    def _dual_faces(self, verts, internal, size):
        """Faces of the complement complex of given size: subsets F with
        some internal generator disjoint from F."""
        if size == 0:
            return [0]
        out = []
        for combo in combinations(verts, size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if any(g & mask == 0 for g in internal):
                out.append(mask)
        return out

    def _core_jj(self, core, internal, floor):
        """jj(core) when it exceeds floor, else None, from the ranks of the
        Alexander dual's boundary maps.  core is a set that no rule before
        the core rule shrinks or splits, and internal its generator
        bitset."""
        internal = self._masks(internal)[0]
        m = core.bit_count()
        # the dual complex lives on the vertices that can appear in a face
        dual_verts = [v for v in _bits(core)
                      if any(g & (1 << v) == 0 for g in internal)]
        faces: dict[int, list[int]] = {}
        ranks: dict[int, int] = {}

        def faces_of(k):
            if k not in faces:
                faces[k] = self._dual_faces(dual_verts, internal, k)
            return faces[k]

        def rank_of(k):
            """Rank of the dual boundary map from k-sized faces to
            (k-1)-sized faces (augmented: the empty face is the unique
            face of size 0)."""
            if k in ranks:
                return ranks[k]
            cols_faces = faces_of(k)
            rows_faces = faces_of(k - 1)
            row_index = {f: i for i, f in enumerate(rows_faces)}
            columns = []
            for f in cols_faces:
                col = {}
                sign = 1
                for v in _bits(f):
                    sub = f & ~(1 << v)
                    if sub in row_index:
                        col[row_index[sub]] = sign
                    sign = -sign
                columns.append(col)
            ranks[k] = _rank(columns)
            return ranks[k]

        # homology in degree h needs a face of size h + 1 and h <= m - 2;
        # only h >= floor can beat the floor, so with m - 2 <= floor the
        # one degree left needs no largest face
        h_ub = m - 2
        if h_ub > floor:
            h_ub = min(h_ub, self._max_face(core, internal) - 1)
        for h in range(h_ub, max(floor, 0) - 1, -1):
            hd = m - h - 3  # dual homology degree
            if hd == -1:
                # dual complex is {emptyset} iff the only internal generator
                # covers the whole core
                if not dual_verts:
                    return h + 1
                continue
            f_mid = len(faces_of(hd + 1))
            if f_mid == 0:
                continue
            betti = f_mid - rank_of(hd + 1) - rank_of(hd + 2)
            if betti < 0:
                raise RuntimeError("negative Betti number: rank computation bug")
            if betti > 0:
                return h + 1
        return None

    # -- the recursion -----------------------------------------------------

    def _apexes(self, sigma, internal):
        """The vertices of sigma in no generator of the bitset internal:
        each is the apex of a cone in every restriction through it."""
        through = self.through
        apexes = 0
        for v in _bits(sigma):
            if not through[v] & internal:
                apexes |= 1 << v
        return apexes

    def _solve(self, sigma, internal, floor):
        """R(sigma), the largest jj over the subsets of sigma, when it
        exceeds floor; otherwise an upper bound on it that is at most
        floor.  internal is the generator bitset of the restriction to
        sigma.  Every set the singles and cone-apex rules pass through has
        the same R, so the answer is kept under each of them."""
        exact, upper = self._exact, self._upper
        path = []
        while sigma not in exact:
            answer = upper.get(sigma, floor + 1)
            if answer <= floor:
                break
            path.append(sigma)
            # singles: a vertex that is itself a generator lies in no face
            singles = internal & self.singles
            if singles:
                dropped = self._masks(singles)[1]
                sigma &= ~dropped
                internal = self._without(internal, dropped)
                continue
            apexes = self._apexes(sigma, internal)
            if apexes:
                sigma &= ~apexes
                continue
            verts = _bits(sigma)
            answer = len(verts) - 1  # jj(tau) <= |tau| - 1
            if answer > floor:
                answer = self._branch(sigma, verts, internal, floor)
            break
        else:
            answer = exact[sigma]
        memo = exact if answer > floor or sigma in exact else upper
        for s in path:
            memo[s] = answer
        return answer

    def _branch(self, sigma, verts, internal, floor):
        """_solve on a set that the singles and cone-apex rules leave as
        it is and whose bound |sigma| - 1 exceeds floor: the dominated
        pair, join and core rules, in that order."""
        through = self.through
        solve = self._solve
        pair = self._dominated(sigma, verts, internal)
        if pair is not None:
            v, u = pair
            first = solve(sigma & ~(1 << v), internal & ~through[v], floor)
            second = solve(sigma & ~(1 << u), internal & ~through[u],
                           max(floor, first))
            return max(first, second)
        factors = self._gen_components(sigma, internal)
        if len(factors) > 1:
            # each factor must beat floor less the others' current bounds:
            # a memo's, or else |group| - 1
            exact, upper = self._exact, self._upper
            bounds = [exact.get(group, upper.get(group, group.bit_count() - 1))
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
            best = max(best, solve(sigma & ~(1 << v), internal & ~through[v],
                                   max(floor, best)))
        top = self._core_jj(sigma, internal, max(floor, best))
        return best if top is None else top

    def regularity(self):
        everything = (1 << len(self.gens)) - 1
        return self._solve(self._masks(everything)[1], everything, -1)


def hochster_regularity(ideal: MonomialIdeal, max_vertices: int = HOCHSTER_MAX_VERTICES) -> int:
    """Castelnuovo-Mumford regularity of the quotient by a squarefree
    monomial ideal, over the rationals; 0 for the zero ideal."""
    if ideal.nvars > max_vertices:
        raise ValueError(
            f"hochster_regularity is limited to {max_vertices} vertices "
            f"(got {ideal.nvars})")
    for g in ideal.gens:
        if g == 0:
            raise ValueError("the unit ideal has no Stanley-Reisner complex")
        if g < 0 or g >> ideal.nvars:
            raise ValueError(
                f"generator mask {g} is not a set of {ideal.nvars} variables")
    if not ideal.gens:
        return 0
    return _RestrictedSweep(list(ideal.gens)).regularity()
