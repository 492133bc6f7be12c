"""Regularity of a squarefree monomial quotient via reduced homology of
vertex-restricted Stanley-Reisner complexes, over the rationals.

The quotient's regularity is the maximum of h + 2 - 1 over all vertex
subsets sigma and degrees h with nonzero reduced homology of the complex
restricted to sigma; restrictions that are cones contribute nothing, which
confines the sweep to unions of generator supports.  Three exact
reductions keep the linear algebra small:

  * strong collapses: a vertex whose deletion is forced by another vertex
    (every face through v extends by u) can be removed without changing
    the homotopy type.  The generators are inclusion-minimal, so the test
    for v only scans the generators through v, and one bitset of the
    generators they cover settles every candidate u at once;
  * join splitting at cores: if the generators of a set no collapse
    shrinks (a core) fall into disjoint vertex groups, the restriction is
    the join of the groups' restrictions and their answers add (Kuenneth
    formula).  Each group is itself a core, since a vertex dominated in a
    group is dominated in the join.  Nearly every set the sweep visits
    reduces to a single group or to a known set, so only cores pay for
    the split;
  * Alexander duality: homology in degree h of the restriction equals
    homology in degree |sigma| - h - 3 of the complement complex, so the
    top-degree probes only ever build small boundary matrices.

The bookkeeping is done on generator indices.  Each sweep indexes the
generators once: through[v] is the int bitset of the generators through
vertex v, and one more bitset marks the singleton generators.  The
generators inside sigma are all of them with through[v] cleared for every
v outside sigma, read for vertices 0-15 from two 256-entry tables that
hold the union of through[v] over each byte of vertices; a set reaching
past vertex 15, in the rings of 18 and 20 variables, takes a loop over
its vertices instead.  A core's join factor grows by flood fill over
these bitsets; a reduction drops singletons and collapsed vertices by
masking.  A generator bitset becomes a list of vertex masks only where a
vertex is scanned for domination or a core's homology is built, and a
per-sweep dict keeps each such list.

The answer for a set depends only on the homotopy type of its restriction,
and every set a reduction passes through keeps that type.  So one sweep
memoizes the answer under every set on each reduction path, and a later
reduction stops at the first set already seen.  The join factors of a
core go through the same memo, so a factor shared by several cores is
computed once.

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
        self._jj_memo: dict[int, int | None] = {}
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

    # -- closure of generator-support unions ------------------------------

    def closure(self):
        """Every union of generator supports."""
        seen = set()
        for g in self.gens:
            seen |= {s | g for s in seen}
            seen.add(g)
        return seen

    def _gen_components(self, sigma, internal):
        """Join factors of the restriction to sigma, whose generators are
        the bitset internal: (vertex group, its generator bitset) per class
        of generators linked by shared vertices, grown from a vertex by
        flood fill over the generators through each vertex reached.  For
        sigma a union of generator supports the groups partition sigma, so
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

    # -- homotopy-exact reductions ----------------------------------------

    def _dominated(self, sigma, verts, internal):
        """A vertex v of sigma (whose vertices are verts) dominated by
        another vertex u, or None; internal is the generator bitset of the
        restriction to sigma.

        v is dominated by u when every generator g through u, with u
        swapped for v, contains a generator g2.  Such a g2 passes through v:
        otherwise g2 lies in g minus u, a proper subset of g, which the
        minimality of the generators rules out.  So only the generators
        through v are scanned.  For the same reason u shares no generator
        with v: for g through both, g2 would lie in g minus u.  (Were the
        generators not minimal, the narrower scan would only find fewer
        collapses, never a wrong one.)  For such a u, g with u swapped for
        v contains g2 exactly when g contains g2 minus v, so the test for
        all u at once is one bitset: covers, the generators that contain
        g2 minus v for some g2 through v."""
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
                    return v
        return None

    def _reduce(self, sigma, internal):
        """Walk sigma down by homotopy-exact reductions; internal is the
        bitset of the generators inside sigma.

        Returns (path, state, payload).  path holds every set the walk
        passed through that the memo does not know yet; the restrictions
        to all of them have the homotopy type of the restriction to sigma,
        so they share its answer.  The walk stops at the first memoized
        set.  state is 'jj' with the answer as payload when the memo or
        the reduction settles it, or 'core' with (core, internal) when no
        reduction applies."""
        memo = self._jj_memo
        through = self.through
        path = []
        while sigma not in memo:
            path.append(sigma)
            # vertices that are themselves generators never lie in a face
            singles = internal & self.singles
            if singles:
                dropped = self._masks(singles)[1]
                sigma &= ~dropped
                internal = self._without(internal, dropped)
                continue
            if not internal:
                # {emptyset} has homology in degree -1; a full simplex none
                return path, "jj", 0 if sigma == 0 else None
            verts = _bits(sigma)
            for v in verts:
                if not through[v] & internal:
                    return path, "jj", None  # apex vertex in no generator: cone
            v = self._dominated(sigma, verts, internal)
            if v is None:
                return path, "core", (sigma, internal)
            # strong collapse: deleting a dominated vertex keeps the type
            sigma &= ~(1 << v)
            internal &= ~through[v]
        return path, "jj", memo[sigma]

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

    def _jj_connected(self, sigma, internal):
        """Max nonzero reduced-homology degree plus one of the restriction
        to sigma with generators internal; 0 for the {emptyset} complex,
        None when all reduced homology vanishes.  The answer is memoized
        under every set on the reduction path.

        A core the reductions stop at is split into its join factors.  Each
        factor is itself a core (a vertex dominated in a factor is dominated
        in the join), and by the Kuenneth formula the join's answer is the
        sum of its factors' answers, None if any factor has none.  The
        factors go through the memo, so a factor shared by several cores
        is computed once."""
        path, state, payload = self._reduce(sigma, internal)
        if state == "jj":
            answer = payload
        else:
            factors = self._gen_components(*payload)
            if len(factors) == 1:
                answer = self._core_jj(*payload)
            else:
                answer = 0
                for group, group_internal in factors:
                    jj = self._jj_connected(group, group_internal)
                    if jj is None:
                        answer = None
                        break  # an acyclic join factor kills the join
                    answer += jj
        for s in path:
            self._jj_memo[s] = answer
        return answer

    def _core_jj(self, core, internal):
        """_jj_connected for a core that no reduction shrinks and whose
        generators form one join factor, from the ranks of the Alexander
        dual's boundary maps."""
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

        mf = self._max_face(core, internal)
        h_ub = min(m - 2, mf - 1)
        answer = None
        for h in range(h_ub, -1, -1):
            hd = m - h - 3  # dual homology degree
            if hd < -1:
                continue
            if hd == -1:
                # dual complex is {emptyset} iff the only internal generator
                # covers the whole core
                if not dual_verts:
                    answer = h + 1
                    break
                continue
            f_mid = len(faces_of(hd + 1))
            if f_mid == 0:
                continue
            betti = f_mid - rank_of(hd + 1) - rank_of(hd + 2)
            if betti < 0:
                raise RuntimeError("negative Betti number: rank computation bug")
            if betti > 0:
                answer = h + 1
                break
        return answer

    def regularity(self):
        best = 0
        everything = (1 << len(self.gens)) - 1
        span = self._masks(everything)[1]
        sigmas = sorted(self.closure(), key=lambda s: (-s.bit_count(), s))
        for sigma in sigmas:
            if sigma.bit_count() - 1 <= best:
                break  # the sets come largest first
            jj = self._jj_connected(
                sigma, self._without(everything, span & ~sigma))
            if jj is not None:
                best = max(best, jj)
        return best


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
