"""Regularity of a squarefree monomial quotient via reduced homology of
vertex-restricted Stanley-Reisner complexes, over the rationals.

The quotient's regularity is the maximum of h + 2 - 1 over all vertex
subsets sigma and degrees h with nonzero reduced homology of the complex
restricted to sigma; restrictions that are cones contribute nothing, which
confines the sweep to unions of generator supports.  Three exact
reductions keep the linear algebra small:

  * join splitting: if the generators inside sigma fall into disjoint
    vertex groups, the restriction is a join and contributions add;
  * strong collapses: a vertex whose deletion is forced by another vertex
    (every face through v extends by u) can be removed without changing
    the homotopy type;
  * Alexander duality: homology in degree h of the restriction equals
    homology in degree |sigma| - h - 3 of the complement complex, so the
    top-degree probes only ever build small boundary matrices.

All ranks are computed by exact integer elimination, so the result is the
characteristic-zero value with no floating point anywhere.
"""

from __future__ import annotations

from itertools import combinations

from .groebner import MonomialIdeal

HOCHSTER_MAX_VERTICES = 16


def _bits(mask):
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return out


def _rank(columns):
    """Rank over the rationals of an integer matrix given as sparse columns
    (dicts row -> value).  Fraction-free elimination with unit-pivot
    preference and row content normalization."""
    from math import gcd

    rows: dict[int, dict[int, int]] = {}
    for ci, col in enumerate(columns):
        for r, val in col.items():
            if val:
                rows.setdefault(r, {})[ci] = val
    col_rows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    rank = 0
    while rows:
        # pivot: prefer magnitude-1 entries, then minimal fill estimate
        best = None
        for r, row in rows.items():
            rlen = len(row)
            for c, val in row.items():
                unit = 0 if abs(val) == 1 else 1
                score = (unit, (rlen - 1) * (len(col_rows[c]) - 1), r, c)
                if best is None or score < best[0]:
                    best = (score, r, c, val)
        _, pr, pc, pval = best
        prow = rows.pop(pr)
        for c in prow:
            col_rows[c].discard(pr)
        rank += 1
        targets = list(col_rows.get(pc, ()))
        for r in targets:
            row = rows[r]
            val = row[pc]
            if abs(pval) == 1:
                factor = val * pval
                for c, pv in prow.items():
                    nv = row.get(c, 0) - factor * pv
                    if nv:
                        row[c] = nv
                        col_rows.setdefault(c, set()).add(r)
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(r)
            else:
                g = gcd(abs(pval), abs(val))
                mr, mp = pval // g, val // g
                for c in set(row) | set(prow):
                    nv = mr * row.get(c, 0) - mp * prow.get(c, 0)
                    if nv:
                        row[c] = nv
                        col_rows.setdefault(c, set()).add(r)
                    elif c in row:
                        del row[c]
                        col_rows[c].discard(r)
                content = 0
                for v in row.values():
                    content = gcd(content, abs(v))
                if content > 1:
                    for c in row:
                        row[c] //= content
            if not row:
                del rows[r]
    return rank


class _RestrictedSweep:
    """Sweep machinery for one squarefree ideal."""

    def __init__(self, gens):
        self.gens = gens
        self._jj_memo: dict[int, int | None] = {}

    # -- closure of generator-support unions ------------------------------

    def closure(self):
        seen = set()
        frontier = list(self.gens)
        while frontier:
            s = frontier.pop()
            if s in seen:
                continue
            seen.add(s)
            for g in self.gens:
                u = s | g
                if u != s and u not in seen:
                    frontier.append(u)
        return seen

    def _internal(self, sigma):
        return [g for g in self.gens if g & sigma == g]

    def _gen_components(self, sigma):
        """Vertex groups of sigma induced by overlapping internal generators."""
        internal = self._internal(sigma)
        comps = []
        for g in internal:
            merged = g
            keep = []
            for c in comps:
                if c & merged:
                    merged |= c
                else:
                    keep.append(c)
            keep.append(merged)
            comps = keep
        leftover = sigma & ~sum(comps) if comps else sigma
        if leftover:
            comps.append(leftover)  # vertices in no generator: cone part
        return comps

    # -- homotopy-exact reductions ----------------------------------------

    def _reduce(self, sigma):
        """Apply restriction-exact reductions; returns (sigma, internal) or
        the final answer ('jj', value) when reduction settles it."""
        while True:
            internal = self._internal(sigma)
            # vertices that are themselves generators never lie in a face
            singletons = [g for g in internal if g & (g - 1) == 0]
            if singletons:
                drop = 0
                for s in singletons:
                    drop |= s
                sigma &= ~drop
                continue
            if sigma == 0:
                return "jj", 0  # the complex {emptyset}: homology in degree -1
            if not internal:
                return "jj", None  # full simplex: contractible
            covered = 0
            for g in internal:
                covered |= g
            if sigma & ~covered:
                return "jj", None  # apex vertex in no generator: cone
            # strong collapse: v is dominated by u when every generator
            # through u, with u swapped for v, already contains a generator
            gen_of = {}
            for v in _bits(sigma):
                gen_of[v] = [g for g in internal if g >> v & 1]
            dominated = None
            verts = _bits(sigma)
            for v in verts:
                vbit = 1 << v
                for u in verts:
                    if u == v:
                        continue
                    ubit = 1 << u
                    ok = True
                    for g in gen_of[u]:
                        candidate = (g & ~ubit) | vbit
                        if not any(g2 & candidate == g2 for g2 in internal):
                            ok = False
                            break
                    if ok:
                        dominated = v
                        break
                if dominated is not None:
                    break
            if dominated is None:
                return "core", (sigma, internal)
            sigma &= ~(1 << dominated)

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

    def _jj_connected(self, sigma):
        """Max nonzero reduced-homology degree plus one of the restriction
        to a generator-connected sigma; 0 for the {emptyset} complex, None
        when all reduced homology vanishes."""
        if sigma in self._jj_memo:
            return self._jj_memo[sigma]
        state, payload = self._reduce(sigma)
        if state == "jj":
            self._jj_memo[sigma] = payload
            return payload
        core, internal = payload
        m = bin(core).count("1")
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
        self._jj_memo[sigma] = answer
        return answer

    def regularity(self):
        best = 0
        sigmas = sorted(self.closure(), key=lambda s: (-bin(s).count("1"), s))
        for sigma in sigmas:
            if bin(sigma).count("1") - 1 <= best:
                continue
            comps = self._gen_components(sigma)
            if any(self._internal(c) == [] for c in comps):
                continue  # a pure-cone factor kills the join
            total = 0
            dead = False
            for c in comps:
                jj = self._jj_connected(c)
                if jj is None:
                    dead = True
                    break
                total += jj
            if not dead:
                best = max(best, total)
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
    if not ideal.gens:
        return 0
    return _RestrictedSweep(list(ideal.gens)).regularity()
