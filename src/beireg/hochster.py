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
    the homotopy type.  The generators are inclusion-minimal, so the test
    for v only scans the generators through v;
  * Alexander duality: homology in degree h of the restriction equals
    homology in degree |sigma| - h - 3 of the complement complex, so the
    top-degree probes only ever build small boundary matrices.

The answer for a set depends only on the homotopy type of its restriction,
and every set a reduction passes through keeps that type.  So one sweep
memoizes the answer under every set on each reduction path, and a later
reduction stops at the first set already seen.

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
    """Sweep machinery for one squarefree ideal, given by its
    inclusion-minimal generators."""

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

    def _gen_components(self, sigma):
        """Join factors of the restriction to sigma: (vertex group, its
        generators) per class of overlapping generators inside sigma.  For
        sigma a union of generator supports the groups partition sigma, so
        no factor is a bare simplex (cone)."""
        groups = []
        for g in self.gens:
            if g & sigma != g:
                continue
            merged, members = g, [g]
            keep = []
            for mask, gens in groups:
                if mask & merged:
                    merged |= mask
                    members += gens
                else:
                    keep.append((mask, gens))
            keep.append((merged, members))
            groups = keep
        return groups

    # -- homotopy-exact reductions ----------------------------------------

    @staticmethod
    def _dominated(verts, gen_of):
        """A vertex v of sigma dominated by another vertex u, or None.

        v is dominated by u when every generator g through u, with u
        swapped for v, contains a generator g2.  Such a g2 passes through v:
        otherwise g2 lies in g minus u, a proper subset of g, which the
        minimality of the generators rules out.  So only the generators
        through v are scanned.  For the same reason u shares no generator
        with v: for g through both, g2 would lie in g minus u.  (Were the
        generators not minimal, the narrower scan would only find fewer
        collapses, never a wrong one.)"""
        for v in verts:
            vbit = 1 << v
            through_v = gen_of[v]
            near = 0
            for g in through_v:
                near |= g
            for u in verts:
                if near >> u & 1:
                    continue  # v itself or a vertex sharing a generator
                ubit = 1 << u
                if all(any(g2 & cand == g2 for g2 in through_v)
                       for cand in ((g & ~ubit) | vbit for g in gen_of[u])):
                    return v
        return None

    def _reduce(self, sigma, internal):
        """Walk sigma down by homotopy-exact reductions; internal lists the
        generators inside sigma.

        Returns (path, state, payload).  path holds every set the walk
        passed through that the memo does not know yet; the restrictions
        to all of them have the homotopy type of the restriction to sigma,
        so they share its answer.  The walk stops at the first memoized
        set.  state is 'jj' with the answer as payload when the memo or
        the reduction settles it, or 'core' with (core, internal) when no
        reduction applies."""
        memo = self._jj_memo
        path = []
        while sigma not in memo:
            path.append(sigma)
            # vertices that are themselves generators never lie in a face
            singles = 0
            for g in internal:
                if g & (g - 1) == 0:
                    singles |= g
            if singles:
                sigma &= ~singles
                internal = [g for g in internal if not g & singles]
                continue
            if not internal:
                # {emptyset} has homology in degree -1; a full simplex none
                return path, "jj", 0 if sigma == 0 else None
            covered = 0
            for g in internal:
                covered |= g
            if sigma & ~covered:
                return path, "jj", None  # apex vertex in no generator: cone
            verts = _bits(sigma)
            gen_of = {v: [g for g in internal if g >> v & 1] for v in verts}
            v = self._dominated(verts, gen_of)
            if v is None:
                return path, "core", (sigma, internal)
            # strong collapse: deleting a dominated vertex keeps the type
            sigma &= ~(1 << v)
            internal = [g for g in internal if not g >> v & 1]
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
        to a generator-connected sigma with generators internal; 0 for the
        {emptyset} complex, None when all reduced homology vanishes.  The
        answer is memoized under every set on the reduction path."""
        path, state, payload = self._reduce(sigma, internal)
        answer = payload if state == "jj" else self._core_jj(*payload)
        for s in path:
            self._jj_memo[s] = answer
        return answer

    def _core_jj(self, core, internal):
        """_jj_connected for a core that no reduction shrinks, from the
        ranks of the Alexander dual's boundary maps."""
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
        return answer

    def regularity(self):
        best = 0
        sigmas = sorted(self.closure(), key=lambda s: (-bin(s).count("1"), s))
        for sigma in sigmas:
            if bin(sigma).count("1") - 1 <= best:
                continue
            total = 0
            for group, internal in self._gen_components(sigma):
                jj = self._jj_connected(group, internal)
                if jj is None:
                    break  # an acyclic join factor kills the join
                total += jj
            else:
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
