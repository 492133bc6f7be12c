"""Independent brute-force oracles the tests check the library against,
and reference versions of library steps that only tests need.

The oracles are deliberately naive: exhaustive enumeration and dense
Fraction arithmetic, sharing no code with the implementations under test.
The graph-level steps (splits, simplicial vertices, clique closures) are
the references for the structural solver's mask steps, `relabel` and
`embed_sig` build the inputs of isomorphism and family tests, and
`reference_refine` is the structural solver's refinement without its early
exits.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations

from beireg import graphs as gr
from beireg import intervals as iv
from beireg import regularity as rg


# ---------------------------------------------------------------------------
# graph-level steps

def relabel(g, perm):
    """Apply the permutation perm (new id = perm[old id])."""
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    labels = None
    if g.labels is not None:
        labels = [""] * g.n
        for old, new in enumerate(perm):
            labels[new] = g.labels[old]
    return gr.Graph.from_edges(g.n, edges, labels)


def is_simplicial(g, v):
    """True iff the closed neighborhood of v is a clique (equivalently, v
    lies in exactly one maximal clique)."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nbrs = sorted(g.adj[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b not in g.adj[a]:
                return False
    return True


def clique_closure(g, v):
    """The graph with all non-adjacent neighbors of v joined, making v
    simplicial."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    edges = set(g.edges())
    nbrs = sorted(g.adj[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            edges.add((a, b))
    return gr.Graph.from_edges(g.n, sorted(edges), g.labels)


def splits_at(g, v):
    """The split parts at a cut vertex v: one part per component of g - v,
    each with v added back, as sorted vertex tuples."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    own_comp = next(c for c in gr.components(g) if v in c)
    rest, old_ids = gr.induced_subgraph(g, [u for u in own_comp if u != v])
    comps = gr.components(rest)
    if len(comps) < 2:
        raise ValueError(f"vertex {v} is not a cut vertex")
    parts = [tuple(sorted([old_ids[u] for u in comp] + [v])) for comp in comps]
    parts.sort()
    return parts


def embed_sig(f):
    """A strongly-interval family is a CL family as-is."""
    return iv.CLFamily(ell=f.ell, I=f.I)


# ---------------------------------------------------------------------------
# structural refinement without early exits

def reference_refine(nb, twice, lo, hi, budget, memo, note):
    """regularity._refine as it was before it stopped early: all three
    split-inequality sub-graphs are solved at every vertex in two or more
    maximal cliques, and every deletion is solved, whatever the interval.
    Put in place of _refine, it runs the whole recursion without exits, so
    _derive's crossed-bounds check sees every cap and floor."""
    n = len(nb)
    minus = [rg._drop(nb, v) for v in range(n)]
    for v in gr.bits(twice):
        closed = rg._closure(nb, v)
        h1 = rg._solve(minus[v], budget - 1, memo, rg._quiet)[1]
        h2 = rg._solve(closed, budget - 1, memo, rg._quiet)[1]
        h3 = rg._solve(rg._drop(closed, v), budget - 1, memo, rg._quiet)[1]
        cap = max(h1, h2, h3 + 1)
        if cap < hi:
            hi = cap
            note("split-inequality", f"vertex {v} caps the value at {cap}")
    for v in range(n):
        floor = rg._solve(minus[v], budget - 1, memo, rg._quiet)[0]
        if floor > lo:
            lo = floor
            note("deletion-lower-bound",
                 f"deleting {v} raises the floor to {floor}")
    if lo == hi:
        note("sandwich", f"refined bounds meet at {lo}")
    return lo, hi


# ---------------------------------------------------------------------------
# graph oracles

def _is_induced_path(g, seq):
    """True when consecutive vertices of seq are adjacent in g and no
    other pair is."""
    for i, a in enumerate(seq):
        for j in range(i + 1, len(seq)):
            adjacent = g.has_edge(a, seq[j])
            if j == i + 1 and not adjacent:
                return False
            if j > i + 1 and adjacent:
                return False
    return True


def brute_longest_induced_path(g):
    """(length, lexicographically least sequence) by enumerating every
    injective vertex sequence."""
    best = (0, (0,))

    def extend(seq):
        nonlocal best
        cand = (len(seq) - 1, seq)
        if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
        for v in range(g.n):
            if v not in seq and _is_induced_path(g, seq + (v,)):
                extend(seq + (v,))

    for s in range(g.n):
        extend((s,))
    return best


def brute_maximal_cliques(g):
    verts = range(g.n)
    cliques = []
    for k in range(1, g.n + 1):
        for sub in combinations(verts, k):
            if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                cliques.append(set(sub))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    return sorted(tuple(sorted(c)) for c in maximal)


def brute_is_chordal(g):
    """No induced cycle of length >= 4."""
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            degs = [sum(1 for b in sub if b != a and g.has_edge(a, b)) for a in sub]
            if any(d != 2 for d in degs):
                continue
            # all degrees 2: a disjoint union of cycles; connected means one
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                a = stack.pop()
                for b in sub:
                    if b not in seen and g.has_edge(a, b):
                        seen.add(b)
                        stack.append(b)
            if len(seen) == k:
                return False
    return True


def brute_canonical_form(g):
    """bytes([n]) plus the least row-major upper-triangle adjacency bit
    string over all n! vertex orderings, packed MSB-first with zero
    padding."""
    n = g.n
    pairs = list(combinations(range(n), 2))
    a = [[int(g.has_edge(u, v)) for v in range(n)] for u in range(n)]
    best = min(tuple(a[p[i]][p[j]] for i, j in pairs)
               for p in permutations(range(n)))
    best += (0,) * (-len(best) % 8)
    return bytes([n]) + bytes(
        int("".join(map(str, best[k:k + 8])), 2) for k in range(0, len(best), 8))


# ---------------------------------------------------------------------------
# homology oracle (dense, Fraction arithmetic)

def _fraction_rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    pivot_row = 0
    for c in range(cols):
        pr = next((r for r in range(pivot_row, rows) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        pv = m[pivot_row][c]
        for r in range(rows):
            if r != pivot_row and m[r][c] != 0:
                f = m[r][c] / pv
                for cc in range(c, cols):
                    m[r][cc] -= f * m[pivot_row][cc]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def supports(ideal):
    """The generators of a MonomialIdeal as sorted variable-index tuples."""
    return [tuple(k for k in range(ideal.nvars) if m >> k & 1)
            for m in ideal.gens]


def brute_dominates(gen_supports, tau, v, u):
    """True when v is dominated by u in the complex restricted to tau (the
    subsets of tau that contain no generator): every face through v stays
    a face with u added.  Checked over every subset of tau."""
    gens = [frozenset(s) for s in gen_supports]

    def is_face(f):
        return not any(gen <= f for gen in gens)

    for k in range(1, len(tau) + 1):
        for sub in combinations(sorted(tau), k):
            face = frozenset(sub)
            if v in face and is_face(face) and not is_face(face | {u}):
                return False
    return True


def naive_jj(gen_supports, sigma):
    """jj(sigma): h + 1 for the top degree h in which the complex
    restricted to sigma (the subsets of sigma that contain no generator)
    has nonzero reduced homology, or None when it is acyclic; every subset
    of sigma is listed and the ranks are dense rational ones."""
    gens = [frozenset(s) for s in gen_supports]
    sigma = sorted(sigma)
    faces_by_size = {0: [frozenset()]}
    for k in range(1, len(sigma) + 1):
        faces_by_size[k] = [
            frozenset(c) for c in combinations(sigma, k)
            if not any(gen <= set(c) for gen in gens)]
    max_dim = max((k for k, fs in faces_by_size.items() if fs), default=0) - 1

    def boundary(k):
        """Matrix of the map from size-k faces to size-(k-1) faces."""
        rows = faces_by_size.get(k - 1, [])
        cols = faces_by_size.get(k, [])
        idx = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for ci, f in enumerate(cols):
            for pos, v in enumerate(sorted(f)):
                sub = f - {v}
                if sub in idx:
                    mat[idx[sub]][ci] = (-1) ** pos
        return mat

    ranks = {}
    for k in range(0, len(sigma) + 2):
        ranks[k] = _fraction_rank(boundary(k)) if faces_by_size.get(k) else 0
    for h in range(max_dim, -2, -1):
        betti = len(faces_by_size.get(h + 1, [])) - ranks[h + 1] - ranks[h + 2]
        assert betti >= 0
        if betti > 0:
            return h + 1
    return None


def naive_monomial_regularity(gen_supports, nverts):
    """Regularity of the quotient by a squarefree monomial ideal: the
    largest naive_jj over all 2^nverts vertex subsets."""
    if not gen_supports:
        return 0
    jjs = (naive_jj(gen_supports, sigma)
           for size in range(1, nverts + 1)
           for sigma in combinations(range(nverts), size))
    return max((jj for jj in jjs if jj is not None), default=0)


# ---------------------------------------------------------------------------
# Groebner oracles.  The library writes a monomial as a variable bitmask
# (bit k: x_{k+1} for k < n, y_{k-n+1} for k >= n); the checks below work
# on exponent tuples (position k: variable k) and share no arithmetic
# with it.

def brute_admissible_basis(g):
    """The set of (lead, trail) masks of u_pi * (x_i y_j - x_j y_i) over
    the admissible paths pi of g, found by enumerating every injective
    vertex sequence: an induced path from i to j with i < j whose interior
    lies outside [i, j].  u_pi is the product of x_v over interior v > j
    and of y_v over interior v < i."""
    n = g.n
    out = set()
    for k in range(2, n + 1):
        for seq in permutations(range(n), k):
            i, j, interior = seq[0], seq[-1], seq[1:-1]
            if i > j or any(i <= v <= j for v in interior):
                continue
            if not _is_induced_path(g, seq):
                continue
            u = sum(1 << v if v > j else 1 << n + v for v in interior)
            out.add((u | 1 << i | 1 << n + j, u | 1 << j | 1 << n + i))
    return out


def exponents(mask, nvars):
    """Exponent tuple of a variable bitmask, variable 0 first."""
    return tuple(mask >> k & 1 for k in range(nvars))


_Term = namedtuple("_Term", "lead trail")


def _as_exponents(basis, nvars):
    return [_Term(exponents(lead, nvars), exponents(trail, nvars))
            for lead, trail in basis]


def _poly_sub(p, q):
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, Fraction(0)) - c
        if out[mono] == 0:
            del out[mono]
    return out


def _poly_scale(p, mono, coeff):
    return {tuple(a + b for a, b in zip(m, mono)): c * coeff for m, c in p.items()}


def _lead(p):
    return max(p)


def _reduce_full(p, basis_polys):
    """Reduce the largest reducible monomial until none remains."""
    p = dict(p)
    while True:
        target = None
        for mono in sorted(p, reverse=True):
            for b in basis_polys:
                bl = _lead(b)
                if all(x <= y for x, y in zip(bl, mono)):
                    target = (mono, b, bl)
                    break
            if target:
                break
        if target is None:
            return p
        mono, b, bl = target
        quot = tuple(x - y for x, y in zip(mono, bl))
        p = _poly_sub(p, _poly_scale(b, quot, p[mono] / b[bl]))


def assert_is_groebner(basis, nvars):
    """Every S-polynomial of the basis, (lead, trail) masks over nvars
    variables, must reduce to zero against it (dict polynomials over
    Fractions)."""
    basis = _as_exponents(basis, nvars)
    polys = [{b.lead: Fraction(1), b.trail: Fraction(-1)} for b in basis]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            f, g = polys[i], polys[j]
            lf, lg = _lead(f), _lead(g)
            lcm = tuple(max(a, b) for a, b in zip(lf, lg))
            s = _poly_sub(
                _poly_scale(f, tuple(a - b for a, b in zip(lcm, lf)), Fraction(1) / f[lf]),
                _poly_scale(g, tuple(a - b for a, b in zip(lcm, lg)), Fraction(1) / g[lg]))
            remainder = _reduce_full(s, polys)
            assert not remainder, f"S-polynomial of {i},{j} does not reduce to zero"


def reference_certify(basis, nvars):
    """True when the S-polynomial of every pair of basis elements, (lead,
    trail) masks over nvars variables, whose leads share a variable
    reduces to zero against the basis, by tuple-wise monomial arithmetic:
    each difference is reduced at its lead by the first element in list
    order whose lead divides it, and fails once no element divides its
    lead."""
    basis = _as_exponents(basis, nvars)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def times_quotient(m, lead, trail):
        return tuple(x - y + z for x, y, z in zip(m, lead, trail))

    def reduces_to_zero(lead, trail):
        while lead != trail:
            if lead < trail:
                lead, trail = trail, lead
            b = next((b for b in basis if divides(b.lead, lead)), None)
            if b is None:
                return False
            lead = times_quotient(lead, b.lead, b.trail)
        return True

    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            if not any(x and y for x, y in zip(f.lead, g.lead)):
                continue
            both = tuple(max(x, y) for x, y in zip(f.lead, g.lead))
            if not reduces_to_zero(times_quotient(both, g.lead, g.trail),
                                   times_quotient(both, f.lead, f.trail)):
                return False
    return True
