"""Independent brute-force oracles the tests check the library against,
and reference versions of library steps that only tests need.

The oracles are deliberately naive: exhaustive enumeration and dense
Fraction arithmetic, sharing no code with the implementations under test.
The graph-level steps (splits, simplicial vertices, clique closures) are
the references for the structural solver's mask steps, `relabel` and
`random_sig_family` build the inputs of isomorphism and family tests,
`reference_refine` is the structural solver's refinement without its early
exits, `reference_dominated` is the Hochster sweep's domination scan
before its covers were precomputed, `unfiltered_enumeration` is graph
enumeration before it skipped the extensions that are never kept,
`reference_intersects`, `reference_contains_integer` and
`reference_common_point` are the interval queries as loops over segments,
before they read point masks, `reference_condition_iii` and
`reference_condition_iv` are the CL family's conditions iii and iv on
those loops, by brute-force cliques and by every integer j, and
`reference_cl_check` is the CL certificate validator on edge-pair sets and
frozenset cliques, before it read neighbour masks.
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


def reference_intersects(a, b):
    """intervals.intersects by a loop over the pairs of segments."""
    for sa, ea in a.segments:
        for sb, eb in b.segments:
            if sa <= eb and sb <= ea:
                return True
    return False


def reference_contains_integer(u, j):
    """intervals.contains_integer by a scan of the segments."""
    x = 2 * j
    return any(a <= x <= b for a, b in u.segments)


def reference_common_point(unions):
    """intervals.common_point by intersecting the segment lists in turn."""
    unions = list(unions)
    if not unions:
        raise ValueError("common_point of an empty collection")
    current = list(unions[0].segments)
    for u in unions[1:]:
        nxt = []
        for a, b in current:
            for c, d in u.segments:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    nxt.append((lo, hi))
        if not nxt:
            return None
        nxt.sort()
        current = nxt
    return current[0][0]


def random_sig_family(rng):
    """A single-interval family with 2 <= ell <= 9 and up to five
    intervals [a, b], a an integer and a < b < ell, drawn from rng."""
    ell = rng.randint(2, 9)
    unions = []
    for _ in range(rng.randint(0, 5)):
        a = rng.randint(0, ell - 1)
        b = rng.randint(2 * a + 1, 2 * ell - 1)
        unions.append(iv.IntervalUnion.of((2 * a, b)))
    return iv.CLFamily(ell, tuple(unions))


def reference_condition_iii(f):
    """The first violation of condition iii of intervals.validate_cl_family:
    the least maximal clique, in lexicographic order, of the brute-force
    meet graph of the I unions that has two or more members and no common
    point, or None."""
    meets = gr.Graph.from_edges(f.r, [
        (p, q) for p, q in combinations(range(f.r), 2)
        if reference_intersects(f.I[p], f.I[q])])
    for clique in brute_maximal_cliques(meets):
        if (len(clique) >= 2
                and reference_common_point(f.I[p] for p in clique) is None):
            return iv.Violation("iii", tuple(f"I{p + 1}" for p in clique),
                                "pairwise intersecting but no common point")
    return None


def reference_condition_iv(f):
    """The first violation of condition iv of intervals.validate_cl_family
    by a loop over the ordered pairs of intersecting I unions and every
    j <= ell, with the segment scan on each integer, or None."""
    for p in range(f.r):
        for q in range(f.r):
            if p == q or not reference_intersects(f.I[p], f.I[q]):
                continue
            for j in range(f.ell + 1):
                if not (reference_contains_integer(f.I[p], j)
                        and not reference_contains_integer(f.I[q], j)):
                    continue
                for k in (j + 1, j - 1):
                    if (k >= 0 and not reference_contains_integer(f.I[p], k)
                            and reference_contains_integer(f.I[q], k)):
                        return iv.Violation(
                            "iv", (f"I{p + 1}", f"I{q + 1}", j),
                            f"{k} in I{q + 1} but not in I{p + 1}")
    return None


def reference_cl_check(g, cert):
    """recognition.validate_cl_certificate by the comparisons it made
    before it read neighbour masks: the family's intersection edges and
    the component's edges as sets of (min, max) pairs of graph vertices,
    and the cliques F_j and the component's maximal cliques as sets of
    frozensets of graph vertices.  The checks and messages are the same."""
    view = gr.component_graphs(g)
    if len(cert.components) != len(view):
        return f"certificate has {len(cert.components)} components, graph has {len(view)}"
    for idx, ((sub, old_ids), part) in enumerate(zip(view, cert.components)):
        fam = part.family
        violation = iv.validate_cl_family(fam)
        if violation is not None:
            return f"component {idx}: family invalid: {violation}"
        names = iv.member_names(fam)
        if sorted(part.bijection) != sorted(names):
            return f"component {idx}: bijection keys do not match family members"
        images = [part.bijection[name] for name in names]
        if len(set(images)) != len(images) or set(images) != set(old_ids):
            return f"component {idx}: bijection is not onto the component"
        graph_f, _ = iv.intersection_graph(fam)
        expected = {(min(images[p], images[q]), max(images[p], images[q]))
                    for p, q in graph_f.edges()}
        actual = {(min(old_ids[u], old_ids[v]), max(old_ids[u], old_ids[v]))
                  for u, v in sub.edges()}
        if expected != actual:
            return f"component {idx}: edge sets differ"
        want = set()
        for j in range(fam.ell):
            members = [f"J{j}", f"J{j + 1}"] + [
                f"I{i}" for i in range(1, fam.r + 1)
                if iv.contains_integer(fam.I[i - 1], j)]
            want.add(frozenset(part.bijection[m] for m in members))
        have = {frozenset(old_ids[v] for v in clique)
                for clique in gr.maximal_cliques(sub)}
        if want != have:
            return f"component {idx}: maximal cliques do not match the family"
    return None


# ---------------------------------------------------------------------------
# structural refinement without early exits

def reference_refine(nb, twice, lo, hi, budget, note):
    """regularity._refine as it was before it stopped early: all three
    split-inequality sub-graphs are solved at every vertex in two or more
    maximal cliques, and every deletion is solved, whatever the interval.
    Put in place of _refine, it runs the whole recursion without exits, so
    _derive's crossed-bounds check sees every cap and floor."""
    n = len(nb)
    minus = [rg._drop(nb, v) for v in range(n)]
    for v in gr.bits(twice):
        closed = rg._closure(nb, v)
        h1 = rg._solve(minus[v], budget - 1)[1]
        h2 = rg._solve(closed, budget - 1)[1]
        h3 = rg._solve(rg._drop(closed, v), budget - 1)[1]
        cap = max(h1, h2, h3 + 1)
        if cap < hi:
            hi = cap
            note("split-inequality", f"vertex {v} caps the value at {cap}")
    for v in range(n):
        floor = rg._solve(minus[v], budget - 1)[0]
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


def unfiltered_enumeration(max_n):
    """The neighbour-mask tuples of enumerate_graphs(k), k = 0..max_n, by
    the loop that codes every extension of every class: each graph on
    k - 1 vertices with a new vertex joined to each subset of its
    vertices, the first candidate met in each class kept, in the order
    (edge count, canonical code)."""
    levels = [[()]]
    for k in range(1, max_n + 1):
        top = 1 << (k - 1)
        kept = {}
        for base in levels[-1]:
            for mask in range(top):
                nb = tuple(m | top if mask >> u & 1 else m
                           for u, m in enumerate(base)) + (mask,)
                kept.setdefault(gr._canonical_code(nb), nb)
        order = sorted(kept, key=lambda c: (sum(map(int.bit_count, kept[c])), c))
        levels.append([kept[c] for c in order])
    return levels


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


def gf2_rank(matrix):
    """Rank over GF(2) of a dense integer matrix, by Gaussian elimination
    on its entries mod 2."""
    m = [[x % 2 for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                m[r] = [(x + y) % 2 for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_betti(gen_supports, sigma):
    """The reduced rational Betti numbers of the complex restricted to
    sigma (the subsets of sigma that contain no generator), as a dict
    degree -> Betti number from degree -1 up; every subset of sigma is
    listed and the ranks are dense rational ones."""
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
    betti = {h: len(faces_by_size.get(h + 1, [])) - ranks[h + 1] - ranks[h + 2]
             for h in range(-1, max_dim + 1)}
    assert min(betti.values()) >= 0
    return betti


def naive_jj(gen_supports, sigma):
    """jj(sigma): h + 1 for the top degree h in which the complex
    restricted to sigma has nonzero reduced homology, or None when it is
    acyclic, from naive_betti."""
    betti = naive_betti(gen_supports, sigma)
    return max((h + 1 for h, b in betti.items() if b), default=None)


def reference_dominators(sweep, sigma, v, internal):
    """The vertices u of sigma that dominate v, in increasing order, by the
    scan of hochster._RestrictedSweep before its covers were precomputed:
    the generators containing g2 minus v are found by intersecting
    through[w] over the vertices w of each g2 through v, and each
    candidate u is tried."""
    through = sweep.through
    through_v = [sweep.gens[i] for i in gr.bits(through[v] & internal)]
    near = 0
    for g2 in through_v:
        near |= g2
    covers = 0
    for g2 in through_v:
        containing = internal
        for w in gr.bits(g2 & ~(1 << v)):
            containing &= through[w]
        covers |= containing
    return [u for u in gr.bits(sigma & ~near)
            if not through[u] & internal & ~covers]


def reference_dominated(sweep, sigma, verts, internal):
    """hochster._RestrictedSweep._dominated by reference_dominators: for
    the first v with a dominator, (v, {u} as a mask, True) for the least
    dominator u that v dominates back, else (v, the mask of every
    dominator, False)."""
    for v in verts:
        above = reference_dominators(sweep, sigma, v, internal)
        if above:
            for u in above:
                if v in reference_dominators(sweep, sigma, u, internal):
                    return v, 1 << u, True
            return v, sum(1 << u for u in above), False
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
