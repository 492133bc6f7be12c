"""Finite simple graphs and the combinatorial invariants the regularity
bounds are built from.

Vertices are integers 0..n-1.  All operations are pure functions of
immutable inputs, so values can be shared freely between threads.  The
exact algorithms (exhaustive longest-induced-path search, canonical forms
by branch-and-bound over ordered partitions) are deliberate: every caller
in this package works at desk scale (n <= 13), where exactness beats
asymptotics.

The invariants that add up over components (ell, the clique bounds, the
regularity itself) are sums over `component_graphs`, the one per-component
view.  A connected graph is its own only component and is returned as
itself, not rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: symmetric, irreflexive adjacency sets."""

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency {v}-{u}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count does not match vertex count")

    @classmethod
    def from_edges(cls, n, edges, labels=None):
        """Build a graph from an edge list, rejecting self-loops, duplicates
        and out-of-range endpoints."""
        adj = [set() for _ in range(n)]
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop edge {u} {v}")
            a, b = (u, v) if u < v else (v, u)
            if a < 0 or b >= n:
                raise ValueError(f"edge {u} {v} out of range for n={n}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge {u} {v}")
            seen.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        return cls(n, tuple(frozenset(s) for s in adj),
                   tuple(labels) if labels is not None else None)

    def edges(self):
        """Sorted list of edges as (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def edge_count(self):
        return sum(len(s) for s in self.adj) // 2

    def has_edge(self, u, v):
        return v in self.adj[u]

    def neighbor_masks(self):
        """Per-vertex neighborhoods as bitmasks (internal workhorse)."""
        return [sum(1 << u for u in nbrs) for nbrs in self.adj]


@dataclass(frozen=True)
class GraphInvariants:
    """The invariant bundle the bound theorems talk about."""

    ell: int
    clique_count: int
    omega: int
    component_count: int
    chordal: bool
    connected: bool


# ---------------------------------------------------------------------------
# construction helpers

def empty_graph(n, labels=None):
    return Graph(n, tuple(frozenset() for _ in range(n)), labels)


def path_graph(n):
    """Path on n vertices (length n-1)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    """K_{1,leaves} with the center at vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(*graphs):
    n = 0
    edges = []
    labels = []
    any_labels = any(g.labels is not None for g in graphs)
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        if any_labels:
            labels.extend(g.labels if g.labels is not None
                          else tuple(str(v + n) for v in range(g.n)))
        n += g.n
    return Graph.from_edges(n, edges, labels if any_labels else None)


def relabel(g, perm):
    """Apply the permutation perm (new id = perm[old id])."""
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    labels = None
    if g.labels is not None:
        labels = [""] * g.n
        for old, new in enumerate(perm):
            labels[new] = g.labels[old]
    return Graph.from_edges(g.n, edges, labels)


# ---------------------------------------------------------------------------
# components and induced subgraphs

def components(g):
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return out


def is_connected(g):
    return len(components(g)) <= 1


def induced_subgraph(g, vertices):
    """Induced subgraph on the given vertices.

    Returns (subgraph, old_ids) where old_ids[new] is the original vertex id;
    vertices keep their relative order after sorting.  On all of g's
    vertices the subgraph is g itself, labels included, and is not rebuilt.
    """
    old_ids = tuple(sorted(set(vertices)))
    for v in old_ids:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if len(old_ids) == g.n:
        return g, old_ids
    index = {v: i for i, v in enumerate(old_ids)}
    edges = [(index[u], index[v]) for u, v in g.edges()
             if u in index and v in index]
    labels = tuple(g.labels[v] for v in old_ids) if g.labels is not None else None
    return Graph.from_edges(len(old_ids), edges, labels), old_ids


def component_graphs(g):
    """The per-component view: the (induced subgraph, old_ids) pair of each
    component, in components() order.  A connected graph's only pair is
    (g, (0, ..., n-1)), with g itself as the subgraph."""
    return [induced_subgraph(g, comp) for comp in components(g)]


def delete_vertex(g, v):
    sub, _ = induced_subgraph(g, [u for u in range(g.n) if u != v])
    return sub


# ---------------------------------------------------------------------------
# longest induced paths

def longest_induced_path(g):
    """Longest induced path of a connected graph by exhaustive DFS.

    Returns (length, path).  Ties break to the lexicographically least
    vertex sequence, so results are reproducible across runs.  A single
    vertex is a path of length 0.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if not is_connected(g):
        raise ValueError("graph is disconnected")
    nb = g.neighbor_masks()
    best_len = 0
    best_seq = (0,)

    def consider(seq):
        nonlocal best_len, best_seq
        length = len(seq) - 1
        if length > best_len or (length == best_len and seq < best_seq):
            best_len = length
            best_seq = seq

    def extend(seq, visited, adj_earlier):
        last = seq[-1]
        cand = nb[last] & ~visited & ~adj_earlier
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            seq2 = seq + (w,)
            consider(seq2)
            extend(seq2, visited | (1 << w), adj_earlier | nb[last])

    for s in range(g.n):
        consider((s,))
        extend((s,), 1 << s, 0)
    return best_len, best_seq


def ell(g):
    """Sum of longest induced path lengths over connected components;
    an isolated vertex contributes 0."""
    return sum(longest_induced_path(sub)[0] for sub, _ in component_graphs(g))


# ---------------------------------------------------------------------------
# cliques

def maximal_cliques(g):
    """All inclusion-maximal cliques via pivoting Bron-Kerbosch.

    Each clique is a sorted tuple and the list is sorted lexicographically.
    An isolated vertex yields a singleton clique.
    """
    if g.n == 0:
        return []
    nb = g.neighbor_masks()
    found = []

    def bk(r, p, x):
        if not p and not x:
            found.append(r)
            return
        both = p | x
        pivot, best = -1, -1
        m = both
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cnt = bin(p & nb[u]).count("1")
            if cnt > best:
                best, pivot = cnt, u
        ext = p & ~nb[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            bk(r | (1 << v), p & nb[v], x & nb[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << g.n) - 1, 0)
    cliques = []
    for mask in found:
        clique = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            clique.append(v)
        cliques.append(tuple(clique))
    cliques.sort()
    return cliques


def clique_number(g):
    if g.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    return max(len(c) for c in maximal_cliques(g))


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
    return Graph.from_edges(g.n, sorted(edges), g.labels)


# ---------------------------------------------------------------------------
# chordality

def is_chordal(g):
    """Perfect-elimination check: repeatedly delete a simplicial vertex;
    the graph is chordal iff this empties it."""
    nb = g.neighbor_masks()
    alive = (1 << g.n) - 1
    remaining = g.n
    while remaining:
        progressed = False
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            nbrs = nb[v] & alive
            clique = True
            t = nbrs
            while t and clique:
                u = (t & -t).bit_length() - 1
                t &= t - 1
                if nbrs & ~nb[u] & ~(1 << u):
                    clique = False
            if clique:
                alive &= ~(1 << v)
                remaining -= 1
                progressed = True
                break
        if not progressed:
            return False
    return True


# ---------------------------------------------------------------------------
# cut vertices and splits

def splits_at(g, v):
    """The split parts at a cut vertex v: one part per component of g - v,
    each with v added back, as sorted vertex tuples."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    own_comp = next(c for c in components(g) if v in c)
    rest, old_ids = induced_subgraph(g, [u for u in own_comp if u != v])
    comps = components(rest)
    if len(comps) < 2:
        raise ValueError(f"vertex {v} is not a cut vertex")
    parts = [tuple(sorted([old_ids[u] for u in comp] + [v])) for comp in comps]
    parts.sort()
    return parts


# ---------------------------------------------------------------------------
# canonical forms and small-graph enumeration

CANONICAL_MAX_N = 8
ENUMERATION_MAX_N = 7


def canonical_form(g):
    """Canonical byte string: bytes([n]) plus the lexicographically least
    row-major upper-triangle adjacency bit string over all vertex orderings,
    packed MSB-first with zero padding; equal strings iff isomorphic.

    Exact branch-and-bound over ordered partitions (the refinement search
    of McKay & Piperno, "Practical graph isomorphism, II", J. Symb. Comput.
    2014, without automorphism pruning).  The unplaced vertices form an
    ordered list of cells: the least string places every vertex of a cell
    before any of the next.  Position k takes a vertex v of the first cell;
    row k is least when each cell lists v's non-neighbours before its
    neighbours, so that split fixes row k's bits and refines the cells.
    Only the candidates with the least row survive, and survivors with the
    same partition have the same least future, so they are kept once.  The
    result is the brute-force minimum over all n! orderings, but the search
    is still exponential in the worst case, so it stays gated at n <= 8."""
    n = g.n
    if n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form is limited to n <= {CANONICAL_MAX_N}")
    nb = g.neighbor_masks()
    code = 0
    frontier = {((1 << n) - 1,)}
    for k in range(n - 1):
        best, survivors = None, set()
        for head, *tail in frontier:
            rest = head
            while rest:
                bit = rest & -rest
                rest ^= bit
                adj = nb[bit.bit_length() - 1]
                row, cells = 0, []
                for cell in (head ^ bit, *tail):
                    zeros, ones = cell & ~adj, cell & adj
                    if zeros:
                        row <<= zeros.bit_count()
                        cells.append(zeros)
                    if ones:
                        width = ones.bit_count()
                        row = (row << width) | ((1 << width) - 1)
                        cells.append(ones)
                if best is None or row < best:
                    best, survivors = row, {tuple(cells)}
                elif row == best:
                    survivors.add(tuple(cells))
        code = (code << (n - 1 - k)) | best
        frontier = survivors
    bits = n * (n - 1) // 2
    size = (bits + 7) // 8
    return bytes([n]) + (code << (8 * size - bits)).to_bytes(size, "big")


_ENUM_CACHE: dict[int, list[Graph]] = {}


def enumerate_graphs(n, connected_only=False):
    """One representative Graph per isomorphism class on n vertices, in a
    deterministic order (edge count, then canonical form).  Gated at n <= 7."""
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"enumerate_graphs is limited to n <= {ENUMERATION_MAX_N}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if 0 not in _ENUM_CACHE:
        _ENUM_CACHE[0] = [empty_graph(0)]
    start = max(k for k in _ENUM_CACHE if k <= n)
    for k in range(start + 1, n + 1):
        nxt: dict[bytes, Graph] = {}
        for h in _ENUM_CACHE[k - 1]:
            base = h.edges()
            for mask in range(1 << (k - 1)):
                edges = base + [(u, k - 1) for u in range(k - 1) if mask >> u & 1]
                g = Graph.from_edges(k, edges)
                c = canonical_form(g)
                if c not in nxt:
                    nxt[c] = g
        _ENUM_CACHE[k] = sorted(
            nxt.values(), key=lambda g: (g.edge_count(), canonical_form(g)))
    graphs = _ENUM_CACHE[n]
    if connected_only:
        graphs = [g for g in graphs if g.n > 0 and is_connected(g)]
    return list(graphs)


def invariants(g):
    """Bundle of the invariants used by the bound theorems."""
    comps = components(g)
    cliques = maximal_cliques(g)
    return GraphInvariants(
        ell=ell(g),
        clique_count=len(cliques),
        omega=max(map(len, cliques), default=0),
        component_count=len(comps),
        chordal=is_chordal(g),
        connected=len(comps) <= 1,
    )
