"""Finite simple graphs and the combinatorial invariants the regularity
bounds are built from.

Vertices are integers 0..n-1.  All operations are pure functions of
immutable inputs, so values can be shared freely between threads.  The
exact algorithms (exhaustive longest-induced-path search, canonical forms
by branch-and-bound over ordered partitions) are deliberate: every caller
in this package works at desk scale (n <= 13), where exactness beats
asymptotics.

Each of components, induced subgraphs, maximal cliques and longest induced
paths has one kernel that works on neighbour masks: a tuple whose entry v
has bit u set iff u ~ v, over the vertices 0..k-1.  The structural solver
calls the kernels on masks directly; `components`, `induced_subgraph`,
`maximal_cliques` and `longest_induced_path` wrap them for a `Graph`.

A `Graph` computes each of its derived objects once, on first use: its
masks, its per-component view, its longest induced path and its maximal
cliques.  So every caller that asks about the same Graph instance (the
verification sweep, the recognizers and their validators, the oracle)
shares one view and the same subgraph instances.  Lists are handed out as
copies, so a caller that edits one does not change the next answer.

The invariants that add up over components (ell, the clique bounds, the
regularity itself) are sums over `component_graphs`, the one per-component
view.  A connected graph is its own only component and is returned as
itself, not rebuilt.

`enumerate_graphs` works on neighbour-mask tuples: it computes each
candidate's canonical code once, keeps that code as the sort key, and
builds a Graph only for each class representative it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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
        """Per-vertex neighborhoods as a tuple of bitmasks, the kernels'
        input; computed once per graph."""
        return self._masks

    @cached_property
    def _masks(self):
        return tuple(sum(1 << u for u in nbrs) for nbrs in self.adj)

    @cached_property
    def _view(self):
        comps = component_masks(self._masks, (1 << self.n) - 1)
        return tuple(induced_subgraph(self, bits(c)) for c in comps)

    @cached_property
    def _path(self):
        return induced_path(self._masks)

    @cached_property
    def _cliques(self):
        return tuple(sorted(bits(c) for c in clique_masks(self._masks)))

    @classmethod
    def _of_masks(cls, masks, labels=None):
        """The graph whose neighbour masks are masks."""
        return cls(len(masks), tuple(frozenset(bits(m)) for m in masks), labels)


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


# ---------------------------------------------------------------------------
# mask kernels and their Graph wrappers

def _byte_bits(offset):
    """Entry b: the set bit positions of the byte b, plus offset."""
    table = [()]
    for v in range(offset, offset + 8):
        table += [prefix + (v,) for prefix in table]
    return table


_BYTE_BITS, _HIGH_BYTE_BITS = _byte_bits(0), _byte_bits(8)


def bits(mask):
    """The set bit positions of a non-negative mask, as an increasing
    tuple; below 2^16 by two byte-table lookups."""
    if mask < 0x10000:
        return _BYTE_BITS[mask & 0xFF] + _HIGH_BYTE_BITS[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def component_masks(nb, alive):
    """The connected components of the subgraph induced on the bits of
    alive, by flood fill, as vertex masks ordered by least vertex."""
    out = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= nb[low.bit_length() - 1]
            frontier = reach & alive & ~comp
            comp |= frontier
        out.append(comp)
        alive &= ~comp
    return out


def induced_masks(nb, keep):
    """The neighbour masks of the subgraph induced on the bits of keep, its
    vertices renumbered 0..k-1 in increasing order: each dropped bit,
    highest first, is squeezed out of every kept mask."""
    gaps = []
    drop = ~keep & ((1 << len(nb)) - 1)
    while drop:
        high = 1 << drop.bit_length() - 1
        drop ^= high
        gaps.append(high - 1)
    out = []
    for v, m in enumerate(nb):
        if keep >> v & 1:
            m &= keep
            for low in gaps:
                m = (m & low) | ((m >> 1) & ~low)
            out.append(m)
    return tuple(out)


def components(g):
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    return [old_ids for _, old_ids in g._view]


def is_connected(g):
    return len(g._view) <= 1


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
    masks = induced_masks(g.neighbor_masks(), sum(1 << v for v in old_ids))
    labels = tuple(g.labels[v] for v in old_ids) if g.labels is not None else None
    return Graph._of_masks(masks, labels), old_ids


def component_graphs(g):
    """The per-component view: the (induced subgraph, old_ids) pair of each
    component, in components() order.  A connected graph's only pair is
    (g, (0, ..., n-1)), with g itself as the subgraph.  The view is built
    once per graph, so repeated calls return the same subgraph objects."""
    return list(g._view)


def induced_path(nb):
    """Longest induced path of a connected graph given by its neighbour
    masks, by exhaustive DFS: (length, vertex sequence).

    The DFS extends each sequence by its candidates in increasing order, so
    it meets sequences in lexicographic order; keeping only strictly longer
    ones keeps the least sequence of the greatest length.  A branch is cut
    when it cannot beat the best length: beyond its next vertex (a
    neighbour of the last), a path can only use vertices that are off the
    path and adjacent to none of it."""
    full = (1 << len(nb)) - 1
    seq = [0] * len(nb)
    best = [0, (0,)]

    def extend(depth, last, visited, earlier):
        seq[depth] = last
        if depth > best[0]:
            best[0], best[1] = depth, tuple(seq[:depth + 1])
        free = full & ~(visited | earlier)
        cand = nb[last] & free
        if cand and depth + 1 + (free & ~nb[last]).bit_count() > best[0]:
            earlier |= nb[last]
            depth += 1
            while cand:
                low = cand & -cand
                cand ^= low
                extend(depth, low.bit_length() - 1, visited | low, earlier)

    for s in range(len(nb)):
        extend(0, s, 1 << s, 0)
    return best[0], best[1]


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
    return g._path


def ell(g):
    """Sum of longest induced path lengths over connected components;
    an isolated vertex contributes 0."""
    return sum(longest_induced_path(sub)[0] for sub, _ in component_graphs(g))


# ---------------------------------------------------------------------------
# cliques

def clique_masks(nb):
    """All inclusion-maximal cliques of the graph given by its neighbour
    masks, as vertex masks, by pivoting Bron-Kerbosch.  An isolated vertex
    is a singleton clique."""
    found = []

    def bk(r, p, x):
        if not p and not x:
            found.append(r)
            return
        both = p | x
        pivot, best = -1, -1
        while both:
            low = both & -both
            both ^= low
            u = low.bit_length() - 1
            cnt = (p & nb[u]).bit_count()
            if cnt > best:
                best, pivot = cnt, u
        ext = p & ~nb[pivot]
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            bk(r | low, p & nb[v], x & nb[v])
            p &= ~low
            x |= low

    if nb:
        bk(0, (1 << len(nb)) - 1, 0)
    return found


def maximal_cliques(g):
    """All inclusion-maximal cliques via pivoting Bron-Kerbosch.

    Each clique is a sorted tuple and the list is sorted lexicographically.
    An isolated vertex yields a singleton clique.
    """
    return list(g._cliques)


def clique_number(g):
    if g.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    return max(map(len, g._cliques))


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
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form is limited to n <= {CANONICAL_MAX_N}")
    return _canonical_code(g.neighbor_masks())


def _canonical_code(nb):
    """canonical_form of the graph given by its neighbour masks, ungated."""
    n = len(nb)
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
        # each graph on k - 1 vertices, with vertex k - 1 joined to the bits
        # of mask: the first candidate met in each class represents it
        top = 1 << (k - 1)
        nxt: dict[bytes, tuple[int, ...]] = {}
        for h in _ENUM_CACHE[k - 1]:
            base = h.neighbor_masks()
            for mask in range(top):
                nb = tuple(m | top if mask >> u & 1 else m
                           for u, m in enumerate(base)) + (mask,)
                nxt.setdefault(_canonical_code(nb), nb)
        # the degree sum is twice the edge count, so this is the documented order
        order = sorted(nxt, key=lambda c: (sum(map(int.bit_count, nxt[c])), c))
        _ENUM_CACHE[k] = [Graph._of_masks(nxt[c]) for c in order]
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
