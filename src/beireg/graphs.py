"""Finite simple graphs and the combinatorial invariants the regularity
bounds are built from.

Vertices are integers 0..n-1.  All operations are pure functions of
immutable inputs, so values can be shared freely between threads.  The
exact algorithms (exhaustive longest-induced-path search, canonical forms
by branch-and-bound over ordered partitions) are deliberate: graphs come
in at desk scale, at most formats.MAX_VERTICES (4096) vertices, which the
parsers and the witness generators enforce, and exactness beats
asymptotics there.  canonical_form and enumerate_graphs have their own,
lower gates, CANONICAL_MAX_N and ENUMERATION_MAX_N.

A `Graph` is its neighbour masks: a tuple whose entry v has bit u set iff
u ~ v, over the vertices 0..n-1.  Each of components, induced subgraphs,
maximal cliques and longest induced paths has one kernel that works on
such a tuple.  The structural solver calls the kernels on masks directly;
`components`, `induced_subgraph`, `maximal_cliques` and
`longest_induced_path` wrap them for a `Graph`.

`induced_path` and `clique_masks` are memoized on the neighbour-mask
tuple, which names one labelled graph, so a Graph and the structural
solver's sub-solves read one answer per labelled graph.  A `Graph` builds
its per-component view and its sorted clique tuples once, on first use,
so the callers of one instance share the same subgraph instances.  Lists
are handed out as copies, so a caller that edits one does not change the
next answer.  These caches are not dataclass fields, so they take no part
in equality or hashing.

The invariants that add up over components (ell, the clique bounds, the
regularity itself) are sums over `component_graphs`, the one per-component
view.  A connected graph is its own only component and is returned as
itself, not rebuilt.

`enumerate_graphs` works on neighbour-mask tuples: it computes each
candidate's canonical code once, keeps that code as the sort key, and
builds a Graph only for each class representative it keeps, on the masks
it kept.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, built from its neighbour masks: bit u of
    masks[v] is set iff u ~ v.  The masks must be symmetric, with no bit
    at v or at n and above.

    adj, the increasing neighbour tuples, is derived from the masks.  It
    stays a dataclass field because perfbench's `plain` serializes a Graph
    through its fields, and its golden results hold {n, adj, labels}; a
    sorted tuple serializes as the sorted set it replaced did.  Equality
    and hashing run over (n, labels, adj), which the masks determine."""

    n: int
    masks: InitVar[tuple[int, ...]]
    labels: tuple[str, ...] | None = None
    adj: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self, masks):
        masks = tuple(masks)
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(masks) != self.n:
            raise ValueError("mask count does not match vertex count")
        for v, m in enumerate(masks):
            if m >> self.n:  # a negative mask has every high bit set
                raise ValueError(f"neighbour mask of {v} out of range")
            if m >> v & 1:
                raise ValueError(f"self-loop at {v}")
        adj = tuple(map(bits, masks))
        for v, nbrs in enumerate(adj):
            for u in nbrs:
                if not masks[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency {v}-{u}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label count does not match vertex count")
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n, edges, labels=None):
        """Build a graph from an edge list, rejecting self-loops, duplicates
        and out-of-range endpoints."""
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop edge {u} {v}")
            a, b = (u, v) if u < v else (v, u)
            if a < 0 or b >= n:
                raise ValueError(f"edge {a} {b} out of range for n={n}")
            if masks[a] >> b & 1:
                raise ValueError(f"duplicate edge {u} {v}")
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return cls(n, masks, tuple(labels) if labels is not None else None)

    def edges(self):
        """Sorted list of edges as (u, v) pairs with u < v."""
        return [(u, v) for u, m in enumerate(self._masks)
                for v in bits(m & -(2 << u))]

    def edge_count(self):
        return sum(map(int.bit_count, self._masks)) // 2

    def has_edge(self, u, v):
        return bool(self._masks[u] >> v & 1)

    def neighbor_masks(self):
        """Per-vertex neighbourhoods as a tuple of bitmasks, the kernels'
        input."""
        return self._masks

    @cached_property
    def _view(self):
        comps = component_masks(self._masks, (1 << self.n) - 1)
        return tuple(induced_subgraph(self, bits(c)) for c in comps)

    @cached_property
    def _cliques(self):
        return tuple(sorted(bits(c) for c in clique_masks(self._masks)))


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
    return Graph(n, (0,) * n, labels)


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


_BYTE_BITS, _HIGH_BYTE_BITS, _TOP_BYTE_BITS = map(_byte_bits, (0, 8, 16))


def bits(mask):
    """The set bit positions of a non-negative mask, as an increasing
    tuple; below 2^16 by two byte-table lookups, below 2^24 (the oracle's
    rings of 18 and 20 variables) by three.  Past that, a mask with fewer
    set bits than 1 in 64 by a loop over them, which takes a few big-int
    operations per bit, and any other mask by one table lookup per byte,
    which takes none."""
    if mask < 0x10000:
        return _BYTE_BITS[mask & 0xFF] + _HIGH_BYTE_BITS[mask >> 8]
    if mask < 0x1000000:
        return (_BYTE_BITS[mask & 0xFF] + _HIGH_BYTE_BITS[mask >> 8 & 0xFF]
                + _TOP_BYTE_BITS[mask >> 16])
    if mask.bit_count() << 6 < mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(low.bit_length() - 1)
        return tuple(out)
    return tuple([8 * i + v for i, byte in enumerate(
        mask.to_bytes((mask.bit_length() + 7) // 8, "little"))
        if byte for v in _BYTE_BITS[byte]])


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
    vertices renumbered 0..k-1 in increasing order: every kept mask is
    shifted right by keep's least bit, and then each dropped bit between
    keep's least and greatest bits, highest first, is squeezed out of it."""
    if not keep:
        return ()
    low = (keep & -keep).bit_length() - 1
    keep >>= low
    gaps = []
    drop = ~keep & ((1 << keep.bit_length()) - 1)
    while drop:
        high = 1 << drop.bit_length() - 1
        drop ^= high
        gaps.append(high - 1)
    out = []
    for v in bits(keep):
        m = nb[v + low] >> low & keep
        for gap in gaps:
            m = (m & gap) | ((m >> 1) & ~gap)
        out.append(m)
    return tuple(out)


def reverse_cuthill_mckee(nb):
    """A bandwidth-reducing vertex order of a connected graph given by its
    neighbour masks (Cuthill & McKee 1969, reversed as in George 1971).

    The start is the vertex of least (degree, label), moved twice to the
    least such vertex of the last layer of a BFS from it, which finds a
    pseudo-peripheral vertex.  A BFS from there appends each vertex's
    unvisited neighbours in increasing (degree, label); the order is that
    list reversed."""
    def key(v):
        return nb[v].bit_count(), v

    start = min(range(len(nb)), key=key)
    for _ in range(2):
        seen = layer = 1 << start
        while layer:
            last = layer
            reach = 0
            for v in bits(layer):
                reach |= nb[v]
            layer = reach & ~seen
            seen |= layer
        start = min(bits(last), key=key)
    order, seen = [start], 1 << start
    for v in order:  # the loop reads what it appends: a FIFO queue
        fresh = nb[v] & ~seen
        seen |= fresh
        order += sorted(bits(fresh), key=key)
    return order[::-1]


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
    return Graph(len(masks), masks, labels), old_ids


def component_graphs(g):
    """The per-component view: the (induced subgraph, old_ids) pair of each
    component, in components() order.  A connected graph's only pair is
    (g, (0, ..., n-1)), with g itself as the subgraph.  The view is built
    once per graph, so repeated calls return the same subgraph objects."""
    return list(g._view)


@cache
def induced_path(nb):
    """Longest induced path of a connected graph given by its neighbour
    masks, by exhaustive DFS: (length, vertex sequence).

    The DFS keeps its own stack, so no recursion limit bounds the path
    length.  It pushes each sequence's candidates so that they pop in
    increasing order, so it meets sequences in lexicographic order; keeping
    only strictly longer ones keeps the least sequence of the greatest
    length.  A branch is cut when it cannot beat the best length: beyond
    its next vertex (a neighbour of the last), a path can only use vertices
    that are off the path and adjacent to none of it."""
    full = (1 << len(nb)) - 1
    seq = [0] * len(nb)
    best_len, best = 0, (0,)
    stack = [(0, s, 1 << s, 0) for s in reversed(range(len(nb)))]
    while stack:
        depth, last, visited, earlier = stack.pop()
        seq[depth] = last
        if depth > best_len:
            best_len, best = depth, tuple(seq[:depth + 1])
        free = full & ~(visited | earlier)
        cand = nb[last] & free
        if cand and depth + 1 + (free & ~nb[last]).bit_count() > best_len:
            earlier |= nb[last]
            depth += 1
            for v in reversed(bits(cand)):
                stack.append((depth, v, visited | 1 << v, earlier))
    return best_len, best


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
    return induced_path(g.neighbor_masks())


def ell(g):
    """Sum of longest induced path lengths over connected components;
    an isolated vertex contributes 0."""
    return sum(longest_induced_path(sub)[0] for sub, _ in component_graphs(g))


# ---------------------------------------------------------------------------
# cliques

@cache
def clique_masks(nb):
    """All inclusion-maximal cliques of the graph given by its neighbour
    masks, as a tuple of vertex masks, by pivoting Bron-Kerbosch on an
    explicit stack, so no recursion limit bounds the clique size.  An
    isolated vertex is a singleton clique.  Branch (r, p, x) pushes child v
    with the candidates before v moved from p to x, so that the children
    pop in increasing order."""
    found = []
    stack = [(0, (1 << len(nb)) - 1, 0)] if nb else []
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            found.append(r)
            continue
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
        for v in reversed(bits(ext)):
            before = ext & ((1 << v) - 1)
            stack.append((r | 1 << v, p & ~before & nb[v],
                          (x | before) & nb[v]))
    return tuple(found)


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
    """Perfect-elimination check: repeatedly delete simplicial vertices;
    the graph is chordal iff this empties it.  v is simplicial when each
    neighbour u it has left sees all the others.  Each pass deletes every
    vertex that is simplicial when it is reached; a pass that deletes none
    proves the graph is not chordal."""
    nb = g.neighbor_masks()
    alive = (1 << g.n) - 1
    while alive:
        start = alive
        for v in bits(alive):
            around = nb[v] & alive
            for u in bits(around):
                if around & ~nb[u] != 1 << u:
                    break
            else:
                alive ^= 1 << v
        if alive == start:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical forms and small-graph enumeration

CANONICAL_MAX_N = 8
ENUMERATION_MAX_N = 8


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
    is still exponential in the worst case, so it stays gated at n <= 8.
    Each call runs the search afresh: no caller in the package asks twice
    about one graph."""
    if g.n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form is limited to n <= {CANONICAL_MAX_N}")
    return _canonical_code(g.neighbor_masks())


def _canonical_code(nb):
    """canonical_form of the graph given by its neighbour masks, ungated.

    Row 0 of a vertex of degree d is n - 1 - d zeros and then d ones, so
    the least row 0 is that of a vertex of least degree.  The search
    starts at k = 1 with those vertices placed, each with the partition
    (its non-neighbours, its neighbours).  Fewer than 2 vertices have no
    row."""
    n = len(nb)
    if n < 2:
        return bytes([n])
    full = (1 << n) - 1
    least = min(map(int.bit_count, nb))
    code = (1 << least) - 1
    frontier = {tuple(cell for cell in (full & ~adj & ~(1 << v), adj) if cell)
                for v, adj in enumerate(nb) if adj.bit_count() == least}
    for k in range(1, n - 1):
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
    deterministic order (edge count, then canonical form).  Gated at n <= 8.

    The graphs on k vertices are the graphs h on k - 1 vertices, from the
    list for k - 1, with a new vertex joined to a subset of h's vertices;
    the first candidate met in each class represents it.  A candidate in
    which some old vertex u gets a higher degree than the new vertex is
    skipped before its canonical code is computed: deg_h(u) + [u joined] >
    the number joined.  Such a candidate G' is never the first met in its
    class.  G' - u has |E(G')| - deg(u) edges, fewer than h's |E(G')| -
    deg(new), so its class comes before h's in the list for k - 1, whose
    order is edge count first.  That class's representative, with a new
    vertex joined to the image of N(u), is isomorphic to G' and is met
    earlier.  So the first candidate of every class is kept, and the
    representatives and their order are those of the unfiltered loop (the
    tests keep it as the reference).

    A candidate that joins the new vertex to w but not to u, for twins
    u < w of h (base[u] and base[w] agree off {u, w}), is skipped too, an
    isomorph rejection in the sense of McKay ("Isomorph-free exhaustive
    generation", J. Algorithms 1998).  The swap (u w) is an automorphism
    of h, so the candidate is isomorphic to the one whose mask has u in
    place of w.  That mask is smaller, so it comes earlier in the same
    loop, and u and w have the same degree in h, so it passes the same
    degree filter.  So the skipped candidate is not the first met in its
    class either, and the first of each class is still kept."""
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"enumerate_graphs is limited to n <= {ENUMERATION_MAX_N}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if 0 not in _ENUM_CACHE:
        _ENUM_CACHE[0] = [empty_graph(0)]
    start = max(k for k in _ENUM_CACHE if k <= n)
    for k in range(start + 1, n + 1):
        top = 1 << (k - 1)
        nxt: dict[bytes, tuple[int, ...]] = {}
        for h in _ENUM_CACHE[k - 1]:
            base = h.neighbor_masks()
            # at_least[d]: the vertices of h of degree d or more
            at_least = [sum(1 << u for u, m in enumerate(base)
                            if m.bit_count() >= d) for d in range(k + 1)]
            # (u and w, w) for the twins u < w of h
            twins = [(1 << u | 1 << w, 1 << w)
                     for w, mw in enumerate(base) for u in range(w)
                     if base[u] & ~(1 << w) == mw & ~(1 << u)]
            for mask in range(top):
                # skip when deg_h(u) + [u joined] > |mask| for some u
                size = mask.bit_count()
                if at_least[size] & mask or at_least[size + 1] & ~mask:
                    continue
                # skip when w is joined and its twin u < w is not
                if any(mask & pair == high for pair, high in twins):
                    continue
                nb = tuple(m | top if mask >> u & 1 else m
                           for u, m in enumerate(base)) + (mask,)
                nxt.setdefault(_canonical_code(nb), nb)
        # the degree sum is twice the edge count, so this is the documented order
        order = sorted(nxt, key=lambda c: (sum(map(int.bit_count, nxt[c])), c))
        _ENUM_CACHE[k] = [Graph(k, nxt[c]) for c in order]
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
