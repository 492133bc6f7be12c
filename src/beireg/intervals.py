"""Interval unions on the half-integer grid and the CL family conditions.

Endpoints are stored as integers in half-units (stored value = 2 x real
value), which keeps all arithmetic exact and serialization lossless.  The
constructions in this package only ever produce endpoints in half-units;
families with other rational endpoints must be pre-rounded by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, maximal_cliques


@dataclass(frozen=True)
class IntervalUnion:
    """Ordered union of closed segments [a, b] in half-units.

    Segments are sorted and strictly separated (b_k < a_{k+1}); a point
    segment a == b is allowed at this level.
    """

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev_end = None
        for a, b in self.segments:
            if a < 0:
                raise ValueError("endpoints must be non-negative")
            if b < a:
                raise ValueError(f"segment [{a}, {b}] reversed")
            if prev_end is not None and a <= prev_end:
                raise ValueError("segments must be sorted and separated")
            prev_end = b

    @classmethod
    def of(cls, *segments):
        """Segments given as (a, b) pairs in half-units."""
        return cls(tuple((int(a), int(b)) for a, b in segments))

    def pretty(self):
        """Human-readable form in real units, e.g. '[1, 4.5] u [5, 5.5]'."""
        def real(x):
            return str(x // 2) if x % 2 == 0 else str(x / 2)
        return " u ".join(f"[{real(a)}, {real(b)}]" for a, b in self.segments)


def intersects(a: IntervalUnion, b: IntervalUnion) -> bool:
    """Closed-interval intersection test; touching endpoints intersect."""
    for sa, ea in a.segments:
        for sb, eb in b.segments:
            if sa <= eb and sb <= ea:
                return True
    return False


def contains_integer(u: IntervalUnion, j: int) -> bool:
    """True iff the real value j lies in some segment."""
    x = 2 * j
    return any(a <= x <= b for a, b in u.segments)


def common_point(unions) -> int | None:
    """Least common half-unit point of all unions, or None if the total
    intersection is empty."""
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


# ---------------------------------------------------------------------------
# families

def _path_union(j):
    """J_0 = [0] and J_j = [j-1, j] in half-units."""
    return IntervalUnion.of((0, 0)) if j == 0 else IntervalUnion.of((2 * j - 2, 2 * j))


@dataclass(frozen=True)
class CLFamily:
    """The family {J_0..J_ell, I_1..I_r}.

    The J unions are implied by ell and normally derived; an explicit J
    tuple may be supplied to exercise the condition-i validator.
    """

    ell: int
    I: tuple[IntervalUnion, ...]
    J: tuple[IntervalUnion, ...] | None = None

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be at least 1")

    def j_unions(self):
        if self.J is not None:
            return self.J
        return tuple(_path_union(j) for j in range(self.ell + 1))

    @property
    def r(self):
        return len(self.I)


@dataclass(frozen=True)
class SIGFamily:
    """Single-interval special case: each I_i is one segment [a, b] with a
    an integer and a < b < ell (real units)."""

    ell: int
    I: tuple[IntervalUnion, ...]

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be at least 1")

    @property
    def r(self):
        return len(self.I)


@dataclass(frozen=True)
class Violation:
    """A failed family condition: which of i/ii/iii/iv, plus a witness
    naming the offending members (and integer j where relevant)."""

    condition: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"condition {self.condition} violated by {self.witness}: {self.detail}"


def validate_cl_family(f: CLFamily) -> Violation | None:
    """Check the four CL conditions; returns the first violation or None.

    Condition iii is checked on the maximal cliques of the pairwise
    intersection graph of the I unions: a pairwise-intersecting subset with
    empty intersection exists iff some maximal one does.
    """
    # i) J_0 = [0], J_j = [j-1, j]
    js = f.j_unions()
    if len(js) != f.ell + 1:
        return Violation("i", ("J",), f"expected {f.ell + 1} path unions, got {len(js)}")
    for j, u in enumerate(js):
        if u != _path_union(j):
            return Violation("i", (f"J{j}",), f"J{j} must be {_path_union(j).pretty()}")

    # ii) integer left endpoints, strict chain, b_t < ell, gaps > 2
    for i, u in enumerate(f.I, start=1):
        segs = u.segments
        if not segs:
            return Violation("ii", (f"I{i}",), "empty union")
        for k, (a, b) in enumerate(segs):
            if a % 2 != 0:
                return Violation("ii", (f"I{i}", k), f"left endpoint {a / 2} not an integer")
            if a >= b:
                return Violation("ii", (f"I{i}", k), "point segment not allowed")
            if k + 1 < len(segs) and segs[k + 1][0] - b <= 4:
                return Violation("ii", (f"I{i}", k),
                                 f"gap {(segs[k + 1][0] - b) / 2} not greater than 2")
        if segs[-1][1] >= 2 * f.ell:
            return Violation("ii", (f"I{i}",), f"right endpoint {segs[-1][1] / 2} not below ell={f.ell}")

    # iii) Helly: every pairwise-intersecting subset has a common point
    r = f.r
    if r >= 2:
        edges = [(p, q) for p in range(r) for q in range(p + 1, r)
                 if intersects(f.I[p], f.I[q])]
        meet_graph = Graph.from_edges(r, edges)
        for clique in maximal_cliques(meet_graph):
            if len(clique) < 2:
                continue
            if common_point([f.I[p] for p in clique]) is None:
                return Violation("iii", tuple(f"I{p + 1}" for p in clique),
                                 "pairwise intersecting but no common point")

    # iv) integer boundary compatibility of intersecting pairs
    for p in range(r):
        for q in range(r):
            if p == q or not intersects(f.I[p], f.I[q]):
                continue
            for j in range(f.ell + 1):
                if not (contains_integer(f.I[p], j) and not contains_integer(f.I[q], j)):
                    continue
                if not contains_integer(f.I[p], j + 1) and contains_integer(f.I[q], j + 1):
                    return Violation("iv", (f"I{p + 1}", f"I{q + 1}", j),
                                     f"{j + 1} in I{q + 1} but not in I{p + 1}")
                if j > 0 and not contains_integer(f.I[p], j - 1) and contains_integer(f.I[q], j - 1):
                    return Violation("iv", (f"I{p + 1}", f"I{q + 1}", j),
                                     f"{j - 1} in I{q + 1} but not in I{p + 1}")
    return None


def validate_sig_family(f: SIGFamily) -> Violation | None:
    """Each I_i must be a single segment [a, b] with integer a and a < b < ell."""
    for i, u in enumerate(f.I, start=1):
        if len(u.segments) != 1:
            return Violation("ii", (f"I{i}",), "must be a single interval")
        a, b = u.segments[0]
        if a % 2 != 0:
            return Violation("ii", (f"I{i}",), f"left endpoint {a / 2} not an integer")
        if a >= b:
            return Violation("ii", (f"I{i}",), "requires a < b")
        if b >= 2 * f.ell:
            return Violation("ii", (f"I{i}",), f"right endpoint {b / 2} not below ell={f.ell}")
    return None


def member_names(f: CLFamily):
    """Vertex names of the intersection graph, path unions first."""
    return tuple(f"J{j}" for j in range(f.ell + 1)) + tuple(
        f"I{i}" for i in range(1, f.r + 1))


def intersection_graph(f: CLFamily):
    """Intersection graph of the family.

    Vertices 0..ell are J_0..J_ell, vertices ell+1..ell+r are I_1..I_r;
    returns (graph, member names).
    """
    members = list(f.j_unions()) + list(f.I)
    names = member_names(f)
    n = len(members)
    edges = [(p, q) for p in range(n) for q in range(p + 1, n)
             if intersects(members[p], members[q])]
    return Graph.from_edges(n, edges, names), names
