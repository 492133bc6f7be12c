"""Interval unions on the half-integer grid and the CL family conditions.

Endpoints are stored as integers in half-units (stored value = 2 x real
value), which keeps all arithmetic exact and serialization lossless.  The
constructions in this package only ever produce endpoints in half-units;
families with other rational endpoints must be pre-rounded by the caller.

Each union also holds a point mask, not a field: bit x is set iff the
half-unit point x lies in a segment.  Two closed segments that meet share
their larger left endpoint, a grid point, so unions meet iff their masks
share a bit, and their least common point is the lowest bit of the AND.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .graphs import Graph, bits, clique_masks


def _integer(value, name):
    """value as an int (numpy's integers have __index__), or ValueError."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


@dataclass(frozen=True)
class IntervalUnion:
    """Ordered union of closed segments [a, b] in half-units.

    Segments are sorted and strictly separated (b_k < a_{k+1}); a point
    segment a == b is allowed at this level.
    """

    segments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        segments, points = [], 0
        for a, b in self.segments:
            a, b = _integer(a, "endpoint"), _integer(b, "endpoint")
            if a < 0:
                raise ValueError("endpoints must be non-negative")
            if b < a:
                raise ValueError(f"segment [{a}, {b}] reversed")
            if points >> a:  # a point at a or past it is taken
                raise ValueError("segments must be sorted and separated")
            segments.append((a, b))
            points |= (2 << b) - (1 << a)
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "_points", points)

    @classmethod
    def of(cls, *segments):
        """Segments given as (a, b) pairs in half-units."""
        return cls(segments)

    def pretty(self):
        """Human-readable form in real units, e.g. '[1, 4.5] u [5, 5.5]'."""
        def real(x):
            return str(x // 2) if x % 2 == 0 else str(x / 2)
        return " u ".join(f"[{real(a)}, {real(b)}]" for a, b in self.segments)


def intersects(a: IntervalUnion, b: IntervalUnion) -> bool:
    """Closed-interval intersection test; touching endpoints intersect."""
    return a._points & b._points != 0


def contains_integer(u: IntervalUnion, j: int) -> bool:
    """True iff the real value j lies in some segment."""
    return j >= 0 and u._points >> 2 * j & 1 == 1


def common_point(unions) -> int | None:
    """Least common half-unit point of all unions, or None if the total
    intersection is empty."""
    common = -1  # every point
    for u in unions:
        common &= u._points
    if common < 0:
        raise ValueError("common_point of an empty collection")
    return (common & -common).bit_length() - 1 if common else None


# ---------------------------------------------------------------------------
# families

def _path_union(j):
    """J_0 = [0] and J_j = [j-1, j] in half-units."""
    return IntervalUnion.of((0, 0)) if j == 0 else IntervalUnion.of((2 * j - 2, 2 * j))


@dataclass(frozen=True)
class CLFamily:
    """The family {J_0..J_ell, I_1..I_r}.

    The J unions are implied by ell and normally derived; an explicit J
    tuple may be supplied to exercise the condition-i validator.  A
    strongly interval family is one whose I unions are single segments.
    """

    ell: int
    I: tuple[IntervalUnion, ...]
    J: tuple[IntervalUnion, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ell", _integer(self.ell, "ell"))
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
class Violation:
    """A failed family condition: which of i/ii/iii/iv, plus a witness
    naming the offending members (and integer j where relevant)."""

    condition: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"condition {self.condition} violated by {self.witness}: {self.detail}"


def _meet_masks(unions):
    """The neighbour masks of the graph on the unions, with p ~ q iff the
    unions p and q intersect."""
    at = {}  # half-unit point -> the unions holding it
    for p, u in enumerate(unions):
        for x in bits(u._points):
            at[x] = at.get(x, 0) | 1 << p
    masks = []
    for p, u in enumerate(unions):
        mask = 0
        for x in bits(u._points):
            mask |= at[x]
        masks.append(mask & ~(1 << p))
    return tuple(masks)


def validate_cl_family(f: CLFamily) -> Violation | None:
    """Check the four CL conditions; returns the first violation or None.

    Condition iii is checked on the maximal cliques of the pairwise
    intersection graph of the I unions: a pairwise-intersecting subset with
    empty intersection exists iff some maximal one does.
    """
    return _family_violation(f, _meet_masks(f.I))


def _family_violation(f, meets):
    """validate_cl_family on the meet masks of the I unions, which a
    caller that has the meets of all members reads off as their I block."""
    # i) J_0 = [0], J_j = [j-1, j]; derived J unions are these by
    # construction, so only an explicit J is checked
    if f.J is not None:
        if len(f.J) != f.ell + 1:
            return Violation("i", ("J",),
                             f"expected {f.ell + 1} path unions, got {len(f.J)}")
        for j, u in enumerate(f.J):
            if u != _path_union(j):
                return Violation("i", (f"J{j}",),
                                 f"J{j} must be {_path_union(j).pretty()}")

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

    # iii) Helly: every pairwise-intersecting subset, and by ii every single
    # union, has a common point.  The maximal cliques of the meet graph are
    # read in lexicographic order, which fixes the violation reported.
    if f.r >= 2:
        for clique in sorted(bits(c) for c in clique_masks(meets)):
            if common_point(f.I[p] for p in clique) is None:
                return Violation("iii", tuple(f"I{p + 1}" for p in clique),
                                 "pairwise intersecting but no common point")

    # iv) integer boundary compatibility of intersecting pairs: for I_p
    # meeting I_q, no j <= ell in I_p but not in I_q (even bits 2j of the
    # point masks) has j + 1 or j - 1 in I_q but not in I_p.  The first
    # failure is reported in order of p, q and j, j + 1 before j - 1.
    even = int("01" * (f.ell + 1), 2)
    points = [u._points & even for u in f.I]
    for p in range(f.r):
        for q in bits(meets[p]):
            extra = points[q] & ~points[p]
            bad = points[p] & ~points[q] & (extra >> 2 | extra << 2)
            if bad:
                j = (bad & -bad).bit_length() // 2
                k = j + 1 if extra >> 2 * j + 2 & 1 else j - 1
                return Violation("iv", (f"I{p + 1}", f"I{q + 1}", j),
                                 f"{k} in I{q + 1} but not in I{p + 1}")
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
    members = (*f.j_unions(), *f.I)
    names = member_names(f)
    return Graph(len(members), _meet_masks(members), names), names
