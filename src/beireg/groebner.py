"""The lex Groebner basis of a binomial edge ideal, in closed form.

The polynomial ring has 2n variables x_1..x_n, y_1..y_n ordered
lexicographically with x_1 > ... > x_n > y_1 > ... > y_n.  Variable k is
x_{k+1} for k < n and y_{k-n+1} for k >= n.  Every monomial in this module
is a variable bitmask, bit k set when variable k divides it: a basis
element is a (lead, trail) pair of masks, and an initial ideal's generators
are the lead masks.  Masks are exact here because the basis is squarefree.

The reduced Groebner basis of J_G is known: it is the set of u_pi * f_ij,
one for each admissible path pi from i to j (Herzog, Hibi, Hreinsdottir,
Kahle, Rauh, Adv. Appl. Math. 45 (2010), Thm 2.1).  Every element is a monic
difference m - m' of squarefree monomials, so the initial ideal is the
squarefree monomial ideal the Hochster sweep works on.

The basis is not taken on trust: every call certifies it by reducing the
S-polynomial of every pair of elements whose leads share a variable to
zero against the basis (Buchberger's criterion).  A pair with coprime
leads needs no check: its S-polynomial always reduces to zero
(Buchberger's product criterion; Cox, Little & O'Shea, Ideals,
Varieties, and Algorithms, 2.9).  S-polynomials and reductions of monic
differences stay monic differences, but not squarefree ones, so the
certificate packs each mask into a fixed-width field per variable,
variable 0 most significant: int order is then the lex order, multiplying
and dividing monomials is adding and subtracting ints, and a divisibility
test is one subtraction checked at a guard bit per field.  The width comes
from a degree bound (no exponent of an S-polynomial or its reductions
exceeds 2n <= 20), not from a setting.
"""

from __future__ import annotations

from dataclasses import dataclass


GROEBNER_MAX_VARIABLES = 20


class NonBinomialError(RuntimeError):
    """Internal: the basis failed its zero-reduction certificate."""


def _certify(basis, nvars):
    """Raise NonBinomialError unless the S-polynomial of every pair of
    basis elements whose leads share a variable reduces to zero against
    the basis.  A pair with coprime leads always reduces to zero
    (Buchberger's product criterion; Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, 2.9, Prop. 4), so skipping it keeps the
    certificate complete.  Each difference is reduced at its lead, by the
    element of least lead that divides it, until its two terms cancel; a
    lead that no element divides leaves a nonzero remainder.  Which divisor
    is taken does not change the verdict: reducing a monic difference
    leaves a monic difference, so a set of them passes exactly when it is
    a Groebner basis.  Every element must be homogeneous with its lead
    above its trail; otherwise ValueError is raised, because a reduction
    by a wrong-way pair need not terminate.

    Each mask is packed into an int with a field per variable, variable 0
    most significant, so int order is the lex order, multiplication and
    division are addition and subtraction, and the lcm of two squarefree
    leads is their OR.  Every element is homogeneous, so an S-polynomial
    and everything it reduces to have the degree of the lcm of two leads,
    at most nvars, and no exponent exceeds it.  The field width is that
    bound's bit length plus one guard bit, the field's top bit, so no sum
    or difference carries into the next field, and b divides m exactly
    when every guard bit of (m with all guard bits set) - b is still set."""
    if not basis:
        return
    width = nvars.bit_length() + 1
    place = [1 << (nvars - 1 - k) * width for k in range(nvars)]

    def pack(mask):
        out = 0
        while mask:
            low = mask & -mask
            out |= place[low.bit_length() - 1]
            mask ^= low
        return out

    guard = pack((1 << nvars) - 1) << width - 1
    packed = []
    for lead, trail in basis:
        if lead.bit_count() != trail.bit_count():
            raise ValueError(f"inhomogeneous binomial {lead:#b} - {trail:#b}")
        pair = pack(lead), pack(trail)
        if pair[0] <= pair[1]:
            raise ValueError(f"lead {lead:#b} is not above trail {trail:#b}")
        packed.append(pair)
    packed.sort()

    def reduced(m):
        """m reduced once by the element of least lead that divides it, or
        None.  A divisor of m is at most m, so the scan stops at the first
        lead above m."""
        high = m | guard
        for lead, trail in packed:
            if lead > m:
                return None
            if (high - lead) & guard == guard:
                return m - lead + trail
        return None

    for i, (lead_i, trail_i) in enumerate(packed):
        for lead_k, trail_k in packed[i + 1:]:
            if not lead_i & lead_k:
                continue
            both = lead_i | lead_k
            hi = both - lead_k + trail_k
            lo = both - lead_i + trail_i
            while hi != lo:
                if hi < lo:
                    hi, lo = lo, hi
                hi = reduced(hi)
                if hi is None:
                    # a difference with an irreducible lead is not zero
                    raise NonBinomialError("zero-reduction certificate failed")


def _admissible_paths(g):
    """Yield (i, j, u) for every admissible path of g: an induced path
    from i to j with i < j whose interior vertices all lie outside the
    interval [i, j].  u is the mask of the path's monomial u_pi: x_v for
    each interior vertex v > j, y_v for each interior vertex v < i."""
    n = g.n
    nbrs = g.neighbor_masks()
    for i in range(n):
        # (end, vertices on the path, u of the interior, bound): every
        # interior vertex above i caps the far end j below it
        stack = [(i, 1 << i, 0, n)]
        while stack:
            end, on_path, u, cap = stack.pop()
            if i < end < cap:
                yield i, end, u
            if end > i:
                u |= 1 << end
                cap = min(cap, end)
            elif end < i:
                u |= 1 << n + end
            if cap <= i + 1:
                continue
            before = on_path & ~(1 << end)
            free = nbrs[end] & ~on_path
            while free:
                v = (free & -free).bit_length() - 1
                free &= free - 1
                if not nbrs[v] & before:
                    stack.append((v, on_path | 1 << v, u, cap))


def lex_groebner(g):
    """Reduced lex Groebner basis of the binomial edge ideal of g as
    (lead, trail) mask pairs, sorted, and certified by zero reduction.

    The element of an admissible path from i to j is u * (x_i y_j - x_j y_i).
    Its interior vertices lie outside [i, j], so u shares no variable with
    x_i y_j or x_j y_i, and both terms are squarefree of one degree."""
    n = g.n
    if 2 * n > GROEBNER_MAX_VARIABLES:
        raise ValueError(
            f"groebner computation is limited to {GROEBNER_MAX_VARIABLES} variables")
    basis = sorted((u | 1 << i | 1 << n + j, u | 1 << j | 1 << n + i)
                   for i, j, u in _admissible_paths(g))
    _certify(basis, 2 * n)
    return basis


@dataclass(frozen=True)
class MonomialIdeal:
    """Squarefree monomial ideal with inclusion-minimal generators stored
    as vertex bitmasks over nvars positions."""

    nvars: int
    gens: tuple[int, ...]

    @classmethod
    def from_supports(cls, nvars, masks):
        """The ideal of the given generator supports; raises ValueError for
        a mask outside [1, 2^nvars), which names no nonempty set of the
        nvars variables."""
        masks = sorted(set(int(m) for m in masks))
        for m in masks:
            if not 0 < m < 1 << nvars:
                raise ValueError(
                    f"generator mask {m} is not a nonempty set of {nvars} variables")
        minimal = [m for m in masks
                   if not any(o != m and o & m == o for o in masks)]
        return cls(nvars=nvars, gens=tuple(sorted(minimal)))


def initial_ideal(basis, nvars):
    """Minimal generators of the ideal of the lead masks of a Groebner
    basis over nvars variables."""
    return MonomialIdeal.from_supports(nvars, [lead for lead, _ in basis])
