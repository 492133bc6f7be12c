"""The lex Groebner basis of a binomial edge ideal, in closed form.

The polynomial ring has 2n variables x_1..x_n, y_1..y_n ordered
lexicographically with x_1 > ... > x_n > y_1 > ... > y_n.  Monomials are
exponent tuples compared directly (position 0 most significant).

The reduced Groebner basis of J_G is known: it is the set of u_pi * f_ij,
one for each admissible path pi from i to j (Herzog, Hibi, Hreinsdottir,
Kahle, Rauh, "Binomial edge ideals and conditional independence
statements", Adv. Appl. Math. 2010, Thm 2.1).  Every element is a monic
difference m - m' with a squarefree lead, so the initial ideal is the
squarefree monomial ideal the Hochster sweep works on.

The basis is not taken on trust: every call certifies it by reducing the
S-polynomial of every pair of elements whose leads share a variable to
zero against the basis (Buchberger's criterion).  A pair with coprime
leads needs no check: its S-polynomial always reduces to zero
(Buchberger's product criterion; Cox, Little & O'Shea, Ideals,
Varieties, and Algorithms, 2.9).  S-polynomials and reductions of monic
differences stay monic differences.  The certificate works on packed
exponents: each monomial is one int with a fixed-width field per
variable, variable 0 most significant, so that int order is the lex
order, multiplying and dividing monomials is adding and subtracting ints,
and a divisibility test is one subtraction checked at a guard bit per
field.  The width comes from a degree bound (no exponent of an
S-polynomial or its reductions exceeds 2n <= 20), not from a setting.
"""

from __future__ import annotations

from dataclasses import dataclass


GROEBNER_MAX_VARIABLES = 20


class NonBinomialError(RuntimeError):
    """Internal: the basis failed its zero-reduction certificate."""


class NonSquarefreeLeadError(ValueError):
    """A Groebner basis element has a non-squarefree lead monomial."""


@dataclass(frozen=True)
class PolynomialContext:
    """Ring data: n graph vertices give 2n variables under a fixed lex order."""

    n: int

    @property
    def nvars(self):
        return 2 * self.n

    def variable_names(self):
        return [f"x{i}" for i in range(1, self.n + 1)] + [
            f"y{i}" for i in range(1, self.n + 1)]

    def monomial_string(self, mono):
        names = self.variable_names()
        parts = [f"{names[i]}^{e}" if e > 1 else names[i]
                 for i, e in enumerate(mono) if e]
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Binomial:
    """Monic difference lead - trail with lead > trail in the lex order."""

    lead: tuple[int, ...]
    trail: tuple[int, ...]

    def __post_init__(self):
        if self.lead <= self.trail:
            raise ValueError("lead must exceed trail in the term order")

    def to_string(self, ctx):
        return f"{ctx.monomial_string(self.lead)} - {ctx.monomial_string(self.trail)}"


def _pack(mono, width):
    """One int for an exponent tuple: a width-bit field per variable,
    variable 0 in the most significant field."""
    out = 0
    for e in mono:
        out = out << width | e
    return out


def _certify(basis):
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
    a Groebner basis.  The leads must be squarefree and every element
    homogeneous; either failing raises ValueError (NonSquarefreeLeadError
    for a lead).

    Monomials are packed into ints (_pack): a field per variable, variable
    0 most significant, so int order is the lex order, multiplication and
    division are addition and subtraction, and the lcm of two squarefree
    leads is their OR.  Every element is homogeneous with a squarefree
    lead, so an S-polynomial and everything it reduces to have the degree
    of the lcm of two leads, at most the number of variables, and no
    exponent exceeds it.  The field width is that bound's bit length plus
    one guard bit, the field's top bit, so no sum or difference carries
    into the next field, and b divides m exactly when every guard bit of
    (m with all guard bits set) - b is still set."""
    if not basis:
        return
    nvars = len(basis[0].lead)
    for b in basis:
        if any(e > 1 for e in b.lead):
            raise NonSquarefreeLeadError(f"non-squarefree lead {b.lead}")
        if sum(b.lead) != sum(b.trail):
            raise ValueError(f"inhomogeneous binomial {b.lead} - {b.trail}")
    width = nvars.bit_length() + 1
    guard = _pack((1 << width - 1,) * nvars, width)
    packed = sorted((_pack(b.lead, width), _pack(b.trail, width))
                    for b in basis)

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
    """Yield (i, j, interior) for every admissible path of g: an induced
    path from i to j with i < j whose interior vertices all lie outside
    the interval [i, j]."""
    nbrs = g.neighbor_masks()
    for i in range(g.n):
        # (end, vertices on the path, interior vertices, bound): every
        # interior vertex above i caps the far end j below it
        stack = [(i, 1 << i, (), g.n)]
        while stack:
            end, on_path, interior, cap = stack.pop()
            if i < end < cap:
                yield i, end, interior
            if end != i:
                interior += (end,)
                if end > i:
                    cap = min(cap, end)
            if cap <= i + 1:
                continue
            before = on_path & ~(1 << end)
            free = nbrs[end] & ~on_path
            while free:
                v = (free & -free).bit_length() - 1
                free &= free - 1
                if not nbrs[v] & before:
                    stack.append((v, on_path | 1 << v, interior, cap))


def lex_groebner(g):
    """Reduced lex Groebner basis of the binomial edge ideal of g, sorted
    by lead monomial and certified by zero reduction.

    The element of an admissible path from i to j is u * (x_i y_j - x_j y_i),
    where u is the product of x_v over interior vertices v > j and of y_v
    over interior vertices v < i (0-based vertex v is variable v + 1)."""
    n = g.n
    if 2 * n > GROEBNER_MAX_VARIABLES:
        raise ValueError(
            f"groebner computation is limited to {GROEBNER_MAX_VARIABLES} variables")
    basis = []
    for i, j, interior in _admissible_paths(g):
        trail = [0] * (2 * n)
        for v in interior:
            trail[v if v > j else n + v] = 1
        lead = list(trail)
        lead[i] = lead[n + j] = 1
        trail[j] = trail[n + i] = 1
        basis.append(Binomial(tuple(lead), tuple(trail)))
    basis.sort(key=lambda b: (b.lead, b.trail))
    _certify(basis)
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

    @classmethod
    def from_exponents(cls, nvars, exponent_vectors):
        masks = []
        for vec in exponent_vectors:
            if any(e not in (0, 1) for e in vec):
                raise NonSquarefreeLeadError(f"non-squarefree generator {vec}")
            masks.append(sum(1 << i for i, e in enumerate(vec) if e))
        return cls.from_supports(nvars, masks)

    def supports(self):
        """Generators as sorted variable-index tuples."""
        out = []
        for m in self.gens:
            idx = []
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                idx.append(v)
            out.append(tuple(idx))
        return out


def initial_ideal(gb, ctx):
    """Minimal generators of the ideal of lead monomials of a reduced
    Groebner basis; raises when any lead is non-squarefree."""
    for b in gb:
        if any(e > 1 for e in b.lead):
            raise NonSquarefreeLeadError(
                f"non-squarefree lead {ctx.monomial_string(b.lead)}")
    return MonomialIdeal.from_exponents(ctx.nvars, [b.lead for b in gb])
