"""Exact regularity of binomial edge ideal quotients at desk scale.

Two independent routes are kept deliberately separate:

  * the structural solver applies only reduction rules with combinatorial
    hypotheses (component additivity, complete/path base cases, the
    lower/upper bound sandwich, cut-vertex gluing, the elimination
    inequality, induced-subgraph monotonicity) and returns either an exact
    value or an honest interval.  It works on a graph as its tuple of
    neighbour masks over the vertices 0..k-1.  That tuple is also its memo
    key, and it names the same labelled graph as the (n, edge list) pair.
    Components, induced subgraphs, G - v and the clique closure at v are
    mask operations, and no Graph is built for a sub-solve.  It reads
    every clique fact of a connected graph from its maximal cliques: K_n
    has one, a vertex is simplicial (free) iff it lies in exactly one, and
    a cut vertex glues iff it lies in exactly two;
  * the oracle computes the actual value through a lex Groebner basis,
    its squarefree initial ideal, and restricted-complex homology over
    the rationals.  It builds each component's basis on its reverse
    Cuthill-McKee relabelling, which reads only adjacency and degrees.

All computation is over characteristic zero; every report records that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import graphs as gr
from .groebner import GROEBNER_MAX_VARIABLES, MonomialIdeal, lex_groebner
from .hochster import hochster_regularity

ORACLE_MAX_N_DEFAULT = 8
ORACLE_MAX_N_ENV = "BEIREG_ORACLE_MAX_N"
DEFAULT_BUDGET = 3


class OracleGateError(ValueError):
    """The graph exceeds the oracle size gate, or the gate is malformed."""


def oracle_gate_from_env():
    raw = os.environ.get(ORACLE_MAX_N_ENV)
    if raw is None:
        return ORACLE_MAX_N_DEFAULT
    digits = raw.strip()
    if digits.isascii() and digits.isdecimal():
        try:
            return int(digits)
        except ValueError:  # past the digit limit of int()
            pass
    raise OracleGateError(
        f"{ORACLE_MAX_N_ENV} must be a non-negative integer, got {raw!r}")


@dataclass(frozen=True)
class RegularityReport:
    """Exact value (lo == hi) or interval, with the deduction trace."""

    lo: int
    hi: int
    method: str
    trace: tuple[tuple[str, str], ...]
    characteristic: int = 0

    @property
    def exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        if not self.exact:
            raise ValueError("report is an interval, not an exact value")
        return self.lo


# ---------------------------------------------------------------------------
# bounds

def _component_upper(n, sizes):
    """min(clique count, n-1, n-omega+1) for one component on n vertices,
    given the sizes of its maximal cliques; 0 for a single vertex."""
    return min(len(sizes), n - 1, n - max(sizes) + 1)


def bounds(g):
    """(lo, hi) with lo the induced-path lower bound and hi the sum over
    components of the best combinatorial upper bound."""
    lo = hi = 0
    for sub, _ in gr.component_graphs(g):
        lo += gr.longest_induced_path(sub)[0]
        sizes = [c.bit_count() for c in gr.clique_masks(sub.neighbor_masks())]
        hi += _component_upper(sub.n, sizes)
    return lo, hi


# ---------------------------------------------------------------------------
# oracle

_oracle_memo: dict = {}


def _relabelled(sub):
    """sub with vertex order[k] renamed k, for order its reverse
    Cuthill-McKee order; sub itself when n <= 2."""
    if sub.n <= 2:
        return sub
    nb = sub.neighbor_masks()
    order = gr.reverse_cuthill_mckee(nb)
    renamed = [0] * sub.n  # renamed[v]: the bit of v's new name
    for k, v in enumerate(order):
        renamed[v] = 1 << k
    masks = []
    for v in order:
        mask = 0
        for u in gr.bits(nb[v]):
            mask |= renamed[u]
        masks.append(mask)
    return gr.Graph(sub.n, masks)


def _initial_ideal(sub):
    """Squarefree initial ideal of the binomial edge ideal of sub, relabelled
    in reverse Cuthill-McKee order: the lead masks of its closed-form lex
    basis over the 2n variables.

    A relabelling permutes the variables, a graded automorphism carrying
    J_G to J_{sigma G}, so the regularity does not change; the basis does.
    It has one element per admissible path, an induced path whose interior
    lies outside [i, j] (Herzog et al. 2010), and a bandwidth-reducing
    order makes most induced paths monotone, so not admissible.

    The leads are taken as lex_groebner returns them, without
    initial_ideal's minimalization.  The basis is reduced (Thm 2.1), so no
    lead divides another and no two are equal, and it is sorted, so its
    leads are already the increasing minimal generators.
    hochster_regularity refuses a generator that is not minimal, so a basis
    that broke this would fail loudly, not give a wrong value."""
    sub = _relabelled(sub)
    return MonomialIdeal(2 * sub.n,
                         tuple([lead for lead, _ in lex_groebner(sub)]))


def _oracle_connected(sub):
    """Groebner/homology value for a connected graph, memoized by its
    neighbour masks.  The initial ideal is squarefree, so the regularity of
    its quotient equals that of S/J_G (Conca & Varbaro, Invent. Math. 2020).

    The key names the labelled graph, not its isomorphism class.  A
    canonical key would cost an exponential search per call and hit no
    more often on the verification sweep, which meets every repeated
    component with the labels of its first visit.

    A key is stored only after _initial_ideal(sub) has returned, and
    lex_groebner certifies every basis it returns.  The relabelling reads
    only the masks, so a key in the memo names a labelled component whose
    basis has passed its certificate; initial_ideals_of relies on that."""
    key = sub.neighbor_masks()
    if key in _oracle_memo:
        return _oracle_memo[key]
    value = hochster_regularity(_initial_ideal(sub))
    _oracle_memo[key] = value
    return value


def oracle_reg(g, max_n=None):
    """Exact regularity via the Groebner/homology route, summed over
    connected components.  Gated by max_n (default ORACLE_MAX_N_DEFAULT,
    overridable via the BEIREG_ORACLE_MAX_N environment variable), and per
    component by the Groebner basis's variable limit, whatever max_n says."""
    gate = oracle_gate_from_env() if max_n is None else max_n
    if g.n > gate:
        raise OracleGateError(f"oracle gate exceeded: n={g.n} > {gate}")
    subs = [sub for sub, _ in gr.component_graphs(g) if sub.n >= 2]
    for sub in subs:
        if 2 * sub.n > GROEBNER_MAX_VARIABLES:
            raise OracleGateError(
                f"oracle gate exceeded: a component with n={sub.n} needs "
                f"{2 * sub.n} > {GROEBNER_MAX_VARIABLES} polynomial variables")
    return sum(_oracle_connected(sub) for sub in subs)


def initial_ideals_of(g):
    """Per-component squarefree initial ideals, built and certified for the
    components of g with two or more vertices whose masks the oracle memo
    lacks (verification hook); _oracle_connected says why the rest pass."""
    return [_initial_ideal(sub) for sub, _ in gr.component_graphs(g)
            if sub.n >= 2 and sub.neighbor_masks() not in _oracle_memo]


# ---------------------------------------------------------------------------
# structural solver

_structural_memo: dict = {}


def _quiet(rule, detail):
    """The note of a sub-solve: only the top-level call is traced."""


def _split(nb, v):
    """The parts of the split at v, as vertex masks with v in each: one part
    per component of G - v, or None when v is not a cut vertex."""
    bit = 1 << v
    comps = gr.component_masks(nb, ((1 << len(nb)) - 1) & ~bit)
    return [comp | bit for comp in comps] if len(comps) >= 2 else None


def _closure(nb, v):
    """The clique closure at v: N(v) OR-ed into each neighbour's mask."""
    around = nb[v]
    return tuple(m | (around & ~(1 << u)) if around >> u & 1 else m
                 for u, m in enumerate(nb))


def _drop(nb, v):
    """G minus v, renumbered."""
    return gr.induced_masks(nb, ((1 << len(nb)) - 1) & ~(1 << v))


def _solve(nb, budget):
    """The (lo, hi) interval of a sub-solve, on a graph given as its
    neighbour masks over the vertices 0..k-1, the form every rule reads.
    Gluing and base cases recurse freely; the elimination-inequality and
    deletion refinements spend one unit of budget per level.  Sub-solves
    are not traced: only structural_reg's top-level call is.

    `_structural_memo` maps (nb, budget) to the interval.  The mask tuple
    and the labelled graph's (n, edge list) determine each other, so the
    key names one labelled graph; it is not canonical.  The interval is a
    pure function of the key, since every rule reads only the masks and the
    budget, so one memo serves every call in the process: a sub-solve met
    again, in the same call or in a later one on another graph, is read
    back.  Only this function and structural_reg write it.  Reusing an
    isomorphic graph's interval would be sound too, but with the
    refinement's early exits a sub-solve costs less than its canonical key.
    The oracle memo and the path and clique kernels' memos are keyed by
    the masks too."""
    key = (nb, budget)
    if key not in _structural_memo:
        _structural_memo[key] = _derive(nb, budget, _quiet)
    return _structural_memo[key]


def _derive(nb, budget, note):
    """The rules behind _solve, applied to a graph not yet in the memo;
    note(rule, detail) records each deduction.

    The budgeted refinement, _refine, stops as soon as it can no longer
    move the interval, and still returns what the full sweep over every
    vertex returns.  A split-inequality cap max(hi(G - v), hi(G_v),
    hi(G_v - v) + 1) (Ohtani, Comm. Algebra 2011) lowers hi only when all
    three terms are below hi, so the sub-solves at v stop at the first term
    that is not; that step needs no theorem.  Both loops stop once
    lo == hi.  Past that point the full sweep could move the interval only
    by a cap below hi or a floor above lo, which would put hi below lo and
    raise "bound rules crossed" below.  That cannot happen: every cap is a
    true upper bound on reg, every floor lo(G - v) is a true lower bound by
    induced-subgraph monotonicity reg(S/J_{G-v}) <= reg(S/J_G) (Matsuda &
    Murai, J. Commut. Algebra 2013), and verification's structural check
    confirms both against the oracle on every class it sweeps.  So the
    interval, the trace and the exceptions are those of the full sweep,
    which the tests still run on every class with n <= 6.  G - v is built
    only when a loop reaches v."""
    n = len(nb)
    parts = gr.component_masks(nb, (1 << n) - 1)
    if len(parts) != 1:
        lo = hi = 0
        for part in parts:
            clo, chi = _solve(gr.induced_masks(nb, part), budget)
            lo += clo
            hi += chi
        note("component-additivity",
             f"{len(parts)} components, sum gives [{lo}, {hi}]")
        return lo, hi

    if n == 1:
        note("path-base", "single vertex")
        return 0, 0
    cliques = gr.clique_masks(nb)
    if len(cliques) == 1:
        note("complete-base", f"K_{n}")
        return 1, 1
    degrees = [m.bit_count() for m in nb]
    if sum(degrees) == 2 * (n - 1) and max(degrees) <= 2:
        note("path-base", f"path of length {n - 1}")
        return n - 1, n - 1

    lo = gr.induced_path(nb)[0]
    hi = _component_upper(n, [c.bit_count() for c in cliques])
    if lo == hi:
        note("sandwich", f"bounds meet at {lo}")
        return lo, hi

    # vertices in two or more maximal cliques, and in three or more
    twice = thrice = seen = 0
    for clique in cliques:
        thrice |= twice & clique
        twice |= seen & clique
        seen |= clique

    # gluing at the first cut vertex simplicial in both halves of a two-part
    # split, which is the first cut vertex in exactly two maximal cliques:
    # each clique minus v is connected, so the split has at most two parts
    # and v's neighbors in each form a clique.  A vertex in three or more
    # cliques never glues, since any split leaves two of them in one part.
    for v in gr.bits(twice & ~thrice):
        split = _split(nb, v)
        if split is None:
            continue
        (l1, h1), (l2, h2) = (_solve(gr.induced_masks(nb, part), budget)
                              for part in split)
        lo = max(lo, l1 + l2)
        hi = min(hi, h1 + h2)
        note("gluing", f"split at {v} gives [{l1 + l2}, {h1 + h2}]")
        break
    if lo == hi:
        note("sandwich", f"bounds meet at {lo}")
        return lo, hi

    if budget > 0:
        lo, hi = _refine(nb, twice, lo, hi, budget, note)
    if lo > hi:
        raise RuntimeError(f"bound rules crossed: lo={lo} > hi={hi}")
    return lo, hi


def _refine(nb, twice, lo, hi, budget, note):
    """_derive's budgeted refinement of [lo, hi] on a connected graph whose
    vertices in two or more maximal cliques are the mask twice: the split
    inequality caps hi, deletions raise lo, and each sub-solve spends one
    unit of budget.  _derive's docstring shows why its exits are sound."""
    minus = {}
    # a vertex in one maximal clique is simplicial: its closure is itself
    for v in gr.bits(twice):
        if lo == hi:
            break
        # cap = max(h1, h2, h3 + 1) lowers hi only if every term is below it
        minus[v] = _drop(nb, v)
        h1 = _solve(minus[v], budget - 1)[1]
        if h1 >= hi:
            continue
        closed = _closure(nb, v)
        h2 = _solve(closed, budget - 1)[1]
        if h2 >= hi:
            continue
        cap = max(h1, h2, _solve(_drop(closed, v), budget - 1)[1] + 1)
        if cap < hi:
            hi = cap
            note("split-inequality", f"vertex {v} caps the value at {cap}")
    for v in range(len(nb)):
        if lo == hi:
            break
        floor = _solve(minus[v] if v in minus else _drop(nb, v),
                       budget - 1)[0]
        if floor > lo:
            lo = floor
            note("deletion-lower-bound",
                 f"deleting {v} raises the floor to {floor}")
    if lo == hi:
        note("sandwich", f"refined bounds meet at {lo}")
    return lo, hi


def structural_reg(g, budget=DEFAULT_BUDGET):
    """Regularity by structural rules only; exact when the rules close the
    gap, otherwise an interval.

    The rules always run on g itself, with the logging note, so the trace
    is the same however many of its sub-solves the memo already holds."""
    log = []
    nb = g.neighbor_masks()
    lo, hi = _structural_memo[nb, budget] = _derive(
        nb, budget, lambda rule, detail: log.append((rule, detail)))
    return RegularityReport(lo=lo, hi=hi, method="structural", trace=tuple(log))


def reg(g, method="auto", budget=DEFAULT_BUDGET, oracle_max_n=None):
    """Regularity facade.

    auto: structural first, oracle fallback when the structural result is
    an interval and the oracle's gates (size, Groebner variables per
    component) admit the graph.  Exact results from the two routes are
    asserted to agree whenever both run.
    """
    gate = oracle_gate_from_env() if oracle_max_n is None else oracle_max_n
    if method == "structural":
        return structural_reg(g, budget)
    if method == "oracle":
        value = oracle_reg(g, max_n=gate)
        lo, hi = bounds(g)
        if not lo <= value <= hi:
            raise RuntimeError(
                f"oracle value {value} escapes the combinatorial bounds [{lo}, {hi}]")
        return RegularityReport(lo=value, hi=value, method="oracle",
                                trace=(("oracle", f"homology gives {value}"),))
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")

    report = structural_reg(g, budget)
    if report.exact:
        return RegularityReport(lo=report.lo, hi=report.hi, method="auto",
                                trace=report.trace)
    try:
        value = oracle_reg(g, max_n=gate)
    except OracleGateError as exc:
        reason = f"n={g.n} exceeds the gate {gate}" if g.n > gate else exc
        trace = report.trace + (("oracle", f"skipped: {reason}"),)
        return RegularityReport(lo=report.lo, hi=report.hi, method="auto",
                                trace=trace)
    if not report.lo <= value <= report.hi:
        raise RuntimeError(
            f"oracle value {value} escapes the structural interval "
            f"[{report.lo}, {report.hi}]")
    trace = report.trace + (("oracle", f"homology gives {value}"),)
    return RegularityReport(lo=value, hi=value, method="auto", trace=trace)
