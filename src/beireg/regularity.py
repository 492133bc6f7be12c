"""Exact regularity of binomial edge ideal quotients at desk scale.

Two independent routes are kept deliberately separate:

  * the structural solver applies only reduction rules with combinatorial
    hypotheses (component additivity, complete/path base cases, the
    lower/upper bound sandwich, cut-vertex gluing, the elimination
    inequality, induced-subgraph monotonicity) and returns either an exact
    value or an honest interval.  It reads every clique fact of a connected
    graph from its maximal cliques: K_n has one, a vertex is simplicial
    (free) iff it lies in exactly one, and a cut vertex glues iff it lies
    in exactly two;
  * the oracle computes the actual value through a lex Groebner basis,
    its squarefree initial ideal, and restricted-complex homology over
    the rationals.

All computation is over characteristic zero; every report records that.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import graphs as gr
from .groebner import GROEBNER_MAX_VARIABLES, initial_ideal, lex_groebner
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
    if not raw.strip().isdecimal():
        raise OracleGateError(
            f"{ORACLE_MAX_N_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


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

def _component_upper(sub, cliques):
    """min(clique count, n-1, n-omega+1) for one component, given its
    maximal cliques; 0 for a single vertex."""
    return min(len(cliques), sub.n - 1, sub.n - max(map(len, cliques)) + 1)


def bounds(g):
    """(lo, hi) with lo the induced-path lower bound and hi the sum over
    components of the best combinatorial upper bound."""
    lo = hi = 0
    for sub, _ in gr.component_graphs(g):
        lo += gr.longest_induced_path(sub)[0]
        hi += _component_upper(sub, gr.maximal_cliques(sub))
    return lo, hi


# ---------------------------------------------------------------------------
# oracle

_oracle_memo: dict = {}


@lru_cache(maxsize=16)
def _initial_ideal(sub):
    """Squarefree initial ideal of the binomial edge ideal of sub: the lead
    masks of its closed-form lex basis over the 2n variables.

    The few most recent labelled graphs are cached, so verification's
    squarefree check reads the ideal the oracle has just built for the same
    component instead of computing its Groebner basis again."""
    return initial_ideal(lex_groebner(sub), 2 * sub.n)


def _oracle_connected(sub):
    """Groebner/homology value for a connected graph, memoized by canonical
    form.  The initial ideal is squarefree, so the regularity of its
    quotient equals that of S/J_G (Conca & Varbaro, Invent. Math. 2020)."""
    key = (gr.canonical_form(sub) if sub.n <= gr.CANONICAL_MAX_N
           else (sub.n, tuple(sub.edges())))
    if key in _oracle_memo:
        return _oracle_memo[key]
    value = hochster_regularity(_initial_ideal(sub),
                                max_vertices=GROEBNER_MAX_VARIABLES)
    _oracle_memo[key] = value
    return value


def oracle_reg(g, max_n=None):
    """Exact regularity via the Groebner/homology route, summed over
    connected components.  Gated by max_n (default 8, overridable via the
    BEIREG_ORACLE_MAX_N environment variable), and per component by the
    Groebner basis's variable limit, whatever max_n says."""
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
    """Per-component squarefree initial ideals (verification hook)."""
    return [_initial_ideal(sub)
            for sub, _ in gr.component_graphs(g) if sub.n >= 2]


# ---------------------------------------------------------------------------
# structural solver

def _is_path(g):
    """A connected graph is a path iff it is a tree of maximum degree 2."""
    return g.edge_count() == g.n - 1 and all(len(nbrs) <= 2 for nbrs in g.adj)


def _graph_key(g):
    """Structural memo key: the labelled graph itself.

    Reusing an isomorphic graph's interval would be sound, and canonical_form
    is cheap, but a canonical key for n <= 8, measured on the benchmark's
    structural workload (6 alternating pairs on a 2-vCPU VM), made the
    pass's wall time 15% shorter (0.61 -> 0.52 s) and the median call 4%
    and the tail call 16% longer (0.0049 -> 0.0057 s).  The labelled key
    stays, for the per-call times; it still catches a sub-solve repeated on
    the same labelled graph.  The oracle memo keeps the canonical key,
    because its values are costly and isomorphism-invariant."""
    return (g.n, tuple(g.edges()))


def _quiet(rule, detail):
    """The note of a sub-solve: only the top-level call is traced."""


def _solve(g, budget, memo, note):
    """Recursive (lo, hi) computation.  Gluing and base cases recurse
    freely; the elimination-inequality and deletion refinements spend one
    unit of budget per level.  memo maps (_graph_key(g), budget) to the
    interval and is keyed by the labelled graph, not by its isomorphism
    class; this is the one place it is written.  note(rule, detail) records
    each deduction; sub-solves get _quiet, so the trace covers the top-level
    call only."""
    key = (_graph_key(g), budget)
    if key not in memo:
        memo[key] = _derive(g, budget, memo, note)
    return memo[key]


def _derive(g, budget, memo, note):
    """The rules behind _solve, applied to a graph not yet in the memo."""
    parts = gr.component_graphs(g)
    if len(parts) != 1:
        lo = hi = 0
        for sub, _ in parts:
            clo, chi = _solve(sub, budget, memo, _quiet)
            lo += clo
            hi += chi
        note("component-additivity",
             f"{len(parts)} components, sum gives [{lo}, {hi}]")
        return lo, hi

    if g.edge_count() == 0:
        note("path-base", "single vertex")
        return 0, 0
    cliques = gr.maximal_cliques(g)
    if len(cliques) == 1:
        note("complete-base", f"K_{g.n}")
        return 1, 1
    if _is_path(g):
        note("path-base", f"path of length {g.n - 1}")
        return g.n - 1, g.n - 1

    lo, hi = gr.longest_induced_path(g)[0], _component_upper(g, cliques)
    if lo == hi:
        note("sandwich", f"bounds meet at {lo}")
        return lo, hi

    # gluing at the first cut vertex simplicial in both halves of a two-part
    # split, which is the first cut vertex in exactly two maximal cliques:
    # each clique minus v is connected, so the split has at most two parts
    # and v's neighbors in each form a clique.  A vertex in three or more
    # cliques never glues, since any split leaves two of them in one part.
    membership = Counter(v for clique in cliques for v in clique)
    for v in range(g.n):
        if membership[v] != 2:
            continue
        try:
            split = gr.splits_at(g, v)
        except ValueError:
            continue
        (l1, h1), (l2, h2) = (_solve(gr.induced_subgraph(g, part)[0], budget,
                                     memo, _quiet) for part in split)
        lo = max(lo, l1 + l2)
        hi = min(hi, h1 + h2)
        note("gluing", f"split at {v} gives [{l1 + l2}, {h1 + h2}]")
        break
    if lo == hi:
        note("sandwich", f"bounds meet at {lo}")
        return lo, hi

    if budget > 0:
        minus = [gr.delete_vertex(g, v) for v in range(g.n)]
        for v in range(g.n):
            if membership[v] == 1:
                continue
            closed = gr.clique_closure(g, v)
            h1 = _solve(minus[v], budget - 1, memo, _quiet)[1]
            h2 = _solve(closed, budget - 1, memo, _quiet)[1]
            h3 = _solve(gr.delete_vertex(closed, v), budget - 1, memo, _quiet)[1]
            cap = max(h1, h2, h3 + 1)
            if cap < hi:
                hi = cap
                note("split-inequality", f"vertex {v} caps the value at {cap}")
        for v in range(g.n):
            floor = _solve(minus[v], budget - 1, memo, _quiet)[0]
            if floor > lo:
                lo = floor
                note("deletion-lower-bound",
                     f"deleting {v} raises the floor to {floor}")
        if lo == hi:
            note("sandwich", f"refined bounds meet at {lo}")

    if lo > hi:
        raise RuntimeError(f"bound rules crossed: lo={lo} > hi={hi}")
    return lo, hi


def structural_reg(g, budget=DEFAULT_BUDGET):
    """Regularity by structural rules only; exact when the rules close the
    gap, otherwise an interval."""
    log = []
    lo, hi = _solve(g, budget, {},
                    lambda rule, detail: log.append((rule, detail)))
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
