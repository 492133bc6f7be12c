"""Exact regularity of binomial edge ideal quotients at desk scale.

Two independent routes are kept deliberately separate:

  * the structural solver applies only reduction rules with combinatorial
    hypotheses (component additivity, complete/path base cases, the
    lower/upper bound sandwich, cut-vertex gluing, the elimination
    inequality, induced-subgraph monotonicity) and returns either an exact
    value or an honest interval;
  * the oracle computes the actual value through a lex Groebner basis,
    its squarefree initial ideal, and restricted-complex homology over
    the rationals.

All computation is over characteristic zero; every report records that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from . import graphs as gr
from .groebner import PolynomialContext, initial_ideal, lex_groebner
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

def _component_upper(sub):
    """min(clique count, n-1, n-omega+1) for one component; 0 for a single
    vertex."""
    if sub.n <= 1:
        return 0
    return min(len(gr.maximal_cliques(sub)), sub.n - 1,
               sub.n - gr.clique_number(sub) + 1)


def bounds(g):
    """(lo, hi) with lo the induced-path lower bound and hi the sum over
    components of the best combinatorial upper bound."""
    lo = gr.ell(g)
    hi = 0
    for comp in gr.components(g):
        sub, _ = gr.induced_subgraph(g, comp)
        hi += _component_upper(sub)
    return lo, hi


# ---------------------------------------------------------------------------
# oracle

_oracle_memo: dict = {}


@lru_cache(maxsize=16)
def _initial_ideal(sub):
    """Squarefree initial ideal of the binomial edge ideal of sub.

    The few most recent labelled graphs are cached, so verification's
    squarefree check reads the ideal the oracle has just built for the same
    component instead of computing its Groebner basis again."""
    return initial_ideal(lex_groebner(sub), PolynomialContext(sub.n))


def _oracle_connected(sub):
    """Groebner/homology value for a connected graph, memoized by canonical
    form.  The initial ideal is squarefree, so the regularity of its
    quotient equals that of S/J_G (Conca & Varbaro, Invent. Math. 2020)."""
    key = (gr.canonical_form(sub) if sub.n <= gr.CANONICAL_MAX_N
           else (sub.n, tuple(sub.edges())))
    if key in _oracle_memo:
        return _oracle_memo[key]
    value = hochster_regularity(_initial_ideal(sub), max_vertices=2 * sub.n)
    _oracle_memo[key] = value
    return value


def oracle_reg(g, max_n=None):
    """Exact regularity via the Groebner/homology route, summed over
    connected components.  Gated by max_n (default 8, overridable via the
    BEIREG_ORACLE_MAX_N environment variable)."""
    gate = oracle_gate_from_env() if max_n is None else max_n
    if g.n > gate:
        raise OracleGateError(f"oracle gate exceeded: n={g.n} > {gate}")
    total = 0
    for comp in gr.components(g):
        sub, _ = gr.induced_subgraph(g, comp)
        if sub.n >= 2:
            total += _oracle_connected(sub)
    return total


def initial_ideals_of(g):
    """Per-component squarefree initial ideals (verification hook)."""
    out = []
    for comp in gr.components(g):
        sub, _ = gr.induced_subgraph(g, comp)
        if sub.n >= 2:
            out.append(_initial_ideal(sub))
    return out


# ---------------------------------------------------------------------------
# structural solver

def _is_complete(g):
    return g.n >= 2 and g.edge_count() == g.n * (g.n - 1) // 2


def _is_path(g):
    if g.n == 1:
        return True
    if g.edge_count() != g.n - 1 or not gr.is_connected(g):
        return False
    degrees = sorted(g.degree(v) for v in range(g.n))
    return degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])


def _graph_key(g):
    """Structural memo key: the labelled graph itself.

    Reusing an isomorphic graph's interval would be sound, but finding it
    through canonical_form costs n! per key, which at n = 8 is nearly all of
    the solver's time.  The labelled key still catches a sub-solve repeated
    on the same labelled graph.  The oracle memo keeps the canonical key,
    because its values are costly and isomorphism-invariant."""
    return (g.n, tuple(g.edges()))


def _solve(g, budget, memo, log):
    """Recursive (lo, hi) computation.  Gluing and base cases recurse
    freely; the elimination-inequality and deletion refinements spend one
    unit of budget per level.  memo maps (_graph_key(g), budget) to the
    interval and is keyed by the labelled graph, not by its isomorphism
    class.  log collects (rule, detail) pairs on the top-level call only."""
    key = (_graph_key(g), budget)
    if key in memo:
        return memo[key]

    comps = gr.components(g)
    if len(comps) != 1:
        lo = hi = 0
        for comp in comps:
            sub, _ = gr.induced_subgraph(g, comp)
            clo, chi = _solve(sub, budget, memo, None)
            lo += clo
            hi += chi
        if log is not None:
            log.append(("component-additivity",
                        f"{len(comps)} components, sum gives [{lo}, {hi}]"))
        memo[key] = (lo, hi)
        return lo, hi

    if g.edge_count() == 0:
        result = (0, 0)
        if log is not None:
            log.append(("path-base", "single vertex"))
        memo[key] = result
        return result
    if _is_complete(g):
        if log is not None:
            log.append(("complete-base", f"K_{g.n}"))
        memo[key] = (1, 1)
        return 1, 1
    if _is_path(g):
        if log is not None:
            log.append(("path-base", f"path of length {g.n - 1}"))
        memo[key] = (g.n - 1, g.n - 1)
        return g.n - 1, g.n - 1

    lo, hi = bounds(g)
    if lo == hi:
        if log is not None:
            log.append(("sandwich", f"bounds meet at {lo}"))
        memo[key] = (lo, hi)
        return lo, hi

    # gluing at the first cut vertex with exactly two splits, simplicial in
    # both; with three or more splits the vertex cannot be simplicial in any
    # grouped union, so the rule never applies through grouping
    for v in range(g.n):
        if not gr.is_cut_vertex(g, v):
            continue
        try:
            split = gr.Split.at(g, v)
        except ValueError:
            continue
        subs = [gr.induced_subgraph(g, part)[0] for part in split.parts]
        new_ids = [dict(zip(part, range(len(part)))) for part in split.parts]
        if all(gr.is_simplicial(sub, ids[v])
               for sub, ids in zip(subs, new_ids)):
            (l1, h1) = _solve(subs[0], budget, memo, None)
            (l2, h2) = _solve(subs[1], budget, memo, None)
            lo = max(lo, l1 + l2)
            hi = min(hi, h1 + h2)
            if log is not None:
                log.append(("gluing",
                            f"split at {v} gives [{l1 + l2}, {h1 + h2}]"))
            break
    if lo == hi:
        if log is not None:
            log.append(("sandwich", f"bounds meet at {lo}"))
        memo[key] = (lo, hi)
        return lo, hi

    if budget > 0:
        for v in range(g.n):
            if gr.is_simplicial(g, v):
                continue
            minus = gr.delete_vertex(g, v)
            closed = gr.clique_closure(g, v)
            closed_minus = gr.delete_vertex(closed, v)
            h1 = _solve(minus, budget - 1, memo, None)[1]
            h2 = _solve(closed, budget - 1, memo, None)[1]
            h3 = _solve(closed_minus, budget - 1, memo, None)[1]
            cap = max(h1, h2, h3 + 1)
            if cap < hi:
                hi = cap
                if log is not None:
                    log.append(("split-inequality",
                                f"vertex {v} caps the value at {cap}"))
        for v in range(g.n):
            floor = _solve(gr.delete_vertex(g, v), budget - 1, memo, None)[0]
            if floor > lo:
                lo = floor
                if log is not None:
                    log.append(("deletion-lower-bound",
                                f"deleting {v} raises the floor to {floor}"))
        if log is not None and lo == hi:
            log.append(("sandwich", f"refined bounds meet at {lo}"))

    if lo > hi:
        raise RuntimeError(f"bound rules crossed: lo={lo} > hi={hi}")
    memo[key] = (lo, hi)
    return lo, hi


def structural_reg(g, budget=DEFAULT_BUDGET):
    """Regularity by structural rules only; exact when the rules close the
    gap, otherwise an interval."""
    log = []
    memo: dict = {}
    lo, hi = _solve(g, budget, memo, log)
    return RegularityReport(lo=lo, hi=hi, method="structural", trace=tuple(log))


def reg(g, method="auto", budget=DEFAULT_BUDGET, oracle_max_n=None):
    """Regularity facade.

    auto: structural first, oracle fallback when the structural result is
    an interval and the graph fits the oracle gate.  Exact results from
    the two routes are asserted to agree whenever both run.
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
    if g.n <= gate:
        value = oracle_reg(g, max_n=gate)
        if not report.lo <= value <= report.hi:
            raise RuntimeError(
                f"oracle value {value} escapes the structural interval "
                f"[{report.lo}, {report.hi}]")
        trace = report.trace + (("oracle", f"homology gives {value}"),)
        return RegularityReport(lo=value, hi=value, method="auto", trace=trace)
    trace = report.trace + (
        ("oracle", f"skipped: n={g.n} exceeds the gate {gate}"),)
    return RegularityReport(lo=report.lo, hi=report.hi, method="auto", trace=trace)
