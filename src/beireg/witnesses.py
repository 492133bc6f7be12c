"""Witness graphs realizing prescribed invariant triples, and the
exhaustive explorer for the open induced-path-length-2 range.

gen_lrc builds a connected graph with prescribed (induced path length,
regularity, maximal clique count) for 2 <= ell <= r <= c, an apex vertex
carrying triangles and pendant edges plus a pendant path; ell = 1 forces
r = 1 and yields the disconnected edge-plus-isolated-vertices family.

gen_lrw builds a connected graph with prescribed (induced path length,
regularity, n - omega + 1) for 3 <= ell <= r <= wbar out of a path, two
overlapping cliques and a pendant matching; the value is certified by the
cut-vertex gluing chain.

search_l2 explores the open case ell = 2 that gen_lrw refuses: it
filters the isomorphism classes of graphs.enumerate_graphs by clique
number, induced path length and oracle regularity.

Every generated graph is checked against its own postconditions before it
is returned; a failure is a bug, not an input condition.  A witness with
more than formats.MAX_VERTICES vertices, which the parsers would not read
back, is refused with their ParseError before anything is built.
"""

from __future__ import annotations

from . import graphs as gr
from . import regularity as rg
from .formats import MAX_VERTICES, ParseError


def _check(condition, message):
    if not condition:
        raise RuntimeError(f"witness postcondition failed: {message}")


def _check_order(n):
    """Refuse a witness of n vertices past the limit; its labels alone
    could exhaust memory."""
    if n > MAX_VERTICES:
        raise ParseError(f"the witness would have {n} vertices, above the "
                         f"limit of {MAX_VERTICES}")


def gen_lrc(ell, r, c):
    """Connected graph with prescribed induced path length, regularity and
    maximal clique count (ell = 1 gives the disconnected family)."""
    if not 1 <= ell <= r <= c:
        raise ValueError("need 1 <= ell <= r <= c")
    if ell == 1 and r >= 2:
        raise ValueError(
            "no graph has induced path length 1 and regularity above 1: "
            "such graphs are a complete graph plus isolated vertices, "
            "whose regularity is 1")

    if ell == 1:
        # an edge plus c-1 isolated vertices
        _check_order(1 + c)
        labels = ["k1", "k2"] + [f"w{j}" for j in range(1, c)]
        g = gr.Graph.from_edges(1 + c, [(0, 1)], labels)
        _check(gr.ell(g) == 1, "ell")
        _check(len(gr.maximal_cliques(g)) == c, "clique count")
        report = rg.structural_reg(g)
        _check(report.exact and report.value == 1, "regularity")
        return g

    triangles = r if ell == 2 else r - ell + 2
    pendants = c - r
    tail = 0 if ell == 2 else ell - 2
    _check_order(1 + 2 * triangles + pendants + tail)

    labels = ["v"]
    edges = []
    nxt = 1
    for i in range(1, triangles + 1):
        a, b = nxt, nxt + 1
        nxt += 2
        labels += [f"v{i}", f"v{i}'"]
        edges += [(0, a), (0, b), (a, b)]
    for j in range(1, pendants + 1):
        labels.append(f"w{j}")
        edges.append((0, nxt))
        nxt += 1
    prev = 1  # the first triangle's; ell >= 2 gives at least two triangles
    for k in range(1, tail + 1):
        labels.append(f"u{k}")
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1

    g = gr.Graph.from_edges(nxt, edges, labels)
    _check(gr.is_connected(g), "connected")
    _check(gr.ell(g) == ell, "ell")
    _check(len(gr.maximal_cliques(g)) == c, "clique count")
    report = rg.structural_reg(g)
    _check(report.exact and report.value == r, "regularity")
    return g


def gen_lrw(ell, r, wbar):
    """Connected graph with prescribed induced path length, regularity and
    n - omega + 1, certified by the cut-vertex gluing chain."""
    if ell == 2:
        raise ValueError(
            "ell = 2 is rejected: no connected graph attains "
            "(ell, reg, n - omega + 1) = (2, 3, 3), and which pairs are "
            "attainable at ell = 2 is an open question")
    if not 3 <= ell <= r <= wbar:
        raise ValueError("need 3 <= ell <= r <= wbar")

    path_len = ell + 1
    u_size = v_size = wbar - r
    q_size = r - ell
    _check_order(path_len + u_size + v_size + 2 * q_size)

    labels = [str(i) for i in range(1, path_len + 1)]
    edges = {(i, i + 1) for i in range(path_len - 1)}
    nxt = path_len
    u_ids = list(range(nxt, nxt + u_size))
    labels += [f"u{k}" for k in range(1, u_size + 1)]
    nxt += u_size
    v_ids = list(range(nxt, nxt + v_size))
    labels += [f"v{k}" for k in range(1, v_size + 1)]
    nxt += v_size
    q_ids = list(range(nxt, nxt + q_size))
    labels += [f"q{k}" for k in range(1, q_size + 1)]
    nxt += q_size
    qp_ids = list(range(nxt, nxt + q_size))
    labels += [f"q{k}'" for k in range(1, q_size + 1)]
    nxt += q_size

    # complete graphs on {1,2} u U and on {2,3} u V u Q (0-based: 0,1 and 1,2)
    for group in ([0, 1] + u_ids, [1, 2] + v_ids + q_ids):
        edges |= {(a, b) for a in group for b in group if a < b}
    edges.update(zip(q_ids, qp_ids))

    g = gr.Graph.from_edges(nxt, sorted(edges), labels)
    _check(gr.is_connected(g), "connected")
    _check(gr.ell(g) == ell, "ell")
    _check(g.n - gr.clique_number(g) + 1 == wbar, "n - omega + 1")
    report = rg.structural_reg(g)
    _check(report.exact and report.value == r, "regularity")
    return g


def search_l2(r, wbar, max_omega):
    """Exhaustively list connected graphs with induced path length 2 and
    n - omega + 1 = wbar whose oracle regularity equals r, for clique
    numbers up to max_omega.

    The candidates are the connected isomorphism classes of
    graphs.enumerate_graphs on n = wbar + 1 .. max_omega + wbar - 1
    vertices, so each hit is that function's representative of its class
    and the reach is gated by graphs.ENUMERATION_MAX_N.  Hits are sorted by
    vertex count, then canonical form.  The empty list is a valid
    (negative) answer.
    """
    if not 2 <= r <= wbar:
        raise ValueError("need 2 <= r <= wbar")
    if max_omega < 2:
        raise ValueError("max_omega must be at least 2")
    if max_omega + wbar - 1 > gr.ENUMERATION_MAX_N:
        raise ValueError(
            f"size gate exceeded: omega={max_omega}, wbar={wbar} needs "
            f"n={max_omega + wbar - 1} > {gr.ENUMERATION_MAX_N}")

    hits = [g for n in range(wbar + 1, max_omega + wbar)
            for g in gr.enumerate_graphs(n, connected_only=True)
            if gr.clique_number(g) == n - wbar + 1
            and gr.ell(g) == 2 and rg.oracle_reg(g) == r]
    hits.sort(key=lambda g: (g.n, gr.canonical_form(g)))
    return hits
