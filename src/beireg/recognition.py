"""Recognition with certificates for the two bound-realizing graph classes.

A graph attains the clique upper bound (reg = ell = c) exactly when every
component is the intersection graph of a path-interval family; a connected
graph attains the clique-number upper bound (reg = ell = n - omega + 1)
exactly when it decomposes as path + clique + connector edges.  Both
recognizers gate on the invariant equality and then assemble an explicit,
machine-checkable witness; the witness construction is guaranteed to
succeed once the gate passes, so a failed assembly signals a bug, never an
input condition.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs as gr
from . import intervals as iv


class CertificateError(RuntimeError):
    """Internal error: the invariant gate passed but witness assembly or
    self-validation failed.  Never expected on any input."""


# ---------------------------------------------------------------------------
# CL recognition

@dataclass(frozen=True)
class CLComponentCertificate:
    family: iv.CLFamily
    bijection: dict[str, int]


@dataclass(frozen=True)
class CLCertificate:
    components: tuple[CLComponentCertificate, ...]


@dataclass(frozen=True)
class NotCLReason:
    component_index: int
    ell: int
    clique_count: int


def _component_runs(neigh_positions):
    """Split a sorted position set into maximal runs of consecutive integers,
    returned as (start, count) pairs."""
    runs = []
    start = prev = neigh_positions[0]
    for p in neigh_positions[1:]:
        if p == prev + 1:
            prev = p
        else:
            runs.append((start, prev - start + 1))
            start = prev = p
    runs.append((start, prev - start + 1))
    return runs


def _build_component_certificate(sub, old_ids, length, path):
    """Run the constructive direction on one connected component with
    ell = clique count, given its longest induced path; returns its
    certificate."""
    on_path = set(path)
    off_path = [v for v in range(sub.n) if v not in on_path]
    position = {v: j for j, v in enumerate(path)}

    unions = []
    for u in off_path:
        neigh = sorted(position[w] for w in sub.adj[u] if w in position)
        if not neigh:
            raise CertificateError("off-path vertex with no path neighbor")
        runs = _component_runs(neigh)
        prev_end = None
        segments = []
        for start, count in runs:
            if count < 2:
                raise CertificateError("path-neighborhood run of a single vertex")
            if prev_end is not None and prev_end + 2 > start:
                raise CertificateError("path-neighborhood runs too close")
            # positions start..start+count-1 adjacent: union segment
            # [start, start + count - 1 - 1/2] in real units
            segments.append((2 * start, 2 * (start + count - 1) - 1))
            prev_end = start + count - 1
        unions.append(iv.IntervalUnion.of(*segments))

    family = iv.CLFamily(ell=length, I=tuple(unions))
    bijection = {f"J{j}": old_ids[v] for j, v in enumerate(path)}
    bijection.update({f"I{i}": old_ids[u] for i, u in enumerate(off_path, start=1)})
    return CLComponentCertificate(family=family, bijection=bijection)


def recognize_cl(g):
    """Recognize intersection graphs of path-interval families.

    Returns a CLCertificate when every component has ell equal to its
    maximal clique count, otherwise a NotCLReason for the first failing
    component.  A returned certificate always passes
    validate_cl_certificate.
    """
    certs = []
    for idx, (sub, old_ids) in enumerate(gr.component_graphs(g)):
        comp_ell, path = gr.longest_induced_path(sub)
        comp_c = len(gr.maximal_cliques(sub))
        if comp_ell != comp_c:
            return NotCLReason(component_index=idx, ell=comp_ell, clique_count=comp_c)
        certs.append(_build_component_certificate(sub, old_ids, comp_ell, path))
    cert = CLCertificate(components=tuple(certs))
    problem = validate_cl_certificate(g, cert)
    if problem is not None:
        raise CertificateError(f"constructed certificate failed validation: {problem}")
    return cert


def validate_cl_certificate(g, cert) -> str | None:
    """Check a CL certificate against a graph; None means valid.

    Validates each family, checks every bijection maps the family members
    onto one component with exactly the component's edges, and checks the
    component's maximal cliques are exactly the consecutive-pair cliques of
    the family.
    """
    view = gr.component_graphs(g)
    if len(cert.components) != len(view):
        return f"certificate has {len(cert.components)} components, graph has {len(view)}"
    for idx, ((sub, old_ids), part) in enumerate(zip(view, cert.components)):
        fam = part.family
        violation = iv.validate_cl_family(fam)
        if violation is not None:
            return f"component {idx}: family invalid: {violation}"
        names = iv.member_names(fam)
        if sorted(part.bijection) != sorted(names):
            return f"component {idx}: bijection keys do not match family members"
        images = [part.bijection[name] for name in names]
        if len(set(images)) != len(images) or set(images) != set(old_ids):
            return f"component {idx}: bijection is not onto the component"
        graph_f, _ = iv.intersection_graph(fam)
        expected = {(min(part.bijection[names[p]], part.bijection[names[q]]),
                     max(part.bijection[names[p]], part.bijection[names[q]]))
                    for p, q in graph_f.edges()}
        actual = {(min(old_ids[u], old_ids[v]), max(old_ids[u], old_ids[v]))
                  for u, v in sub.edges()}
        if expected != actual:
            return f"component {idx}: edge sets differ"
        # maximal cliques must be exactly F_j = {J_j, J_{j+1}} u {I_i : j in I_i}
        want = set()
        for j in range(fam.ell):
            members = [f"J{j}", f"J{j + 1}"] + [
                f"I{i}" for i in range(1, fam.r + 1)
                if iv.contains_integer(fam.I[i - 1], j)]
            want.add(frozenset(part.bijection[m] for m in members))
        have = {frozenset(old_ids[v] for v in clique)
                for clique in gr.maximal_cliques(sub)}
        if want != have:
            return f"component {idx}: maximal cliques do not match the family"
    return None


# ---------------------------------------------------------------------------
# strongly interval recognition

@dataclass(frozen=True)
class SIGRecognition:
    is_sig: bool
    families: tuple[iv.SIGFamily, ...] | None


def recognize_sig(g):
    """Strongly interval graphs: chordal with ell equal to the maximal
    clique count.

    When recognized and every constructed union is a single interval, the
    per-component single-interval families are returned as well.
    """
    if not gr.is_chordal(g):
        return SIGRecognition(False, None)
    return _sig_from_cl(recognize_cl(g))


def _sig_from_cl(cl):
    """recognize_sig's answer for a chordal graph whose recognize_cl result
    is cl, for a caller that already holds cl."""
    if isinstance(cl, NotCLReason):
        return SIGRecognition(False, None)
    families = []
    for part in cl.components:
        if any(len(u.segments) != 1 for u in part.family.I):
            return SIGRecognition(True, None)
        families.append(iv.SIGFamily(ell=part.family.ell, I=part.family.I))
    for fam in families:
        if iv.validate_sig_family(fam) is not None:
            return SIGRecognition(True, None)
    return SIGRecognition(True, tuple(families))


# ---------------------------------------------------------------------------
# WL recognition

@dataclass(frozen=True)
class WLDecomposition:
    path: tuple[int, ...]
    clique: frozenset[int]
    t: int
    h_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class NotWLReason:
    ell: int
    n: int
    omega: int


def recognize_wl(g):
    """Recognize connected graphs decomposable as path + clique + connectors.

    Gate: ell = n - omega + 1.  On success the deterministic longest induced
    path and the deterministic maximum clique always meet in exactly two
    consecutive path vertices, and the remaining edges all join a path
    vertex to a clique-only vertex.
    """
    if g.n == 0 or not gr.is_connected(g):
        raise ValueError("recognition is defined for connected graphs only")
    n = g.n
    length, path = gr.longest_induced_path(g)
    cliques = gr.maximal_cliques(g)
    omega = max(len(c) for c in cliques)
    if length != n - omega + 1:
        return NotWLReason(ell=length, n=n, omega=omega)
    best = next(c for c in cliques if len(c) == omega)
    clique = frozenset(best)
    shared = [v for v in path if v in clique]
    if len(shared) != 2:
        raise CertificateError(f"path and maximum clique share {len(shared)} vertices")
    positions = sorted(path.index(v) for v in shared)
    if positions[1] != positions[0] + 1:
        raise CertificateError("shared clique vertices not consecutive on the path")
    t = positions[0]
    if set(path) | clique != set(range(n)):
        raise CertificateError("path and clique do not cover the graph")
    path_edges = {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
    clique_edges = {(min(a, b), max(a, b))
                    for a in clique for b in clique if a < b}
    h_edges = frozenset((u, v) for u, v in g.edges()
                        if (u, v) not in path_edges and (u, v) not in clique_edges)
    d = WLDecomposition(path=path, clique=clique, t=t, h_edges=h_edges)
    problem = validate_wl_decomposition(g, d)
    if problem is not None:
        raise CertificateError(f"constructed decomposition failed validation: {problem}")
    return d


def validate_wl_decomposition(g, d) -> str | None:
    """Check a WL decomposition against a connected graph; None means valid."""
    if g.n == 0 or not gr.is_connected(g):
        return "graph is not connected"
    n = g.n
    # path: induced, of maximum length
    for a, b in zip(d.path, d.path[1:]):
        if not g.has_edge(a, b):
            return f"path edge {a}-{b} missing from the graph"
    for i, a in enumerate(d.path):
        for b in d.path[i + 2:]:
            if g.has_edge(a, b):
                return f"path has chord {a}-{b}"
    if len(set(d.path)) != len(d.path):
        return "path repeats a vertex"
    if len(d.path) - 1 != gr.longest_induced_path(g)[0]:
        return "path is not of maximum induced length"
    # clique: of maximum size, meeting the path in exactly {v_t, v_{t+1}}
    for a in d.clique:
        for b in d.clique:
            if a < b and not g.has_edge(a, b):
                return f"clique misses edge {a}-{b}"
    if len(d.clique) != gr.clique_number(g):
        return "clique is not of maximum size"
    if not 0 <= d.t < len(d.path) - 1:
        return "index t out of range"
    shared = {v for v in d.path if v in d.clique}
    if shared != {d.path[d.t], d.path[d.t + 1]}:
        return "clique does not meet the path in exactly the two indexed vertices"
    if set(d.path) | d.clique != set(range(n)):
        return "path and clique do not cover the vertex set"
    # edge cover: path edges + clique edges + h edges, with h edges joining
    # path vertices to clique-only vertices
    path_edges = {(min(a, b), max(a, b)) for a, b in zip(d.path, d.path[1:])}
    clique_edges = {(min(a, b), max(a, b))
                    for a in d.clique for b in d.clique if a < b}
    u_only = d.clique - set(d.path)
    for u, v in d.h_edges:
        if not g.has_edge(u, v):
            return f"h edge {u}-{v} missing from the graph"
        if not ((u in u_only and v in set(d.path)) or (v in u_only and u in set(d.path))):
            return f"h edge {u}-{v} does not join a path vertex to a clique-only vertex"
    covered = path_edges | clique_edges | {(min(u, v), max(u, v)) for u, v in d.h_edges}
    actual = set(g.edges())
    if covered != actual:
        missing = actual - covered
        extra = covered - actual
        return f"edge cover mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
    return None
