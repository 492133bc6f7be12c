"""Recognition with certificates for the two bound-realizing graph classes.

A graph attains the clique upper bound (reg = ell = c) exactly when every
component is the intersection graph of a path-interval family; a connected
graph attains the clique-number upper bound (reg = ell = n - omega + 1)
exactly when it decomposes as path + clique + connector edges.  Both
recognizers gate on the invariant equality and then assemble an explicit,
machine-checkable witness; the witness construction is guaranteed to
succeed once the gate passes, so a failed assembly signals a bug, never an
input condition.  CL certificates are built and checked on neighbour
masks: a family's edges and cliques meet its component's as vertex masks.
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


def _build_component_certificate(sub, old_ids, length, path):
    """Run the constructive direction on one connected component with
    ell = clique count, given its longest induced path; returns its
    certificate.

    An off-path vertex's path neighbours are a mask over path positions.
    Its maximal runs start at the bits of near & ~(near << 1) and end at
    the bits of near & ~(near >> 1); a run s..e gives the union segment
    [s, e - 1/2] in real units."""
    nb, on_path = sub.neighbor_masks(), sum(1 << v for v in path)
    off_path = [v for v in range(sub.n) if not on_path >> v & 1]
    unions = []
    for u in off_path:
        near = sum(1 << j for j, v in enumerate(path) if nb[u] >> v & 1)
        if not near:
            raise CertificateError("off-path vertex with no path neighbor")
        starts, ends = near & ~(near << 1), near & ~(near >> 1)
        if starts & ends:
            raise CertificateError("path-neighborhood run of a single vertex")
        unions.append(iv.IntervalUnion.of(*(
            (2 * s, 2 * e - 1) for s, e in zip(gr.bits(starts), gr.bits(ends)))))

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
        # the meets of all members, J unions first; the family check reads
        # the block of the I unions
        js = fam.j_unions()
        meets = iv._meet_masks((*js, *fam.I))
        violation = iv._family_violation(
            fam, tuple(m >> len(js) for m in meets[len(js):]))
        if violation is not None:
            return f"component {idx}: family invalid: {violation}"
        names = iv.member_names(fam)
        if sorted(part.bijection) != sorted(names):
            return f"component {idx}: bijection keys do not match family members"
        images = [part.bijection[name] for name in names]
        if len(set(images)) != len(images) or set(images) != set(old_ids):
            return f"component {idx}: bijection is not onto the component"
        # carry the family's intersection graph onto component positions
        position = {v: p for p, v in enumerate(old_ids)}
        at = [position[v] for v in images]
        carried = [0] * sub.n
        for p, m in enumerate(meets):
            carried[at[p]] = sum(1 << at[q] for q in gr.bits(m))
        nb = sub.neighbor_masks()
        if tuple(carried) != nb:
            return f"component {idx}: edge sets differ"
        # maximal cliques must be exactly F_j = {J_j, J_{j+1}} u {I_i : j in I_i}
        want = set()
        for j in range(fam.ell):
            members = [j, j + 1] + [fam.ell + i for i in range(1, fam.r + 1)
                                    if iv.contains_integer(fam.I[i - 1], j)]
            want.add(sum(1 << at[p] for p in members))
        if want != set(gr.clique_masks(nb)):
            return f"component {idx}: maximal cliques do not match the family"
    return None


# ---------------------------------------------------------------------------
# strongly interval recognition

@dataclass(frozen=True)
class SIGRecognition:
    is_sig: bool
    families: tuple[iv.CLFamily, ...] | None


def recognize_sig(g):
    """Strongly interval graphs: chordal with ell equal to the maximal
    clique count.  When recognized, the per-component families of
    recognize_cl are returned as well, and each of their unions is a single
    segment.

    Proof: let v_0..v_ell be the longest induced path of a component and u
    an off-path vertex.  If u's path neighbours formed two runs, take
    neighbours v_i and v_j of u, i + 1 < j, with none of v_{i+1}..v_{j-1}
    adjacent to u.  Since the path is induced, u v_i v_{i+1} .. v_j u is
    an induced cycle of length j - i + 2 >= 4, which a chordal graph does
    not have.  So u's neighbours form one run, and its union one segment.
    """
    cl = recognize_cl(g) if gr.is_chordal(g) else None
    if not isinstance(cl, CLCertificate):
        return SIGRecognition(False, None)
    return SIGRecognition(True, tuple(part.family for part in cl.components))


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


def _path_and_clique_edges(path, clique):
    """The edges of the path and of the clique, as (min, max) pairs."""
    return ({(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
            | {(a, b) for a in clique for b in clique if a < b})


def recognize_wl(g):
    """Recognize connected graphs decomposable as path + clique + connectors.

    Gate: ell = n - omega + 1.  On success the deterministic longest induced
    path and the deterministic maximum clique meet in path positions t and
    t + 1, and the other edges join a path vertex to a clique-only vertex.
    validate_wl_decomposition owns every check; CertificateError if it fails.
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
    # -1 when the path misses the clique; the validator rejects it
    t = next((j for j, v in enumerate(path) if v in clique), -1)
    covered = _path_and_clique_edges(path, clique)
    h_edges = frozenset(e for e in g.edges() if e not in covered)
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
    # path: chordless, of maximum length; its edges are checked with the
    # edge cover below
    for i, a in enumerate(d.path):
        for b in d.path[i + 2:]:
            if g.has_edge(a, b):
                return f"path has chord {a}-{b}"
    on_path = set(d.path)
    if len(on_path) != len(d.path):
        return "path repeats a vertex"
    if len(d.path) - 1 != gr.longest_induced_path(g)[0]:
        return "path is not of maximum induced length"
    # clique: of maximum size, meeting the path in exactly {v_t, v_{t+1}}
    if len(d.clique) != gr.clique_number(g):
        return "clique is not of maximum size"
    if not 0 <= d.t < len(d.path) - 1:
        return "index t out of range"
    shared = on_path & d.clique
    if shared != {d.path[d.t], d.path[d.t + 1]}:
        return "clique does not meet the path in exactly the two indexed vertices"
    if on_path | d.clique != set(range(n)):
        return "path and clique do not cover the vertex set"
    # edge cover: path edges + clique edges + h edges are exactly the
    # graph's edges, with h edges joining path vertices to clique-only
    # vertices
    u_only = d.clique - on_path
    for u, v in d.h_edges:
        if not ((u in u_only and v in on_path) or (v in u_only and u in on_path)):
            return f"h edge {u}-{v} does not join a path vertex to a clique-only vertex"
    covered = _path_and_clique_edges(d.path, d.clique) | {
        (min(u, v), max(u, v)) for u, v in d.h_edges}
    actual = set(g.edges())
    if covered != actual:
        missing = actual - covered
        extra = covered - actual
        return f"edge cover mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
    return None
