"""Parsing and JSON schemas for graphs, families, certificates and reports.

Graph text format: first line "n <count>", then one "u v" pair per line
(0-based, whitespace separated).  Graph JSON:
{"n": int, "edges": [[u, v], ...], "labels": [n strings]?}.  Both parsers
reject self-loops and duplicate edges.  Family JSON carries interval
endpoints in half-units as integers; the path unions are implied by ell and
never serialized.
"""

from __future__ import annotations

import json

from . import graphs as gr
from . import intervals as iv
from . import recognition as rec
from .regularity import RegularityReport


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphs

def parse_graph_text(text):
    lines = text.splitlines()
    header = None
    line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            header = line
            break
    if header is None:
        raise ParseError("line 1: missing 'n <count>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
        raise ParseError(f"line {line_no}: expected 'n <count>', got {header!r}")
    n = int(parts[1])
    edges = []
    seen = set()
    for extra, raw in enumerate(lines[line_no:], start=line_no + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pieces = line.split()
        if len(pieces) != 2:
            raise ParseError(f"line {extra}: expected 'u v', got {line!r}")
        try:
            u, v = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise ParseError(f"line {extra}: non-integer endpoint in {line!r}")
        if u == v:
            raise ParseError(f"line {extra}: self-loop edge {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {extra}: edge {u} {v} out of range")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ParseError(f"line {extra}: duplicate edge {u} {v}")
        seen.add(e)
        edges.append(e)
    return gr.Graph.from_edges(n, edges)


def graph_to_text(g):
    lines = [f"n {g.n}"] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _is_int(x):
    """A JSON integer; true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("graph JSON needs an object with 'n' and 'edges'")
    n = data["n"]
    edges = data.get("edges", [])
    labels = data.get("labels")
    if not _is_int(n) or n < 0:
        raise ParseError("'n' must be a non-negative integer")
    if "labels" in data and not (
            isinstance(labels, list) and len(labels) == n
            and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"'labels' must be a list of {n} strings")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs")
    seen = set()
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise ParseError(f"edge {e!r} is not a pair")
        u, v = e
        if not (_is_int(u) and _is_int(v)):
            raise ParseError(f"edge {e!r} has a non-integer endpoint")
        if u == v:
            raise ParseError(f"self-loop edge {u} {v}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}")
        seen.add(key)
        pairs.append(key)
    try:
        return gr.Graph.from_edges(n, pairs, labels)
    except ValueError as exc:
        raise ParseError(str(exc))


def graph_to_jsonable(g):
    out = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


def load_graph(path, fmt=None):
    """Read a graph file; fmt is 'edgelist', 'json', or None to pick by
    leading character ('{' or '[' means JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt is None:
        fmt = "json" if text.lstrip().startswith(("{", "[")) else "edgelist"
    if fmt == "json":
        return parse_graph_json(text)
    if fmt == "edgelist":
        return parse_graph_text(text)
    raise ParseError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# families and certificates

def family_to_jsonable(f: iv.CLFamily):
    return {"ell": f.ell, "I": [[list(seg) for seg in u.segments] for u in f.I]}


def family_from_jsonable(data) -> iv.CLFamily:
    unions = tuple(iv.IntervalUnion.of(*[tuple(seg) for seg in entry])
                   for entry in data["I"])
    return iv.CLFamily(ell=int(data["ell"]), I=unions)


def cl_certificate_to_jsonable(cert: rec.CLCertificate):
    return {"components": [
        {"family": family_to_jsonable(part.family),
         "bijection": dict(sorted(part.bijection.items()))}
        for part in cert.components]}


def cl_certificate_from_jsonable(data) -> rec.CLCertificate:
    parts = tuple(
        rec.CLComponentCertificate(
            family=family_from_jsonable(entry["family"]),
            bijection={k: int(v) for k, v in entry["bijection"].items()})
        for entry in data["components"])
    return rec.CLCertificate(components=parts)


def wl_to_jsonable(d: rec.WLDecomposition):
    return {"path": list(d.path),
            "clique": sorted(d.clique),
            "t": d.t,
            "hEdges": sorted([min(u, v), max(u, v)] for u, v in d.h_edges)}


def wl_from_jsonable(data) -> rec.WLDecomposition:
    return rec.WLDecomposition(
        path=tuple(data["path"]),
        clique=frozenset(data["clique"]),
        t=int(data["t"]),
        h_edges=frozenset((min(u, v), max(u, v)) for u, v in data["hEdges"]))


# ---------------------------------------------------------------------------
# reports

def report_to_jsonable(r: RegularityReport):
    value = {"exact": r.lo} if r.exact else {"interval": [r.lo, r.hi]}
    out = {"value": value,
           "trace": [{"rule": rule, "detail": detail} for rule, detail in r.trace],
           "method": r.method,
           "characteristic": r.characteristic}
    if not r.exact:
        out["inexact"] = True
    return out


def dumps(obj, compact=False):
    if compact:
        return json.dumps(obj, separators=(",", ":"))
    return json.dumps(obj, indent=2)
