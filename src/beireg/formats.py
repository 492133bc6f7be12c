"""Graph parsing and the JSON forms of graphs, families, certificates and
reports.

Graph text format: first line "n <count>", then one "u v" pair per line
(0-based, whitespace separated).  Graph JSON:
{"n": int, "edges": [[u, v], ...], "labels": [n strings]?}.  Both parsers
reject self-loops and duplicate edges, and a vertex count above
MAX_VERTICES before anything is allocated for it.  Graphs are read and
written; families, certificates and reports are only written, never read
back.
Family JSON carries interval endpoints in half-units as integers; the path
unions are implied by ell and never serialized.
"""

from __future__ import annotations

import json
import re

from . import graphs as gr


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphs

# above the 2003 vertices of the largest generated witness, gen lrc 400 800
# 1600, so that its edge list reads back; the generators refuse a witness
# past it
MAX_VERTICES = 4096

_COUNT = re.compile(r"[0-9]+")
_ENDPOINT = re.compile(r"-?[0-9]+")  # a negative one is out of range


def _integer(token, pattern):
    """The int that token spells when pattern matches all of it, else None,
    also past the digit limit of int()."""
    if pattern.fullmatch(token):
        try:
            return int(token)
        except ValueError:
            pass
    return None


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
    n = _integer(parts[1], _COUNT) if len(parts) == 2 and parts[0] == "n" else None
    if n is None:
        raise ParseError(f"line {line_no}: expected 'n <count>', got {header!r}")
    if n > MAX_VERTICES:
        raise ParseError(f"line {line_no}: vertex count above the limit "
                         f"of {MAX_VERTICES}")
    edges = []
    seen = set()
    for extra, raw in enumerate(lines[line_no:], start=line_no + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pieces = line.split()
        if len(pieces) != 2:
            raise ParseError(f"line {extra}: expected 'u v', got {line!r}")
        u, v = (_integer(piece, _ENDPOINT) for piece in pieces)
        if u is None or v is None:
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


def _is_int(x):
    """A JSON integer; true and false are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text):
    try:
        data = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past int()'s limit
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict) or "n" not in data:
        raise ParseError("graph JSON needs an object with 'n' and 'edges'")
    n = data["n"]
    edges = data.get("edges", [])
    labels = data.get("labels")
    if not _is_int(n) or n < 0:
        raise ParseError("'n' must be a non-negative integer")
    if n > MAX_VERTICES:
        raise ParseError(f"'n' is above the vertex limit of {MAX_VERTICES}")
    if "labels" in data and not (
            isinstance(labels, list) and len(labels) == n
            and all(isinstance(x, str) for x in labels)):
        raise ParseError(f"'labels' must be a list of {n} strings")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs")

    def pairs():
        # shape only; Graph.from_edges checks the rest as each edge is yielded
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2):
                raise ParseError(f"edge {e!r} is not a pair")
            if not (_is_int(e[0]) and _is_int(e[1])):
                raise ParseError(f"edge {e!r} has a non-integer endpoint")
            yield e

    try:
        return gr.Graph.from_edges(n, pairs(), labels)
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {exc.start}: input is not UTF-8 text")
    if fmt is None:
        fmt = "json" if text.lstrip().startswith(("{", "[")) else "edgelist"
    if fmt == "json":
        return parse_graph_json(text)
    if fmt == "edgelist":
        return parse_graph_text(text)
    raise ParseError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# families and certificates

def family_to_jsonable(f):
    """The JSON form of an intervals.CLFamily."""
    return {"ell": f.ell, "I": [[list(seg) for seg in u.segments] for u in f.I]}


def cl_certificate_to_jsonable(cert):
    """The JSON form of a recognition.CLCertificate."""
    return {"components": [
        {"family": family_to_jsonable(part.family),
         "bijection": dict(sorted(part.bijection.items()))}
        for part in cert.components]}


def wl_to_jsonable(d):
    """The JSON form of a recognition.WLDecomposition."""
    return {"path": list(d.path),
            "clique": sorted(d.clique),
            "t": d.t,
            "hEdges": sorted([min(u, v), max(u, v)] for u, v in d.h_edges)}


# ---------------------------------------------------------------------------
# reports

def report_to_jsonable(r):
    """The JSON form of a regularity.RegularityReport."""
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
