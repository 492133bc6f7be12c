"""Exhaustive verification of the characterizations and bound theorems over
all isomorphism classes up to a given size, with the homology oracle as the
ground truth for every regularity value.

Checks per class:
  bounds              ell <= reg <= min(c, n-1) and per-component
                      reg_i <= n_i - omega_i + 1
  cl-characterization recognition succeeds iff ell = c iff reg = ell = c
  cl-roundtrip        recognize_cl's certificate passes its validator
  wl-characterization (connected only) recognition succeeds iff
                      ell = n - omega + 1 iff reg = ell = n - omega + 1
  wl-roundtrip        recognize_wl's decomposition passes its validator
  sig-implies-cl      strongly-interval recognition implies the clique
                      characterization; it holds by construction, since
                      recognize_sig accepts a chordal graph exactly when
                      recognize_cl certifies it, and returns its families
  structural          the structural solver's exact value or interval
                      contains the oracle value
  squarefree          each component's closed-form basis passes its
                      certificate, on the relabelling the oracle sweeps;
                      a component in the oracle memo has passed, so only
                      the others are built

A witness its validator rejects fails both of its recognizer's checks.  A
class counts as a counterexample for a check the moment the check's
biconditional fails; the report carries every counterexample edge list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs as gr
from . import recognition as rec
from . import regularity as rg

CHECK_NAMES = (
    "bounds",
    "cl-characterization",
    "cl-roundtrip",
    "wl-characterization",
    "wl-roundtrip",
    "sig-implies-cl",
    "structural",
    "squarefree",
)


@dataclass
class CheckTally:
    passed: int = 0
    failed: int = 0
    counterexamples: list = field(default_factory=list)


@dataclass
class VerificationReport:
    n_range: list[int]
    graph_counts: dict[int, int]
    checks: dict[str, CheckTally]

    @property
    def all_passed(self):
        return all(t.failed == 0 for t in self.checks.values())

    def to_jsonable(self):
        return {
            "nRange": self.n_range,
            "graphCounts": {str(n): c for n, c in self.graph_counts.items()},
            "checks": {
                name: {"pass": t.passed, "fail": t.failed,
                       "counterexamples": t.counterexamples}
                for name, t in self.checks.items()},
            "allPassed": self.all_passed,
        }


def check_one(g, oracle=None):
    """Evaluate every check on one graph; returns {check name: bool}.

    oracle overrides the regularity ground truth (fault-injection hook for
    testing the harness itself)."""
    oracle = oracle or rg.oracle_reg
    results = {}
    subs = [sub for sub, _ in gr.component_graphs(g)]
    ell = sum(gr.longest_induced_path(s)[0] for s in subs)
    # the maximal cliques of g are those of its components
    comp_cliques = [gr.maximal_cliques(s) for s in subs]
    cliques = sum(map(len, comp_cliques))
    reg_per_comp = [oracle(s) for s in subs]
    reg = sum(reg_per_comp)

    ok = ell <= reg <= min(cliques, max(g.n - 1, 0))
    for s, cs, r in zip(subs, comp_cliques, reg_per_comp):
        if not r <= s.n - max(map(len, cs)) + 1:
            ok = False
    results["bounds"] = ok

    try:
        cl = rec.recognize_cl(g)
    except rec.CertificateError:  # the certificate failed its validator
        cl = None
    cl_ok = isinstance(cl, rec.CLCertificate)
    equal_lc = ell == cliques
    equal_rlc = reg == ell == cliques
    results["cl-characterization"] = cl is not None and (cl_ok == equal_lc == equal_rlc)
    results["cl-roundtrip"] = cl is not None

    if len(subs) == 1:
        omega = max(map(len, comp_cliques[0]))
        try:
            wl = rec.recognize_wl(g)
        except rec.CertificateError:
            wl = None
        wl_ok = isinstance(wl, rec.WLDecomposition)
        equal_lw = ell == g.n - omega + 1
        equal_rlw = reg == ell == g.n - omega + 1
        results["wl-characterization"] = wl is not None and (wl_ok == equal_lw == equal_rlw)
        results["wl-roundtrip"] = wl is not None
    else:
        results["wl-characterization"] = True
        results["wl-roundtrip"] = True

    # recognize_sig(g), reusing cl: a chordal graph with a CL certificate
    sig_ok = cl_ok and gr.is_chordal(g)
    results["sig-implies-cl"] = (not sig_ok) or cl_ok

    report = rg.structural_reg(g)
    results["structural"] = report.lo <= reg <= report.hi

    try:
        rg.initial_ideals_of(g)
        results["squarefree"] = True
    except Exception:
        results["squarefree"] = False
    return results


def _worker(edges_n):
    n, edges = edges_n
    g = gr.Graph.from_edges(n, edges)
    return n, edges, check_one(g)


def run_verification(max_n=6, connected_only=False, jobs=1, oracle=None):
    """Sweep every isomorphism class with 1 <= n <= max_n."""
    sizes = list(range(1, max_n + 1))
    graphs = []
    counts = {}
    for n in sizes:
        level = gr.enumerate_graphs(n, connected_only=connected_only)
        counts[n] = len(level)
        graphs.extend(level)

    tallies = {name: CheckTally() for name in CHECK_NAMES}

    def record(n, edges, results):
        for name in CHECK_NAMES:
            if results[name]:
                tallies[name].passed += 1
            else:
                tallies[name].failed += 1
                tallies[name].counterexamples.append(
                    {"n": n, "edges": [list(e) for e in edges]})

    if jobs > 1 and oracle is None:
        # imported here, so that a serial run loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        payload = [(g.n, g.edges()) for g in graphs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for n, edges, results in pool.map(_worker, payload, chunksize=8):
                record(n, edges, results)
    else:
        for g in graphs:
            record(g.n, g.edges(), check_one(g, oracle=oracle))

    return VerificationReport(n_range=sizes, graph_counts=counts, checks=tallies)
