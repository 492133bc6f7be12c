import random
import re

import pytest

from beireg import graphs as gr
from beireg import intervals as iv
from beireg import recognition as rec
from beireg import regularity as rg

from helpers import random_sig_family, reference_cl_check


class TestRecognizeCL:
    def test_valid_showcase(self, cl_example):
        cert = rec.recognize_cl(cl_example)
        assert isinstance(cert, rec.CLCertificate)
        (part,) = cert.components
        assert part.family.ell == 7
        assert [u.segments for u in part.family.I] == [
            ((2, 7),), ((2, 3), (10, 11)), ((6, 7),)]
        assert part.bijection == {
            "J0": 0, "J1": 1, "J2": 2, "J3": 3, "J4": 4, "J5": 5, "J6": 6,
            "J7": 7, "I1": 8, "I2": 9, "I3": 10}
        assert rec.validate_cl_certificate(cl_example, cert) is None

    def test_borderline_showcase_rejected(self, cl_borderline):
        # ell = 7 but 8 maximal cliques: one extra triangle breaks it
        result = rec.recognize_cl(cl_borderline)
        assert result == rec.NotCLReason(component_index=0, ell=7, clique_count=8)

    def test_c4(self):
        assert rec.recognize_cl(gr.cycle_graph(4)) == rec.NotCLReason(0, 2, 4)

    def test_path_gives_no_unions(self):
        cert = rec.recognize_cl(gr.path_graph(6))
        assert cert.components[0].family.r == 0
        assert cert.components[0].family.ell == 5

    def test_disconnected_per_component(self):
        g = gr.disjoint_union(gr.path_graph(3), gr.complete_graph(3))
        cert = rec.recognize_cl(g)
        assert len(cert.components) == 2
        assert rec.validate_cl_certificate(g, cert) is None

    def test_isolated_vertex_fails(self):
        # a single vertex has ell 0 but one maximal clique
        assert rec.recognize_cl(gr.empty_graph(1)) == rec.NotCLReason(0, 0, 1)

    def test_characterization_small(self):
        for n in range(1, 6):
            for g in gr.enumerate_graphs(n):
                result = rec.recognize_cl(g)
                comps = gr.components(g)
                equal = all(
                    gr.ell(s) == len(gr.maximal_cliques(s))
                    for s in (gr.induced_subgraph(g, c)[0] for c in comps))
                assert isinstance(result, rec.CLCertificate) == equal

    def test_roundtrip_small(self):
        for n in range(1, 6):
            for g in gr.enumerate_graphs(n):
                result = rec.recognize_cl(g)
                if isinstance(result, rec.CLCertificate):
                    assert rec.validate_cl_certificate(g, result) is None


class TestValidateCLCertificate:
    def test_edge_mismatch(self, cl_example):
        cert = rec.recognize_cl(cl_example)
        smaller = gr.Graph.from_edges(
            cl_example.n, cl_example.edges()[:-1], cl_example.labels)
        assert rec.validate_cl_certificate(smaller, cert) is not None

    def test_invalid_family_reported(self):
        # family violating the integer-boundary condition, wired to its own
        # intersection graph so only the family check can fail
        fam = iv.CLFamily(6, (
            iv.IntervalUnion.of((0, 3), (10, 11)),
            iv.IntervalUnion.of((4, 5), (10, 11)),
        ))
        g, names = iv.intersection_graph(fam)
        cert = rec.CLCertificate(components=(
            rec.CLComponentCertificate(
                family=fam, bijection={nm: i for i, nm in enumerate(names)}),))
        problem = rec.validate_cl_certificate(g, cert)
        assert problem is not None and "iv" in problem

    def test_wrong_component_count(self, cl_example):
        cert = rec.recognize_cl(cl_example)
        doubled = gr.disjoint_union(cl_example, gr.complete_graph(2))
        assert rec.validate_cl_certificate(doubled, cert) is not None

    @staticmethod
    def _mutant(cert, index, family=None, bijection=None):
        """cert with component index given another family or bijection."""
        parts = list(cert.components)
        part = parts[index]
        parts[index] = rec.CLComponentCertificate(
            family=family or part.family, bijection=bijection or part.bijection)
        return rec.CLCertificate(components=tuple(parts))

    @pytest.mark.parametrize("a, b", [("J0", "J1"), ("I1", "I3")])
    def test_swapped_bijection_entry(self, cl_example, a, b):
        cert = rec.recognize_cl(cl_example)
        bijection = dict(cert.components[0].bijection)
        bijection[a], bijection[b] = bijection[b], bijection[a]
        mutant = self._mutant(cert, 0, bijection=bijection)
        assert (rec.validate_cl_certificate(cl_example, mutant)
                == "component 0: edge sets differ")

    # I1 = [1, 3.5] moved to [1, 2.5], [2, 3.5], [1.5, 3.5] and [1, 4.5]
    @pytest.mark.parametrize("segment, message", [
        ((2, 5), "edge sets differ"),
        ((4, 7), "edge sets differ"),
        ((3, 7), "family invalid: condition ii violated by ('I1', 0): "
                 "left endpoint 1.5 not an integer"),
        ((2, 9), "family invalid: condition iv violated by ('I1', 'I2', 4): "
                 "5 in I2 but not in I1")])
    def test_moved_interval_endpoint(self, cl_example, segment, message):
        cert = rec.recognize_cl(cl_example)
        fam = cert.components[0].family
        moved = iv.CLFamily(fam.ell, (iv.IntervalUnion.of(segment), *fam.I[1:]))
        mutant = self._mutant(cert, 0, family=moved)
        assert (rec.validate_cl_certificate(cl_example, mutant)
                == f"component 0: {message}")

    def test_image_outside_the_component(self, cl_example):
        g = gr.disjoint_union(cl_example, gr.complete_graph(2))
        cert = rec.recognize_cl(g)
        bijection = dict(cert.components[1].bijection)
        assert bijection == {"J0": 11, "J1": 12}
        bijection["J1"] = 0
        mutant = self._mutant(cert, 1, bijection=bijection)
        assert (rec.validate_cl_certificate(g, mutant)
                == "component 1: bijection is not onto the component")

    def test_mask_checks_match_the_pair_set_reference(self):
        # every CL class with n <= 7, each with its bijection entries
        # swapped in neighbouring key pairs and each edge dropped in turn
        verdicts = {}
        for n in range(8):
            for g in gr.enumerate_graphs(n):
                cert = rec.recognize_cl(g)
                if not isinstance(cert, rec.CLCertificate):
                    continue
                mutants = [(g, cert)]
                for index, part in enumerate(cert.components):
                    names = sorted(part.bijection)
                    for a, b in zip(names, names[1:]):
                        bijection = dict(part.bijection)
                        bijection[a], bijection[b] = bijection[b], bijection[a]
                        mutants.append((g, self._mutant(cert, index,
                                                        bijection=bijection)))
                edges = g.edges()
                for e in edges:
                    h = gr.Graph.from_edges(g.n, [f for f in edges if f != e])
                    mutants.append((h, cert))
                for h, c in mutants:
                    verdict = rec.validate_cl_certificate(h, c)
                    assert verdict == reference_cl_check(h, c), (h, c)
                    key = verdict and re.sub(r"\d+", "#", verdict)
                    verdicts[key] = verdicts.get(key, 0) + 1
        assert verdicts == {
            None: 327, "component #: edge sets differ": 2195,
            "certificate has # components, graph has #": 186}


class TestRecognizeSIG:
    def test_caterpillar(self):
        g = gr.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])
        result = rec.recognize_sig(g)
        assert result.is_sig
        assert result.families is not None
        for f in result.families:
            assert all(len(u.segments) == 1 for u in f.I)
            assert iv.validate_cl_family(f) is None

    def test_cl_but_not_chordal(self, cl_example):
        assert not rec.recognize_sig(cl_example).is_sig

    def test_c5(self):
        assert not rec.recognize_sig(gr.cycle_graph(5)).is_sig

    def test_implies_cl_small(self):
        for n in range(1, 6):
            for g in gr.enumerate_graphs(n):
                if rec.recognize_sig(g).is_sig:
                    assert isinstance(rec.recognize_cl(g), rec.CLCertificate)

    def test_chordal_cl_classes_have_single_segments(self):
        # recognize_sig's docstring proves it; at n <= 7 the clique bound is
        # met by 158 chordal classes, all single-segment, and by 10
        # non-chordal ones, each with a union of several segments
        counts = {True: [0, 0], False: [0, 0]}
        for n in range(1, 8):
            for g in gr.enumerate_graphs(n):
                cl = rec.recognize_cl(g)
                if isinstance(cl, rec.CLCertificate):
                    single = all(len(u.segments) == 1 for part in cl.components
                                 for u in part.family.I)
                    counts[gr.is_chordal(g)][single] += 1
        assert counts == {True: [0, 158], False: [10, 0]}

    def test_sig_families_realize_the_clique_bound(self):
        # the definition side of "strongly interval implies CL": the
        # intersection graph of a single-interval family is recognized, with
        # ell = c = the family's ell, and reg = ell where the oracle reaches
        rng = random.Random(41)
        checked = 0
        for _ in range(400):
            fam = random_sig_family(rng)
            g, _ = iv.intersection_graph(fam)
            cert = rec.recognize_cl(g)
            assert isinstance(cert, rec.CLCertificate), fam
            assert [part.family.ell for part in cert.components] == [fam.ell]
            assert gr.ell(g) == len(gr.maximal_cliques(g)) == fam.ell
            assert rec.recognize_sig(g).is_sig, fam
            if g.n <= 8:
                assert rg.oracle_reg(g) == fam.ell, fam
                checked += 1
        assert checked == 179


class TestRecognizeWL:
    def test_wl_showcase(self, wl_example):
        d = rec.recognize_wl(wl_example)
        assert isinstance(d, rec.WLDecomposition)
        assert d.path == tuple(range(9))
        assert d.clique == frozenset({4, 5, 9, 10, 11, 12})
        assert d.t == 4
        assert d.h_edges == frozenset(
            {(1, 10), (2, 10), (2, 12), (7, 11), (8, 9)})
        assert rec.validate_wl_decomposition(wl_example, d) is None

    def test_complete_graph(self):
        d = rec.recognize_wl(gr.complete_graph(5))
        assert d.path == (0, 1)
        assert d.clique == frozenset(range(5))
        assert d.h_edges == frozenset()

    def test_c4(self):
        assert rec.recognize_wl(gr.cycle_graph(4)) == rec.NotWLReason(2, 4, 2)

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            rec.recognize_wl(gr.disjoint_union(gr.path_graph(2), gr.path_graph(2)))

    def test_validator_rejection_raises(self, monkeypatch, wl_example):
        monkeypatch.setattr(rec, "validate_wl_decomposition",
                            lambda g, d: "boom")
        with pytest.raises(rec.CertificateError, match="boom"):
            rec.recognize_wl(wl_example)

    def test_validator_judges_a_broken_clique(self, monkeypatch):
        # P4 passes the gate (ell = 3 = n - omega + 1); offered the non-edge
        # {0, 3} as its maximum clique, the recognizer builds a decomposition
        # and the validator, not a recognizer check, rejects it: the clique
        # meets the path at its two ends, not at two consecutive vertices
        monkeypatch.setattr(gr, "maximal_cliques", lambda g: [(0, 3)])
        with pytest.raises(rec.CertificateError,
                           match="failed validation: clique does not meet the "
                                 "path in exactly the two indexed vertices"):
            rec.recognize_wl(gr.path_graph(4))

    def test_characterization_small(self):
        for n in range(1, 6):
            for g in gr.enumerate_graphs(n, connected_only=True):
                result = rec.recognize_wl(g)
                equal = gr.ell(g) == g.n - gr.clique_number(g) + 1
                assert isinstance(result, rec.WLDecomposition) == equal
                if isinstance(result, rec.WLDecomposition):
                    assert rec.validate_wl_decomposition(g, result) is None


class TestValidateWLDecomposition:
    def test_u_u_edge_rejected(self, wl_example):
        d = rec.recognize_wl(wl_example)
        bad = rec.WLDecomposition(
            path=d.path, clique=d.clique, t=d.t,
            h_edges=d.h_edges | {(9, 10)})  # joins two clique-only vertices
        assert rec.validate_wl_decomposition(wl_example, bad) is not None

    def test_cover_violation(self, wl_example):
        d = rec.recognize_wl(wl_example)
        bad = rec.WLDecomposition(
            path=d.path[:-1], clique=d.clique, t=d.t, h_edges=d.h_edges)
        assert rec.validate_wl_decomposition(wl_example, bad) is not None

    def test_missing_h_edge(self, wl_example):
        d = rec.recognize_wl(wl_example)
        bad = rec.WLDecomposition(
            path=d.path, clique=d.clique, t=d.t,
            h_edges=frozenset(list(d.h_edges)[:-1]))
        assert rec.validate_wl_decomposition(wl_example, bad) is not None

    MEETING = "clique does not meet the path in exactly the two indexed vertices"

    @pytest.mark.parametrize("g, path, clique, t, problem", [
        # the star K_{1,3}: a maximum clique meets a longest path in one vertex
        (gr.Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)]), (2, 3, 1), {0, 3}, 0,
         MEETING),
        # K_{2,3}: a maximum clique misses a longest path
        (gr.Graph.from_edges(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]),
         (2, 4, 1), {0, 3}, 0, MEETING),
        # a triangle as the path: three shared vertices, so a chord
        (gr.complete_graph(3), (0, 1, 2), {0, 1, 2}, 0, "path has chord 0-2"),
        # the recognizer's t when the path misses the clique
        (gr.path_graph(4), (0, 1, 2, 3), {0, 1}, -1, "index t out of range"),
        # t past the last path edge
        (gr.path_graph(4), (0, 1, 2, 3), {0, 1}, 3, "index t out of range"),
        # t naming the pair (1, 2), where the clique {0, 1} is met at (0, 1)
        (gr.path_graph(4), (0, 1, 2, 3), {0, 1}, 1, MEETING),
    ])
    def test_wrong_meeting_rejected(self, g, path, clique, t, problem):
        d = rec.WLDecomposition(path=path, clique=frozenset(clique), t=t,
                                h_edges=frozenset())
        assert rec.validate_wl_decomposition(g, d) == problem
