import dataclasses
import random
from collections import Counter
from itertools import combinations

import pytest

from beireg import graphs as gr
from beireg import intervals as iv

from helpers import (random_sig_family, reference_common_point,
                     reference_condition_iii, reference_condition_iv,
                     reference_contains_integer, reference_intersects)


# the three unions of the showcase family, in half-units
I1 = iv.IntervalUnion.of((2, 9))            # [1, 4.5]
I2 = iv.IntervalUnion.of((2, 3), (10, 11))  # [1, 1.5] u [5, 5.5]
I3 = iv.IntervalUnion.of((6, 7))            # [3, 3.5]


class TestIntervalUnion:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            iv.IntervalUnion.of((4, 5), (0, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            iv.IntervalUnion.of((-1, 2))

    def test_point_segment_allowed(self):
        assert iv.IntervalUnion.of((0, 0)).segments == ((0, 0),)

    @pytest.mark.parametrize("make, value", [
        (lambda: iv.IntervalUnion.of((1.5, 3)), "1.5"),
        (lambda: iv.IntervalUnion.of(("2", "5")), "'2'"),
        (lambda: iv.IntervalUnion(((0.5, 1.0),)), "0.5"),
        (lambda: iv.CLFamily(2.5, ()), "2.5"),
    ], ids=["float-of", "str-of", "float-init", "float-ell"])
    def test_rejects_non_integers(self, make, value):
        with pytest.raises(ValueError, match=f"{value} is not an integer"):
            make()

    def test_reads_numpy_integers(self):
        np = pytest.importorskip("numpy")
        u = iv.IntervalUnion.of((np.int64(2), np.int64(5)))
        assert u == iv.IntervalUnion.of((2, 5))
        assert {type(x) for seg in u.segments for x in seg} == {int}
        assert iv.contains_integer(u, 2)
        fam = iv.CLFamily(np.int64(3), (u,))
        assert type(fam.ell) is int and iv.validate_cl_family(fam) is None

    def test_point_mask_is_not_a_field(self):
        # perfbench and the golden results serialize a union by its fields
        assert [f.name for f in dataclasses.fields(iv.IntervalUnion)] == ["segments"]
        assert repr(I3) == "IntervalUnion(segments=((6, 7),))"
        twin = iv.IntervalUnion(((6, 7),))
        assert twin == I3 and hash(twin) == hash(I3)


def random_union(rng):
    """One to four segments with endpoints below 13, often point segments
    and short gaps, so that unions touch at an endpoint."""
    segs, lo = [], 0
    for _ in range(rng.randint(1, 4)):
        if lo > 12:
            break
        a = rng.randint(lo, 12)
        b = min(12, a + rng.choice((0, 0, 1, 2, rng.randint(0, 12))))
        segs.append((a, b))
        lo = b + rng.choice((1, 1, 2, 5))
    return iv.IntervalUnion.of(*segs)


def test_mask_queries_match_the_segment_loops():
    """intersects, contains_integer (j from -2 to past the last segment)
    and common_point agree with the segment loops on random unions, among
    them point segments, touching endpoints and several segments."""
    rng = random.Random(41)
    seen = Counter()
    for _ in range(3000):
        unions = [random_union(rng) for _ in range(rng.randint(1, 4))]
        a, b = unions[0], unions[-1]
        assert iv.intersects(a, b) == reference_intersects(a, b), (a, b)
        assert iv.common_point(unions) == reference_common_point(unions), unions
        for j in range(-2, 9):
            assert iv.contains_integer(a, j) == reference_contains_integer(a, j), (a, j)
        seen["point"] += any(x == y for x, y in a.segments)
        seen["several"] += len(a.segments) > 1
        seen["touching"] += any(y == c or d == x for x, y in a.segments
                                for c, d in b.segments) and a != b
        seen["apart"] += not reference_intersects(a, b)
    assert min(seen.values()) >= 100, seen


class TestIntersects:
    def test_showcase_pairs(self):
        assert iv.intersects(I1, I3)
        assert not iv.intersects(I2, I3)
        assert iv.intersects(I1, I2)

    def test_shared_endpoint(self):
        assert iv.intersects(iv.IntervalUnion.of((0, 0)), iv.IntervalUnion.of((0, 2)))


class TestContainsInteger:
    def test_inside(self):
        assert iv.contains_integer(I1, 4)

    def test_in_gap(self):
        assert not iv.contains_integer(I2, 3)

    def test_point(self):
        assert iv.contains_integer(iv.IntervalUnion.of((0, 0)), 0)


class TestCommonPoint:
    def test_showcase_pair(self):
        assert iv.common_point([I1, I2]) == 2  # the real value 1

    def test_touching(self):
        a = iv.IntervalUnion.of((0, 2))
        b = iv.IntervalUnion.of((2, 4))
        assert iv.common_point([a, b]) == 2

    def test_disjoint(self):
        a = iv.IntervalUnion.of((0, 2))
        b = iv.IntervalUnion.of((4, 6))
        assert iv.common_point([a, b]) is None

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            iv.common_point([])


def brute_condition_iii(family):
    """All-subsets Helly check (exponential reference)."""
    for k in range(2, family.r + 1):
        for subset in combinations(range(family.r), k):
            unions = [family.I[i] for i in subset]
            if all(reference_intersects(a, b) for a, b in combinations(unions, 2)):
                if reference_common_point(unions) is None:
                    return subset
    return None


class TestValidateCLFamily:
    def test_showcase_family_fails_condition_iv(self):
        # the two long unions share a point, 4 lies only in the first, and
        # 5 lies only in the second: the integer-boundary condition fails
        fam = iv.CLFamily(7, (I1, I2, I3))
        violation = iv.validate_cl_family(fam)
        assert violation is not None
        assert violation.condition == "iv"
        assert violation.witness == ("I1", "I2", 4)

    def test_trimmed_family_is_valid(self):
        fam = iv.CLFamily(7, (iv.IntervalUnion.of((2, 7)), I2, I3))
        assert iv.validate_cl_family(fam) is None

    def test_gap_violation(self):
        fam = iv.CLFamily(3, (iv.IntervalUnion.of((0, 1), (4, 5)),))
        violation = iv.validate_cl_family(fam)
        assert violation.condition == "ii"

    def test_point_segment_rejected(self):
        fam = iv.CLFamily(3, (iv.IntervalUnion.of((2, 2)),))
        assert iv.validate_cl_family(fam).condition == "ii"

    def test_non_integer_left_endpoint(self):
        fam = iv.CLFamily(3, (iv.IntervalUnion.of((1, 2)),))
        assert iv.validate_cl_family(fam).condition == "ii"

    def test_right_endpoint_below_ell(self):
        fam = iv.CLFamily(3, (iv.IntervalUnion.of((2, 6)),))
        assert iv.validate_cl_family(fam).condition == "ii"

    def test_triple_with_empty_intersection(self):
        # pairwise intersecting singles with empty triple intersection are
        # impossible (Helly), so the witness needs multi-segment unions
        fam = iv.CLFamily(5, (
            iv.IntervalUnion.of((0, 7)),            # [0, 3.5]
            iv.IntervalUnion.of((6, 9)),            # [3, 4.5]
            iv.IntervalUnion.of((0, 1), (8, 9)),    # [0, 0.5] u [4, 4.5]
        ))
        violation = iv.validate_cl_family(fam)
        assert violation.condition == "iii"
        assert set(violation.witness) == {"I1", "I2", "I3"}

    def test_condition_iv_fixture(self):
        fam = iv.CLFamily(6, (
            iv.IntervalUnion.of((0, 3), (10, 11)),  # [0, 1.5] u [5, 5.5]
            iv.IntervalUnion.of((4, 5), (10, 11)),  # [2, 2.5] u [5, 5.5]
        ))
        violation = iv.validate_cl_family(fam)
        assert violation.condition == "iv"

    def test_explicit_j_mismatch(self):
        fam = iv.CLFamily(2, (), J=(iv.IntervalUnion.of((0, 0)),
                                    iv.IntervalUnion.of((0, 2)),
                                    iv.IntervalUnion.of((2, 6))))
        assert iv.validate_cl_family(fam).condition == "i"

    @pytest.mark.parametrize("js, message", [
        ((iv.IntervalUnion.of((0, 0)), iv.IntervalUnion.of((0, 2))),
         "condition i violated by ('J',): expected 3 path unions, got 2"),
        ((iv.IntervalUnion.of((0, 0)), iv.IntervalUnion.of((0, 3)),
          iv.IntervalUnion.of((2, 4))),
         "condition i violated by ('J1',): J1 must be [0, 1]"),
        ((iv.IntervalUnion.of((0, 1)), iv.IntervalUnion.of((0, 2)),
          iv.IntervalUnion.of((2, 4))),
         "condition i violated by ('J0',): J0 must be [0, 0]"),
    ], ids=["count", "J1", "J0"])
    def test_explicit_bad_j_message(self, js, message):
        assert str(iv.validate_cl_family(iv.CLFamily(2, (), J=js))) == message

    def test_derived_j_never_violates_condition_i(self):
        # the validator skips condition i for derived path unions; spelling
        # them out explicitly gives the same verdict
        rng = random.Random(337)
        for _ in range(500):
            fam = random_family(rng)
            violation = iv.validate_cl_family(fam)
            assert violation is None or violation.condition != "i"
            explicit = iv.CLFamily(fam.ell, fam.I, J=fam.j_unions())
            assert iv.validate_cl_family(explicit) == violation

    def test_clique_check_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(200):
            ell = rng.randint(2, 8)
            unions = []
            for _ in range(rng.randint(0, 5)):
                segs = []
                lo = 0
                for _ in range(rng.randint(1, 2)):
                    if lo > ell - 1:
                        break
                    a = rng.randint(lo, ell - 1)
                    b2 = rng.randint(2 * a + 1, 2 * ell - 1)
                    segs.append((2 * a, b2))
                    lo = (b2 + 5) // 2 + 1  # keep the gap above 2 real units
                if not segs or any(s[0] >= s[1] for s in segs):
                    continue
                try:
                    unions.append(iv.IntervalUnion.of(*segs))
                except ValueError:
                    continue
            fam = iv.CLFamily(ell, tuple(unions))
            violation = iv.validate_cl_family(fam)
            brute = brute_condition_iii(fam)
            if violation is not None and violation.condition in ("i", "ii"):
                continue
            if brute is None:
                assert violation is None or violation.condition == "iv"
            else:
                assert violation is not None and violation.condition in ("iii", "iv")
                if violation.condition == "iii":
                    # the reported clique must genuinely have no common point
                    idx = [int(name[1:]) - 1 for name in violation.witness]
                    assert iv.common_point([fam.I[i] for i in idx]) is None


def random_family(rng):
    """A family with 2 <= ell <= 9 and up to six unions of one to three
    segments that meet condition ii, each endpoint then moved by one
    half-unit with probability 1/10, which may break it."""
    ell = rng.randint(2, 9)
    unions = []
    for _ in range(rng.randint(0, 6)):
        segs, lo = [], 0
        for _ in range(rng.randint(1, 3)):
            if lo > 2 * ell - 2:
                break
            a = 2 * rng.randint(lo // 2, ell - 1)
            b = rng.randint(a + 1, 2 * ell - 1)
            if rng.random() < 0.1:
                a += rng.choice((-1, 1)) if a > lo else 1
            if rng.random() < 0.1:
                b += 1
            segs.append((a, max(a, b)))
            lo = b + 6 - b % 2
        unions.append(iv.IntervalUnion.of(*segs))
    return iv.CLFamily(ell, tuple(unions))


def test_condition_iv_matches_the_integer_loop():
    """Where validate_cl_family reaches condition iv, its first violation
    (pair order, j and message) is the reference loop's, on random
    families, some with endpoints moved; both outcomes occur."""
    rng = random.Random(331)
    outcomes = Counter()
    for _ in range(3000):
        fam = random_family(rng)
        violation = iv.validate_cl_family(fam)
        if violation is None or violation.condition == "iv":
            assert violation == reference_condition_iv(fam), fam
            # None, or whether the integer named lies above j
            outcomes[violation and violation.detail.startswith(
                str(violation.witness[2] + 1))] += 1
    assert min(outcomes[None], outcomes[True], outcomes[False]) >= 20, outcomes


def test_condition_iii_matches_the_clique_reference():
    """Where validate_cl_family reaches condition iii, its first violation
    (the clique named) is the one the brute-force cliques and the segment
    loops find, on random families; both outcomes occur."""
    rng = random.Random(347)
    outcomes = Counter()
    for _ in range(3000):
        fam = random_family(rng)
        violation = iv.validate_cl_family(fam)
        if violation is None or violation.condition in ("iii", "iv"):
            expected = reference_condition_iii(fam)
            if expected is None:
                assert violation is None or violation.condition == "iv", fam
            else:
                assert violation == expected, fam
            outcomes[expected is None] += 1
    assert min(outcomes[True], outcomes[False]) >= 20, outcomes


class TestHellyAndEmbedding:
    def test_thousand_random_sig_families_embed_validly(self):
        rng = random.Random(23)
        for _ in range(1000):
            fam = random_sig_family(rng)
            violation = iv.validate_cl_family(fam)
            assert violation is None, (fam, violation)

    def test_pairwise_intersecting_singles_share_a_point(self):
        rng = random.Random(29)
        for _ in range(300):
            fam = random_sig_family(rng)
            if fam.r < 2:
                continue
            for k in range(2, fam.r + 1):
                for subset in combinations(range(fam.r), k):
                    unions = [fam.I[i] for i in subset]
                    if all(iv.intersects(a, b) for a, b in combinations(unions, 2)):
                        assert iv.common_point(unions) is not None


class TestIntersectionGraph:
    def test_showcase_graph(self, cl_borderline):
        fam = iv.CLFamily(7, (I1, I2, I3))
        g, names = iv.intersection_graph(fam)
        assert names == ("J0", "J1", "J2", "J3", "J4", "J5", "J6", "J7",
                         "I1", "I2", "I3")
        assert g.edges() == cl_borderline.edges()

    def test_no_unions_gives_path(self):
        g, _ = iv.intersection_graph(iv.CLFamily(4, ()))
        assert g.edges() == gr.path_graph(5).edges()

    def test_sig_embedding_same_graph(self):
        rng = random.Random(31)
        for _ in range(50):
            fam = random_sig_family(rng)
            direct, _ = iv.intersection_graph(fam)
            members = [iv.IntervalUnion.of((0, 0))] + [
                iv.IntervalUnion.of((2 * j - 2, 2 * j)) for j in range(1, fam.ell + 1)
            ] + list(fam.I)
            edges = [(p, q) for p in range(len(members))
                     for q in range(p + 1, len(members))
                     if iv.intersects(members[p], members[q])]
            assert direct.edges() == sorted(edges)

    def test_path_restriction(self):
        rng = random.Random(37)
        for _ in range(30):
            fam = random_sig_family(rng)
            g, _ = iv.intersection_graph(fam)
            sub, _ = gr.induced_subgraph(g, range(fam.ell + 1))
            assert sub.edges() == gr.path_graph(fam.ell + 1).edges()
