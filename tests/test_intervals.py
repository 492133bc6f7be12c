import random
from itertools import combinations

import pytest

from beireg import graphs as gr
from beireg import intervals as iv

from helpers import embed_sig


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
            if all(iv.intersects(a, b) for a, b in combinations(unions, 2)):
                if iv.common_point(unions) is None:
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


class TestValidateSIGFamily:
    def test_valid(self):
        fam = iv.SIGFamily(3, (iv.IntervalUnion.of((0, 3)),))
        assert iv.validate_sig_family(fam) is None

    def test_non_integer_left(self):
        fam = iv.SIGFamily(3, (iv.IntervalUnion.of((1, 2)),))
        assert iv.validate_sig_family(fam) is not None

    def test_endpoint_at_ell(self):
        fam = iv.SIGFamily(3, (iv.IntervalUnion.of((2, 6)),))
        assert iv.validate_sig_family(fam) is not None

    def test_multi_segment(self):
        fam = iv.SIGFamily(5, (iv.IntervalUnion.of((0, 1), (8, 9)),))
        assert iv.validate_sig_family(fam) is not None


def random_sig_family(rng):
    ell = rng.randint(2, 9)
    unions = []
    for _ in range(rng.randint(0, 5)):
        a = rng.randint(0, ell - 1)
        b = rng.randint(2 * a + 1, 2 * ell - 1)
        unions.append(iv.IntervalUnion.of((2 * a, b)))
    return iv.SIGFamily(ell, tuple(unions))


class TestHellyAndEmbedding:
    def test_thousand_random_sig_families_embed_validly(self):
        rng = random.Random(23)
        for _ in range(1000):
            fam = random_sig_family(rng)
            assert iv.validate_sig_family(fam) is None
            embedded = embed_sig(fam)
            violation = iv.validate_cl_family(embedded)
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
            direct, _ = iv.intersection_graph(embed_sig(fam))
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
            fam = embed_sig(random_sig_family(rng))
            g, _ = iv.intersection_graph(fam)
            sub, _ = gr.induced_subgraph(g, range(fam.ell + 1))
            assert sub.edges() == gr.path_graph(fam.ell + 1).edges()
