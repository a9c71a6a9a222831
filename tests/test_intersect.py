"""Fibered products, pairwise exclusion, and conjugacy to the e2 line."""

from collections import Counter

from covector_oracle import product_skeletons, skeleton_isomorphic
from helpers import realized_types_alone, reference_fibered_product, \
    single_edge, single_edge_walk

from burausieve.golden import GOLDEN_ROWS
from burausieve.intersect import (
    addendum_report,
    conjugate_to_e2,
    fibered_product,
    verify_addendum_pairwise,
)
from burausieve.skeleton import (
    UniversalGroupSpec,
    _LineWalk,
    enumerate_universal,
    genus,
    orbit_signatures,
    signature,
)
from burausieve.typesys import root_spec


def enumerate_pair(p, text, tag="I", ambient="bu3"):
    return enumerate_universal(UniversalGroupSpec(root_spec(p, text), tag, ambient))


def factor(p, text, tag="I", ambient="bu3"):
    """(walk, skeleton): a universal subgroup's walk over lines and its lift."""
    spec = UniversalGroupSpec(root_spec(p, text), tag, ambient)
    return _LineWalk(spec), enumerate_universal(spec)


def counted_and_built(f1, f2):
    """The walks' product and the oracle's component skeletons, after
    checking that both give the same components.  The product of the
    lifted skeletons, pair by pair, lists them in the order of their first
    pair, as the oracle does; the walks' product has the same multiset of
    components and the same number of edge pairs."""
    (w1, s1), (w2, s2) = f1, f2
    fp = fibered_product(w1, w2)
    ref = reference_fibered_product(s1, s2)
    comps = product_skeletons(s1, s2)
    assert ref.components == tuple((c.edge_count, genus(c)) for c in comps)
    assert Counter(fp.components) == Counter(ref.components)
    assert fp.total_edges == ref.total_edges
    return fp, comps


SINGLE = (single_edge_walk(), single_edge())
ROW1 = factor(2, "t^3+t+1")
ROW1B = factor(2, "t^3+t^2+1")
ROW3 = factor(3, "t^2+2t+2")


class TestFiberedProduct:
    def test_base_change_identity(self):
        fp, comps = counted_and_built(SINGLE, ROW1)
        assert len(fp.components) == 1
        assert signature(comps[0]) == signature(ROW1[1])

    def test_component_edges_partition(self):
        fp, comps = counted_and_built(ROW1, ROW3)
        assert sum(c.edge_count for c in comps) == fp.total_edges == 90
        assert sum(e for e, _ in fp.components) == 90

    def test_self_product_has_flat_diagonal(self):
        fp, comps = counted_and_built(ROW1, ROW1)
        assert any(c.edge_count == ROW1[1].edge_count and genus(c) == 0
                   for c in comps)
        assert (ROW1[1].edge_count, 0) in fp.components

    def test_distinct_rows_exclude_each_other(self):
        assert counted_and_built(ROW1, ROW3)[0].min_genus() >= 1

    def test_comma_partners_share_a_flat_component(self):
        # t^3+t+1 and t^3+t^2+1 have isomorphic skeletons (reciprocal
        # roots), so the product contains a diagonal-type component of
        # genus zero: they act as one entry of the classification, not two
        assert skeleton_isomorphic(ROW1[1], ROW1B[1])
        fp, comps = counted_and_built(ROW1, ROW1B)
        assert fp.min_genus() == 0
        assert any(c.edge_count == ROW1[1].edge_count and genus(c) == 0
                   for c in comps)

    def test_same_row_distinct_groups_exclude_each_other(self):
        # p=11 N=10: t+2 and t+6 sit in different iso-classes
        f_a = factor(11, "t+2")
        f_b = factor(11, "t+6")
        assert not skeleton_isomorphic(f_a[1], f_b[1])
        assert counted_and_built(f_a, f_b)[0].min_genus() >= 1

    def test_genus_monotone_under_products(self):
        # components cover both factors, so genus never drops
        high = factor(19, "t+4", ambient="b3")  # genus 1
        assert genus(high[1]) == 1
        fp, _ = counted_and_built(high, ROW1)
        assert fp.min_genus() >= 1

    def test_counting_matches_built_components(self):
        # every pair of row representatives, the comma partners (a genus-0
        # diagonal component) and a genus-1 factor against row 1
        reps = [factor(row.p, row.factors[0]) for row in GOLDEN_ROWS]
        pairs = [(a, b) for n, a in enumerate(reps) for b in reps[n + 1:]]
        pairs += [(ROW1, ROW1B), (factor(19, "t+4", ambient="b3"), ROW1)]
        assert len(pairs) == 80
        for f1, f2 in pairs:
            counted_and_built(f1, f2)

    def test_all_groups_products_match_the_reference(self):
        # the certificate of the product on the walks' base: on each of the
        # 465 pairs of iso-class representatives that addendum --all-groups
        # multiplies, the same components as the lifted skeletons' product
        # and the same number of edge pairs, 1,021,705 in all
        reps = [factor(row.p, grp[0]) for row in GOLDEN_ROWS
                for grp in row.factor_groups]
        pairs = [(a, b) for n, a in enumerate(reps) for b in reps[n + 1:]]
        assert len(pairs) == 465
        total = 0
        for (w1, s1), (w2, s2) in pairs:
            fp, ref = fibered_product(w1, w2), reference_fibered_product(s1, s2)
            assert Counter(fp.components) == Counter(ref.components), \
                (w1.spec, w2.spec)
            assert fp.total_edges == ref.total_edges
            total += fp.total_edges
        assert total == 1_021_705


class TestAddendumPairs:
    def test_three_row_sample(self):
        reps = []
        for row in GOLDEN_ROWS[:3]:
            reps.append((row.label, factor(row.p, row.factors[0])[0]))
        report = verify_addendum_pairwise(reps)
        assert report["ok"]
        assert len(report["pairs"]) == 3
        for pair in report["pairs"]:
            assert pair["minGenus"] >= 1


class TestConjugacy:
    def test_type_i_trivial(self):
        spec = UniversalGroupSpec(root_spec(2, "t^3+t+1"), "I", "bu3")
        assert conjugate_to_e2(spec)

    def test_realized_types_on_golden_rows(self):
        for row in GOLDEN_ROWS:
            assert realized_types_alone(root_spec(row.p, row.factors[0]))[1]

    def test_addendum_report_matches_the_per_tag_slow_path(self):
        # the report reads one walk per braid orbit of type lines and takes
        # the orbit of I for e2's; lifting each tag alone and testing it
        # with conjugate_to_e2 gives the same rows.  Its pairs are those of
        # the row representatives lifted here, multiplied pair by pair
        report = addendum_report()
        expected = []
        for row in GOLDEN_ROWS:
            realized, ok = realized_types_alone(root_spec(row.p, row.factors[0]))
            expected.append({"row": row.label, "minPoly": row.factors[0],
                             "types": realized, "ok": ok})
        assert report["conjugacy"] == expected
        reps = [(row.label, enumerate_pair(row.p, row.factors[0]))
                for row in GOLDEN_ROWS]
        pairs = []
        for n, (label_a, sk_a) in enumerate(reps):
            for label_b, sk_b in reps[n + 1:]:
                ref = reference_fibered_product(sk_a, sk_b)
                pairs.append({"rowA": label_a, "rowB": label_b,
                              "components": len(ref.components),
                              "minGenus": ref.min_genus()})
        assert report["pairs"] == pairs
        assert report["ok"] and len(report["pairs"]) == 78

    def test_proper_orbit_negative_control(self):
        # at xi = 1 over F_5 the braid image fixes a 3-point orbit on the
        # projective line; the type II line falls outside it.  Type I is the
        # line of e2, so its walk visits exactly that orbit
        root = root_spec(5, "t-1")
        assert len(_LineWalk(UniversalGroupSpec(root, "I", "bu3")).lines) == 3
        assert not conjugate_to_e2(UniversalGroupSpec(root, "II", "bu3"))
        assert conjugate_to_e2(UniversalGroupSpec(root, "IV", "bu3"))

    def test_orbit_groups_negative_control(self):
        # the same 3-point orbit: IV joins the walk of I, II needs its own
        root = root_spec(5, "t-1")
        groups = orbit_signatures(root, ["I", "II", "IV"])
        assert [orbit for *_, orbit in groups] == [["I", "IV"], ["II"]]
        for sig, g, orbit in groups:
            for tag in orbit:
                assert _LineWalk(UniversalGroupSpec(
                    root, tag, "bu3")).signature() == (sig, g)
