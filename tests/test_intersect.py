"""Fibered products, pairwise exclusion, and conjugacy to the e2 line."""

import random
from collections import Counter

import pytest
from covector_oracle import product_skeletons, skeleton_isomorphic
from helpers import count_calls, realized_types_alone, \
    reference_fibered_product, reference_product_count, single_edge

from burausieve import intersect, skeleton
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
    """(spec, skeleton): a universal subgroup and its lifted skeleton."""
    spec = UniversalGroupSpec(root_spec(p, text), tag, ambient)
    return spec, enumerate_universal(spec)


def built(s1, s2):
    """The product of two lifted skeletons, pair by pair, and the oracle's
    component skeletons, after checking that both list the same
    components in the order of their first pair."""
    ref = reference_fibered_product(s1, s2)
    comps = product_skeletons(s1, s2)
    assert ref.components == tuple((c.edge_count, genus(c)) for c in comps)
    return ref, comps


def counted_and_built(f1, f2):
    """The closed-form product and the oracle's component skeletons, after
    checking that the closed form gives the same multiset of components
    and the same number of edge pairs as the lifted skeletons' product."""
    (spec1, s1), (spec2, s2) = f1, f2
    fp = fibered_product(spec1, spec2)
    ref, comps = built(s1, s2)
    assert Counter(fp.components) == Counter(ref.components)
    assert fp.total_edges == ref.total_edges
    return fp, comps


ROW1 = factor(2, "t^3+t+1")
ROW1B = factor(2, "t^3+t^2+1")
ROW3 = factor(3, "t^2+2t+2")


class TestFiberedProduct:
    def test_base_change_identity(self):
        # the one-edge base is no root, so only the lifted product takes it
        ref, comps = built(single_edge(), ROW1[1])
        assert len(ref.components) == 1
        assert signature(comps[0]) == signature(ROW1[1])

    def test_component_edges_partition(self):
        fp, comps = counted_and_built(ROW1, ROW3)
        assert sum(c.edge_count for c in comps) == fp.total_edges == 90
        assert sum(e for e, _ in fp.components) == 90

    def test_self_product_has_flat_diagonal(self):
        ref, comps = built(ROW1[1], ROW1[1])
        assert any(c.edge_count == ROW1[1].edge_count and genus(c) == 0
                   for c in comps)
        assert (ROW1[1].edge_count, 0) in ref.components

    def test_distinct_rows_exclude_each_other(self):
        assert counted_and_built(ROW1, ROW3)[0].min_genus() >= 1

    def test_comma_partners_share_a_flat_component(self):
        # t^3+t+1 and t^3+t^2+1 have isomorphic skeletons (reciprocal
        # roots), so the product contains a diagonal-type component of
        # genus zero: they act as one entry of the classification, not two
        assert skeleton_isomorphic(ROW1[1], ROW1B[1])
        ref, comps = built(ROW1[1], ROW1B[1])
        assert ref.min_genus() == 0
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
        # diagonal component, which only the lifted product takes) and a
        # genus-1 factor against row 1
        reps = [factor(row.p, row.factors[0]) for row in GOLDEN_ROWS]
        pairs = [(a, b) for n, a in enumerate(reps) for b in reps[n + 1:]]
        pairs += [(factor(19, "t+4", ambient="b3"), ROW1)]
        for f1, f2 in pairs:
            counted_and_built(f1, f2)
        built(ROW1[1], ROW1B[1])
        assert len(pairs) + 1 == 80

    def test_all_groups_products_match_the_reference(self):
        # the certificate of the closed form: on each of the 465 pairs of
        # iso-class representatives that addendum --all-groups multiplies,
        # the same components as the lifted skeletons' product and the same
        # number of edge pairs, 1,021,705 in all
        reps = [factor(row.p, grp[0]) for row in GOLDEN_ROWS
                for grp in row.factor_groups]
        pairs = [(a, b) for n, a in enumerate(reps) for b in reps[n + 1:]]
        assert len(pairs) == 465
        total = 0
        for (spec1, s1), (spec2, s2) in pairs:
            fp = fibered_product(spec1, spec2)
            ref = reference_fibered_product(s1, s2)
            assert Counter(fp.components) == Counter(ref.components), \
                (spec1, spec2)
            assert fp.total_edges == ref.total_edges
            total += fp.total_edges
        assert total == 1_021_705

    @pytest.mark.parametrize("p, m1, m2, ambient, expected", [
        (37, "t+29", "t+23", "bu3", {(114, 1): 3, (4218, 172): 3}),
        (37, "t+30", "t+21", "bu3", {(304, 9): 2, (5624, 307): 4}),
        (61, "t+59", "t+30", "b3", {(558, 40): 1, (11346, 849): 3}),
        (43, "t+41", "t+21", "bu3", {(132, 0): 3, (5676, 66): 3}),
        (43, "t+41", "t+21", "b3", {(132, 0): 3, (5676, 66): 3}),
    ], ids=["37-bu3", "37-two-diagonal", "61-b3", "43-bu3", "43-b3"])
    def test_linked_pairs_beyond_the_addendum(self, p, m1, m2, ambient,
                                              expected):
        # reciprocal roots over a prime field, with r > 2, and with more
        # than one component over the diagonal where r / n_D allows it
        fp, _ = counted_and_built(factor(p, m1, ambient=ambient),
                                  factor(p, m2, ambient=ambient))
        assert Counter(fp.components) == expected

    @pytest.mark.parametrize("f1, f2", [
        ((43, "t+41", "bu3"), (43, "t+41", "bu3")),
        ((2, "t^3+t+1", "bu3"), (2, "t^3+t^2+1", "bu3")),
        ((43, "t+41", "bu3"), (43, "t+21", "b3")),
        ((5, "t-1", "bu3"), (2, "t^3+t+1", "bu3")),
        ((2, "t^3+t+1", "bu3"), (5, "t-1", "bu3")),
        ((5, "t^2+2", "bu3"), (5, "t^2+3", "bu3")),
    ], ids=["same-root", "extension-reciprocals", "two-ambients",
            "non-transitive-left", "non-transitive-right",
            "quadratic-reciprocals"])
    def test_refuses_what_it_cannot_read(self, f1, f2):
        spec1, spec2 = (UniversalGroupSpec(root_spec(p, m), "I", ambient)
                        for p, m, ambient in (f1, f2))
        with pytest.raises(ValueError, match="no closed-form product"):
            fibered_product(spec1, spec2)


class TestProductCount:
    @staticmethod
    def random_cycles(rng, r):
        # (L, o, count) with o the order of a voltage in Z/r, so o | r
        orders = [o for o in range(1, r + 1) if r % o == 0]
        return [(rng.randint(1, 40), rng.choice(orders), rng.randint(1, 9))
                for _ in range(rng.randint(1, 6))]

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_count_matches_the_list_based_count(self, seed):
        # random cycle lists beyond the golden pairs, in fibers of every
        # size up to 72, with cycle lengths sharing and lacking factors
        rng = random.Random(seed)
        for _ in range(250):
            r1, r2 = rng.randint(1, 72), rng.randint(1, 72)
            base1 = self.random_cycles(rng, r1)
            base2 = self.random_cycles(rng, r2)
            assert intersect._product_count(base1, base2, r1, r2) == \
                reference_product_count(base1, base2, r1, r2), \
                (base1, base2, r1, r2)

    @pytest.mark.parametrize("seed", range(2))
    def test_trivial_fibers_match_the_list_based_count(self, seed):
        # orders of 1, which skip their gcd, on every cycle of a side, as
        # the draws above meet about once in 5,184: r1 = r2 = 1, where
        # every order is 1, and r = 1 on one side only
        rng = random.Random(100 + seed)
        for n in range(240):
            r = rng.randint(2, 72)
            r1, r2 = ((1, 1), (1, r), (r, 1))[n % 3]
            base1 = self.random_cycles(rng, r1)
            base2 = self.random_cycles(rng, r2)
            assert intersect._product_count(base1, base2, r1, r2) == \
                reference_product_count(base1, base2, r1, r2), \
                (base1, base2, r1, r2)

    def test_golden_representatives_match_the_list_based_count(self):
        inputs = [intersect._product_input(UniversalGroupSpec(
            root_spec(row.p, grp[0]), "I", "bu3"))[0]
            for row in GOLDEN_ROWS for grp in row.factor_groups]
        for q1, r1, fiber1 in inputs:
            for q2, r2, fiber2 in inputs:
                for base1, base2 in zip(fiber1, fiber2):
                    assert intersect._product_count(base1, base2, r1, r2) \
                        == reference_product_count(base1, base2, r1, r2)


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


    def test_one_unlinked_product_per_distinct_input(self, monkeypatch):
        # the 465 pairs of iso-class representatives have 86 distinct pairs
        # of unlinked inputs; each is multiplied once, each of the 5 linked
        # pairs on its own, and every entry is the pair's own product
        reps = [(grp[0], UniversalGroupSpec(root_spec(row.p, grp[0]), "I",
                                            "bu3"))
                for row in GOLDEN_ROWS for grp in row.factor_groups]
        pairs = [(a, b) for n, (_, a) in enumerate(reps)
                 for _, b in reps[n + 1:]]
        linked = sum(intersect._linked(intersect._product_input(a)[1],
                                       intersect._product_input(b)[1])
                     for a, b in pairs)
        calls = count_calls(monkeypatch, intersect, "fibered_product")
        report = verify_addendum_pairwise(reps)
        assert (len(calls), linked) == (86 + 5, 5)
        for entry, (a, b) in zip(report["pairs"], pairs, strict=True):
            fp = fibered_product(a, b)
            assert (entry["components"], entry["minGenus"]) == \
                (len(fp.components), fp.min_genus()), (a, b)

    @pytest.mark.parametrize("all_groups, reps, linked", [
        (False, 13, 0), (True, 31, 5)], ids=["rows", "all-groups"])
    def test_each_representative_is_read_once(self, monkeypatch, all_groups,
                                              reps, linked):
        # each representative's trace field is tested and its fiber cycles
        # read once, and a row's first factor shares them between the
        # conjugacy check's closed form and the pairwise check; only a
        # linked product reads its first root's generator cycles again
        fibers = count_calls(monkeypatch, skeleton, "_fiber_cycles")
        traces = count_calls(monkeypatch, skeleton, "_trace_generates")
        cycles = count_calls(monkeypatch, skeleton, "_generator_cycles")
        products = count_calls(monkeypatch, intersect, "fibered_product")
        report = addendum_report(all_groups=all_groups)
        assert report["ok"] and len(report["pairs"]) == reps * (reps - 1) // 2
        assert (len(fibers), len(traces), len(cycles)) == \
            (reps, reps, reps + linked)
        assert len({(spec.root.p, spec.root.ring.modulus)
                    for spec, in fibers}) == reps
        assert len({id(root) for root, in traces}) == reps
        assert len(products) == (86 + 5 if all_groups else 78)

    def test_refuses_a_representative_it_cannot_read(self):
        reps = [("a", factor(2, "t^3+t+1")[0]),
                ("b", UniversalGroupSpec(root_spec(5, "t-1"), "I", "bu3"))]
        with pytest.raises(ValueError, match="no closed-form product"):
            verify_addendum_pairwise(reps)


class TestConjugacy:
    def test_type_i_trivial(self):
        spec = UniversalGroupSpec(root_spec(2, "t^3+t+1"), "I", "bu3")
        assert conjugate_to_e2(spec)

    def test_realized_types_on_golden_rows(self):
        for row in GOLDEN_ROWS:
            assert realized_types_alone(root_spec(row.p, row.factors[0]))[1]

    def test_addendum_report_matches_the_per_tag_slow_path(self):
        # the report reads each braid orbit of type lines in closed form and
        # takes the orbit of I for e2's; lifting each tag alone and testing it
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
