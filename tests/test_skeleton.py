"""Skeleton structure, enumeration, signatures, genus, golden comparison."""

import random
import re
from array import array
from collections import Counter
from itertools import chain, product

import pytest
import sympy
from covector_oracle import (
    covector_bfs,
    skeleton_isomorphic,
    verify_distinct_lemma,
    verify_region_widths,
)
from helpers import checked_skeleton, closed_form_certified, count_calls, \
    cycle_tuples, reference_cycles, reference_skeleton_fault, \
    reference_trace_generates, single_edge

from burausieve import skeleton
from burausieve.exactalg import IntPoly, cyclotomic_factors, order_mod
from burausieve.golden import GOLDEN_ROWS, self_check
from burausieve.intersect import conjugate_to_e2
from burausieve.skeleton import (
    EnumerationCapExceeded,
    Skeleton,
    SkeletonSignature,
    UniversalGroupSpec,
    _closed_form,
    _fiber_cycles,
    _fiber_order,
    _LineWalk,
    _trace_generates,
    enumerate_universal,
    euler_lhs,
    genus,
    orbit_signatures,
    signature,
    table_verify,
)
from burausieve.typesys import admissible_types, root_spec, type_tags


def assert_cycles_match_the_walk(sk):
    """Each of sk's Cycles holds the lengths and, one after another, the
    ints of the cycles that the walk over a general permutation gives,
    as the permutation's own int objects."""
    for which in ("black", "white", "region"):
        perm = getattr(sk, which)
        cycles = getattr(sk, f"{which}_cycles")()
        walked = reference_cycles(perm)
        assert cycles.lengths == [len(c) for c in walked], which
        assert cycles.flat == tuple(chain.from_iterable(walked)), which
        assert cycle_tuples(cycles) == walked, which
        own = {id(e) for e in perm}
        assert all(id(e) in own for e in cycles.flat), which


def golden_row(p, N):
    for row in GOLDEN_ROWS:
        if row.p == p and row.N == N:
            return row
    raise LookupError


def enumerate_row(p, N, tag="I", ambient="bu3", factor=0):
    row = golden_row(p, N)
    root = root_spec(row.p, row.factors[factor])
    return enumerate_universal(UniversalGroupSpec(root, tag, ambient))


class TestSkeletonStructure:
    @pytest.mark.parametrize("black, white, message", [
        ((), (), "nonempty edge set"),
        ((0,), (1, 0), "nonempty edge set"),
        ((0, 0), (1, 0), "not a permutation"),
        ((0, 2), (1, 0), "not a permutation"),
        # black[-1] would index from the end: a set of the right size
        # still refuses it
        ((0, -1), (1, 0), "not a permutation"),
        ((1, 0), (1, -1), "not a permutation"),
    ], ids=["empty", "unequal-lengths", "repeated-value", "value-too-large",
            "negative-black", "negative-white"])
    def test_rejects_a_bad_edge_set(self, black, white, message):
        with pytest.raises(ValueError, match=message):
            checked_skeleton(black, white)

    @pytest.mark.parametrize("black, white", [
        ((False, True), (1, 0)),
        ((0, 1), (True, 0)),
        ((0, 1.0), (1, 0)),
        ((0, 1), (1.0, 0.0)),
    ], ids=["bool-black", "bool-white", "float-black", "float-white"])
    def test_rejects_entries_that_are_not_ints(self, black, white):
        # True == 1 and 1.0 == 1, but neither prints as the edge 1
        assert reference_skeleton_fault(black, white) == \
            "permutations must hold ints"
        with pytest.raises(ValueError, match="must hold ints"):
            checked_skeleton(black, white)

    def test_rejects_black_of_order_two(self):
        with pytest.raises(ValueError, match="order > 3"):
            checked_skeleton((1, 0), (1, 0))

    def test_rejects_white_of_order_three(self):
        with pytest.raises(ValueError, match="order > 2"):
            checked_skeleton((1, 2, 0), (1, 2, 0))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            checked_skeleton((0, 1), (0, 1))

    def test_checks_match_the_set_based_reference(self):
        # checked_skeleton builds no set; on thousands of small inputs it
        # accepts exactly what the set-based checks accept and raises
        # their message otherwise.
        rng = random.Random(20261019)

        def cycle_perm(n, k):
            # a permutation of range(n) with cycles of length 1 and k
            items = rng.sample(range(n), n)
            perm = list(range(n))
            i = 0
            while i < n:
                size = k if i + k <= n and rng.random() < 0.8 else 1
                cyc = items[i:i + size]
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    perm[a] = b
                i += size
            return perm

        def mutate(perm, n):
            kind = rng.choice(["none", "none", "repeat", "large", "negative",
                               "shuffle", "length"])
            i = rng.randrange(n)
            if kind == "repeat":
                perm[i] = perm[rng.randrange(n)]
            elif kind == "large":
                perm[i] = rng.randint(n, n + 2)
            elif kind == "negative":
                perm[i] = rng.randint(-n, -1)
            elif kind == "shuffle":
                perm[:] = rng.sample(range(n), n)
            elif kind == "length" and rng.random() < 0.5:
                perm.append(rng.randrange(n + 1))
            elif kind == "length":
                perm.pop()

        seen = Counter()
        for _ in range(4000):
            n = rng.randint(1, 7)
            black, white = cycle_perm(n, 3), cycle_perm(n, 2)
            picked = rng.choice(["black", "white", "both"])
            if picked in ("black", "both"):
                mutate(black, n)
            if picked in ("white", "both"):
                mutate(white, n)
            expected = reference_skeleton_fault(black, white)
            seen[expected] += 1
            if expected is None:
                sk = checked_skeleton(black, white)
                assert sk.region == tuple(white[black[black[i]]]
                                          for i in range(n))
            else:
                with pytest.raises(ValueError) as info:
                    checked_skeleton(black, white)
                assert str(info.value) == expected
        assert min(seen.values()) >= 50 and len(seen) == 6, seen

    def test_region_composition_convention(self):
        sk = enumerate_row(2, 7)
        black_inv = [0] * sk.edge_count
        for i, j in enumerate(sk.black):
            black_inv[j] = i
        assert sk.region == tuple(sk.white[black_inv[i]] for i in range(sk.edge_count))

    def test_single_edge(self):
        sk = single_edge()
        assert str(signature(sk)) == "(1;1,1;1^1)"
        assert genus(sk) == 0

    @pytest.mark.parametrize("ambient", ["bu3", "b3"])
    def test_cycles_match_the_general_walk(self, ambient):
        # black's and white's cycles are read off their orders 3 and 2,
        # region's walked; all three equal the walk over any permutation,
        # also as a cache entry, whose white cycles start at the edges its
        # certificate listed
        for row in GOLDEN_ROWS:
            for factor in range(len(row.factors)):
                sk = enumerate_row(row.p, row.N, ambient=ambient,
                                   factor=factor)
                assert_cycles_match_the_walk(sk)
                assert_cycles_match_the_walk(Skeleton._from_entry(
                    array("Q", sk.black), array("Q", sk.white)))

    def test_flat_cycles_of_random_skeletons(self):
        # up to all edges fixed under black or white, down to one edge;
        # ints above 256 are distinct objects, so the larger skeletons
        # show that flat holds the permutations' own ints
        rng = random.Random(28)
        checked = 0
        while checked < 300:
            n = rng.randint(1, 40) if checked % 5 else rng.randint(300, 900)
            most_fixed = min(n, 40)
            black, white = list(range(n)), list(range(n))
            edges = rng.sample(range(n), n)
            for k in range((n - rng.randint(0, most_fixed)) // 3):
                a, b, c = edges[3 * k:3 * k + 3]
                black[a], black[b], black[c] = b, c, a
            edges = rng.sample(range(n), n)
            for k in range((n - rng.randint(0, most_fixed)) // 2):
                a, b = edges[2 * k:2 * k + 2]
                white[a], white[b] = b, a
            try:
                sk = checked_skeleton(black, white)
            except ValueError as exc:
                assert str(exc) == "skeleton is not connected"
                continue
            assert_cycles_match_the_walk(sk)
            checked += 1


class TestSignatureAndGenus:
    def test_row_p19_n9(self):
        assert str(signature(enumerate_row(19, 9))) == "(20;0,2;1^2 9^2)"

    def test_row_p43_n7(self):
        assert str(signature(enumerate_row(43, 7))) == "(132;0,0;1^6 7^18)"

    def test_row_p13_n12(self):
        assert str(signature(enumerate_row(13, 12))) == "(14;0,2;1^2 12^1)"

    def test_widths_partition_edges(self):
        for p, N in ((2, 7), (5, 8), (19, 18)):
            sk = enumerate_row(p, N)
            assert sum(sk.region_widths()) == sk.edge_count

    def test_genus_zero_on_golden(self):
        for p, N in ((2, 7), (3, 8), (11, 10)):
            assert genus(enumerate_row(p, N)) == 0

    def test_b3_ambient_genus_positive_for_unstarred(self):
        assert genus(enumerate_row(19, 9, ambient="b3")) == 1
        assert genus(enumerate_row(5, 12, ambient="b3")) == 2

    def test_b3_edge_count_is_a_multiple(self):
        bu3 = enumerate_row(13, 12)
        b3 = enumerate_row(13, 12, ambient="b3")
        assert b3.edge_count == 3 * bu3.edge_count

    def test_b3_skeleton_covers_bu3_skeleton(self):
        # covering: edge count a multiple, genus never smaller
        for row in GOLDEN_ROWS:
            bu3 = enumerate_row(row.p, row.N)
            b3 = enumerate_row(row.p, row.N, ambient="b3")
            assert b3.edge_count % bu3.edge_count == 0
            assert b3.edge_count // bu3.edge_count in (1, 3)
            assert genus(b3) >= genus(bu3)


class TestEulerFormula:
    def test_row1_signature(self):
        sig = SkeletonSignature(9, 1, 0, ((1, 2), (7, 1)))
        assert euler_lhs(sig, 7) == 12

    def test_row_p11_signature(self):
        sig = SkeletonSignature(24, 2, 0, ((1, 2), (2, 1), (10, 2)))
        assert euler_lhs(sig, 10) == 12

    def test_regular_width7_only_is_not_flat(self):
        sig = SkeletonSignature(14, 0, 0, ((7, 2),))
        assert euler_lhs(sig, 7) == -2

    def test_equivalence_with_genus(self):
        for row in GOLDEN_ROWS:
            for ambient in ("bu3", "b3"):
                sk = enumerate_row(row.p, row.N, ambient=ambient)
                sig = signature(sk)
                assert (euler_lhs(sig, row.N) == 12) == (genus(sk) == 0)

    def test_rejects_overwide_regions(self):
        with pytest.raises(ValueError):
            euler_lhs(SkeletonSignature(8, 0, 0, ((8, 1),)), 7)

    @pytest.mark.parametrize("partition", [((7, 1), (1, 2)), ((1, 2), (1, 7)),
                                           ((1, 0), (7, 1))])
    def test_partition_in_increasing_width_with_positive_counts(
            self, partition):
        with pytest.raises(ValueError):
            SkeletonSignature(9, 1, 0, partition)


class TestWidthAndDistinctness:
    def test_golden_widths_divide_n(self):
        for p, N in ((2, 7), (19, 18), (37, 9)):
            assert verify_region_widths(enumerate_row(p, N), N)

    def test_synthetic_width_five_fails_for_seven(self):
        # one black trivalent vertex, two monovalent blacks, a pair of
        # white bonds: the single region has width 5, which does not
        # divide 7
        sk = checked_skeleton((1, 2, 0, 3, 4), (4, 1, 3, 2, 0))
        assert sk.region_widths() == [5]
        assert not verify_region_widths(sk, 7)
        assert verify_region_widths(sk, 10)

    def test_distinct_lemma_on_golden(self):
        for p, N in ((2, 7), (11, 10), (43, 7)):
            assert verify_distinct_lemma(enumerate_row(p, N), N)

    def test_distinct_lemma_fails_on_bare_skeleton(self):
        assert not verify_distinct_lemma(single_edge(), 7)

    def test_distinct_lemma_vacuous_on_regular_trivial(self):
        # two edges, no monovalent vertices impossible; use a golden
        # regular skeleton: all width-N regions and width-1 regions absent
        sk = enumerate_row(17, 8)
        assert verify_distinct_lemma(sk, 8)


# the golden rows' 21 comma pairs: two factors listed in one group
COMMA_PAIRS = tuple((row, *grp) for row in GOLDEN_ROWS
                    for grp in row.factor_groups if len(grp) == 2)


class TestIsomorphism:
    @pytest.mark.parametrize("row, first, second", COMMA_PAIRS,
                             ids=[f"p{row.p}-N{row.N}-{a}-{b}"
                                  for row, a, b in COMMA_PAIRS])
    def test_comma_partners_isomorphic(self, row, first, second):
        s1, s2 = (enumerate_universal(UniversalGroupSpec(
            root_spec(row.p, text), "I", "bu3")) for text in (first, second))
        assert skeleton_isomorphic(s1, s2)

    def test_semicolon_groups_not_isomorphic(self):
        # p=11 N=10: four singleton groups
        s1 = enumerate_row(11, 10, factor=0)
        s2 = enumerate_row(11, 10, factor=1)
        assert signature(s1) == signature(s2)
        assert not skeleton_isomorphic(s1, s2)

    def test_self_isomorphic(self):
        sk = enumerate_row(3, 8)
        assert skeleton_isomorphic(sk, sk)


class TestEnumeration:
    def test_state_cap(self):
        root = root_spec(43, "t+4")
        with pytest.raises(EnumerationCapExceeded):
            enumerate_universal(UniversalGroupSpec(root, "I", "bu3"),
                                state_cap=10)

    def test_edge_count_formula(self):
        # e = (|k|^2 - 1) / M: the covector action is transitive here
        for row in GOLDEN_ROWS:
            root = root_spec(row.p, row.factors[0])
            sk = enumerate_universal(UniversalGroupSpec(root, "I", "bu3"))
            q = root.ring.order
            assert sk.edge_count == (q * q - 1) // root.M == row.edges

    def test_deterministic(self):
        root = root_spec(19, "t+4")
        a = enumerate_universal(UniversalGroupSpec(root, "I", "bu3"))
        b = enumerate_universal(UniversalGroupSpec(root, "I", "bu3"))
        assert a.black == b.black and a.white == b.white


@pytest.fixture(scope="module")
def verified_table():
    """table_verify()'s report, its orbit_signatures calls, each with its
    arguments and result, and its _closed_form calls."""
    real = skeleton.orbit_signatures
    recorded = []

    def recording(root, tags, *args):
        out = real(root, tags, *args)
        recorded.append((root, list(tags), args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        closed = count_calls(mp, skeleton, "_closed_form")
        mp.setattr(skeleton, "orbit_signatures", recording)
        report = table_verify()
    return report, recorded, closed


class TestTableSharing:
    """table --verify reads one closed form per (q, N, M, ambient) and
    shares it among the golden factors of that key."""

    def test_one_closed_form_per_key(self, verified_table):
        # 52 factors in two ambients, all closed, in 26 keys: one per row
        # and ambient; one memo for the whole call
        report, recorded, closed = verified_table
        assert report["ok"] and len(recorded) == 104 and len(closed) == 26
        assert len({(spec.root.ring.order, spec.root.N, spec.root.M,
                     spec.ambient) for spec, _ in closed}) == 26
        assert len({id(args[-1]) for _, _, args, _ in recorded}) == 1

    def test_shared_value_is_each_factors_own_closed_form(self,
                                                          verified_table):
        # each golden factor in each ambient, rebuilt on a field of its own,
        # gets the signature and genus the check read for its key
        _, recorded, _ = verified_table
        seen = set()
        for root, tags, args, out in recorded:
            assert _trace_generates(root) and tags == ["I"], str(root)
            own = root_spec(root.p, root.min_poly)
            spec = UniversalGroupSpec(own, "I", args[0])
            assert out == [(*_closed_form(spec, 10 ** 6), tags)], str(spec)
            seen.add((root.p, str(root.min_poly), args[0]))
        assert seen == {(row.p, str(root_spec(row.p, text).min_poly), ambient)
                        for row in GOLDEN_ROWS for text in row.factors
                        for ambient in ("bu3", "b3")}
        assert len(seen) == 104


class TestGoldenTable:
    def test_self_check(self):
        assert self_check()

    def test_table_verify_all_rows(self):
        report = table_verify()
        assert report["ok"]
        assert len(report["rows"]) == 13
        for row in report["rows"]:
            assert row["ok"], row

    def test_table_verify_single_row(self):
        report = table_verify(rows=[1])
        assert report["ok"] and len(report["rows"]) == 1

    def test_table_verify_unknown_row(self):
        with pytest.raises(ValueError):
            table_verify(rows=[99])

    def test_star_classification(self):
        report = table_verify()
        for entry, row in zip(report["rows"], GOLDEN_ROWS):
            for fac in entry["factors"]:
                assert (fac["b3Genus"] == 0) == row.starred

    def test_signature_text_of_every_row(self):
        # the text that table --verify prints for each row's signature and
        # each factor's, the same as when a signature spelled out every
        # region width
        texts = ["(9;1,0;1^2 7^1)", "(17;1,2;1^2 15^1)", "(10;0,1;1^2 8^1)",
                 "(78;0,0;1^6 8^9)", "(52;0,4;1^4 12^4)",
                 "(24;2,0;1^2 2^1 10^2)", "(14;0,2;1^2 12^1)",
                 "(36;0,0;1^4 8^4)", "(20;0,2;1^2 9^2)",
                 "(40;2,4;1^2 2^1 18^2)", "(60;0,0;1^4 7^8)",
                 "(76;0,4;1^4 9^8)", "(132;0,0;1^6 7^18)"]
        report = table_verify()
        assert len(report["rows"]) == len(texts) == 13
        for entry, row, text in zip(report["rows"], GOLDEN_ROWS, texts):
            sig = SkeletonSignature(row.edges, row.v_white, row.v_black,
                                    row.partition)
            assert str(sig) == entry["expected"] == text
            assert {fac["signature"] for fac in entry["factors"]} == {text}


# sweep candidates whose covector orbit is not the whole space
INTRANSITIVE_CANDIDATES = (
    (2, "t^6+t^3+1", "III+"),
    (2, "t^6+t^3+1", "III-"),
    (2, "t^6+t^3+1", "IV"),
    (3, "t^4+t^3+t^2+t+1", "I"),
    (3, "t^4+t^3+t^2+t+1", "III3"),
    (3, "t^6+2t^5+t^4+2t^3+t^2+2t+1", "III3"),
    (7, "t^2+3t+1", "I"),
    (7, "t^2+3t+1", "II"),
    (7, "t^2+4t+1", "I"),
    (7, "t^2+4t+1", "II"),
)

# the intransitive candidates whose type line is not conjugate to e2
NOT_CONJUGATE_TO_E2 = (
    (2, "t^6+t^3+1", "IV"),
    (3, "t^4+t^3+t^2+t+1", "III3"),
    (3, "t^6+2t^5+t^4+2t^3+t^2+2t+1", "III3"),
)


def assert_voltage_walk_matches(spec):
    """The lift numbers the edges as the covector BFS does, and the
    signature read off the walk is the BFS skeleton's."""
    oracle = covector_bfs(spec, 10 ** 6)
    sk = enumerate_universal(spec)
    assert (sk.black, sk.white, sk.region) == (
        oracle.black, oracle.white, oracle.region)
    assert _LineWalk(spec).signature() == (signature(oracle), genus(oracle))


class TestVoltageWalk:
    """enumerate_universal and _LineWalk.signature against the covector BFS."""

    @pytest.mark.parametrize("ambient", ["bu3", "b3"])
    def test_golden_factors(self, ambient):
        for row in GOLDEN_ROWS:
            for text in row.factors:
                root = root_spec(row.p, text)
                for tag in sorted(admissible_types(root)):
                    assert_voltage_walk_matches(
                        UniversalGroupSpec(root, tag, ambient))

    @pytest.mark.parametrize("p, min_poly, tag", INTRANSITIVE_CANDIDATES,
                             ids=[f"p{p}-{m}-{t}"
                                  for p, m, t in INTRANSITIVE_CANDIDATES])
    def test_intransitive_candidates(self, p, min_poly, tag):
        spec = UniversalGroupSpec(root_spec(p, min_poly), tag, "bu3")
        q = spec.root.ring.order
        assert enumerate_universal(spec).edge_count < (q * q - 1) // spec.root.M
        assert_voltage_walk_matches(spec)
        assert conjugate_to_e2(spec) == (
            (p, min_poly, tag) not in NOT_CONJUGATE_TO_E2)

    @pytest.mark.parametrize("corrupt", ["line", "voltage"])
    @pytest.mark.parametrize("step, relation", [
        ("black", r"black step of line \d+ violates black\^3 = 1"),
        ("white", r"white step of line \d+ violates white\^2 = 1"),
        ("region", r"region step of line \d+ violates the composition "
                   "convention"),
    ], ids=["black", "white", "s1"])
    def test_lift_checks_region_steps_on_lines(self, monkeypatch, step,
                                               relation, corrupt):
        # one line's black, white or s1 step moved to another line, or its
        # voltage shifted mod r, breaks black^3 = 1, white^2 = 1 or
        # s1 = white o black^2 on the k edges over that line; the line
        # check names that relation and raises before any lift
        class CorruptWalk(_LineWalk):
            def __init__(self, spec, state_cap):
                super().__init__(spec, state_cap)
                steps = getattr(self, step)
                j, d = steps[1]
                steps[1] = ((j + 1) % len(self.lines), d) \
                    if corrupt == "line" else (j, (d + 1) % self.r)

            def edge_steps(self, step):
                raise AssertionError("lifted before the line check")

        spec = UniversalGroupSpec(root_spec(43, "t+4"), "I", "bu3")
        walk = _LineWalk(spec)
        assert walk.r > 1 and len(walk.lines) > 1
        monkeypatch.setattr(skeleton, "_LineWalk", CorruptWalk)
        with pytest.raises(ValueError, match=relation):
            enumerate_universal(spec)

    def test_lift_checks_that_its_numbering_reaches_every_edge(
            self, monkeypatch):
        # with every voltage and potential 0 each relation holds on the
        # lines, but the cover falls apart into k copies of the base, and
        # the numbering from edge 0 reaches one of them
        class FlatWalk(_LineWalk):
            def __init__(self, spec, state_cap):
                super().__init__(spec, state_cap)
                self.potential = [0] * len(self.lines)
                for steps in (self.black, self.white, self.region):
                    steps[:] = [(j, 0) for j, _ in steps]

        spec = UniversalGroupSpec(root_spec(43, "t+4"), "I", "bu3")
        assert _LineWalk(spec).k > 1
        monkeypatch.setattr(skeleton, "_LineWalk", FlatWalk)
        with pytest.raises(ValueError, match="is not connected"):
            enumerate_universal(spec)

    def test_lift_makes_no_edge_level_checks_but_passes_them(
            self, monkeypatch):
        # the lift builds its Skeleton by _certified alone, with no check on
        # the edges; its pair then passes the validating checks and, as a
        # cache entry, the breadth-first certificate
        spec = UniversalGroupSpec(root_spec(593, "t+201"), "I", "bu3")

        def refuse(*args, **kwargs):
            raise AssertionError("Skeleton._from_entry called by the lift")

        with monkeypatch.context() as patch:
            patch.setattr(Skeleton, "_from_entry", refuse)
            built = count_calls(patch, Skeleton, "_certified")
            sk = enumerate_universal(spec)
        assert len(built) == 1 and sk.edge_count == 43956
        checked = checked_skeleton(sk.black, sk.white)
        assert checked.region == sk.region
        entry = Skeleton._from_entry(array("Q", sk.black),
                                     array("Q", sk.white))
        assert (entry.black, entry.white, entry.region) == \
            (sk.black, sk.white, sk.region)

    def test_state_cap_boundary(self):
        # the orbit has 43,956 edges; both paths accept exactly that many
        spec = UniversalGroupSpec(root_spec(593, "t+201"), "I", "bu3")
        sig, _ = _LineWalk(spec, state_cap=43956).signature()
        assert sig.edges == 43956
        assert enumerate_universal(spec, state_cap=43956).edge_count == 43956
        with pytest.raises(EnumerationCapExceeded):
            _LineWalk(spec, state_cap=43955).signature()
        with pytest.raises(EnumerationCapExceeded):
            enumerate_universal(spec, state_cap=43955)

    @pytest.mark.parametrize("path", [
        _closed_form,
        lambda spec, state_cap: _LineWalk(spec, state_cap).signature(),
    ], ids=["closed-form", "walk"])
    def test_transitive_state_cap_boundary(self, path):
        # a transitive root: (q + 1) r = 594 * 74 edges pass, one fewer
        # raises, with the same message on both paths
        spec = UniversalGroupSpec(root_spec(593, "t+201"), "II", "b3")
        assert _trace_generates(spec.root)
        edges = 594 * _fiber_order(spec)
        assert path(spec, edges)[0].edges == edges
        with pytest.raises(EnumerationCapExceeded) as raised:
            path(spec, edges - 1)
        assert str(raised.value) == f"more than {edges - 1} cosets for {spec}"

    def test_cap_below_the_line_count(self):
        with pytest.raises(EnumerationCapExceeded):
            _LineWalk(UniversalGroupSpec(root_spec(43, "t+4"), "I", "bu3"),
                      state_cap=10).signature()

    def test_walk_stops_at_the_cap(self, monkeypatch):
        # F_100003 has 100,004 lines; the walk stops at the 101st, having
        # made a few additions per line
        root = root_spec(100003, "t+2")
        sums = []
        add = root.ring.add

        def counting(a, b):
            sums.append(1)
            return add(a, b)

        monkeypatch.setattr(root.ring, "add", counting)
        with pytest.raises(EnumerationCapExceeded, match="more than 100 cosets"):
            _LineWalk(UniversalGroupSpec(root, "I", "bu3"),
                      state_cap=100).signature()
        assert 0 < len(sums) < 1000


def small_field_roots(max_prime, max_order):
    """A root for every monic irreducible m of degree 1 to 3 over F_p,
    p <= max_prime, other than t, whose field has at most max_order
    elements; at degree 2 and 3 irreducible means without a zero in F_p."""
    for p in sympy.primerange(2, max_prime + 1):
        for degree in range(1, 4):
            if p ** degree > max_order:
                break
            for low in product(range(p), repeat=degree):
                coeffs = (*low, 1)
                if low[0] and (degree == 1 or all(
                        sum(c * a ** i for i, c in enumerate(coeffs)) % p
                        for a in range(p))):
                    yield root_spec(p, IntPoly(coeffs))


class TestClosedFormOverSmallFields:
    """The closed form against the walk on the roots a user may pass, not
    only the classification's: every monic irreducible m of degree 1 to 3
    over F_p with p <= 109 and q <= 200, every admissible tag and both
    ambients."""

    def test_closed_form_is_the_walk_and_rejected_roots_are_not_transitive(self):
        # a root that _trace_generates accepts is one orbit of all q + 1
        # lines with K = Z/r, whose generator cycles, signature and genus
        # the closed form gives, and orbit_signatures reads it for every
        # tag; a root with N >= 7 that it rejects walks, from every tag, to
        # fewer than q + 1 lines or to k < r: to more than one orbit, or to
        # a local group smaller than the closed form's
        closed = rejected = 0
        for root in small_field_roots(109, 200):
            q, tags = root.ring.order, list(type_tags(root.M, root.p == 3))
            for ambient in ("bu3", "b3"):
                if _trace_generates(root):
                    walked = closed_form_certified(
                        UniversalGroupSpec(root, tags[0], ambient))
                    assert orbit_signatures(root, tags, ambient, 10 ** 6) == \
                        [(*walked, tags)], (str(root), ambient)
                    closed += 1
                elif root.N >= 7:
                    for tag in tags:
                        walk = _LineWalk(UniversalGroupSpec(root, tag, ambient))
                        assert len(walk.lines) < q + 1 or walk.k < walk.r, \
                            (str(root), tag, ambient)
                    rejected += 1
        assert (closed, rejected) == (2984, 20)

    @pytest.mark.parametrize("p, m, tag, message", [
        (2, "t^3+t+1", "III+", "type 'III+' is not admissible for M=7"),
        (2, "t^3+t+1", "III3", "type 'III3' is not admissible for M=7"),
        (3, "t^2+2t+2", "IV", "type 'IV' is not admissible for M=8 and p=3"),
        (3, "t^2+2t+2", "III-",
         "type 'III-' is not admissible for M=8 and p=3"),
        (5, "t-1", "III+", "type 'III+' is not admissible for M=1"),
    ], ids=["closed-2", "closed-2-iii3", "closed-3", "closed-3-iii", "walked"])
    def test_an_inadmissible_tag_raises_on_either_path(self, p, m, tag,
                                                       message):
        # the closed form tests each tag against type_tags; the walk meets
        # it when it seeds the tag's line; both raise type_coefficient_laurent's
        # error, also after an admissible first tag
        root = root_spec(p, m)
        for ambient in ("bu3", "b3"):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                orbit_signatures(root, ["I", tag], ambient)


def field_size_classes(max_prime, max_degree, max_order):
    """(N, p, roots) for N = 7..26 and each prime p < max_prime that does
    not divide N, with ord_N(p) <= max_degree and q <= max_order: a root
    for every irreducible factor of phi_N(-t) mod p, all of one field
    size q = p^ord_N(p)."""
    for N in range(7, 27):
        for p in sympy.primerange(2, max_prime):
            d = order_mod(p, N) if N % p else 0
            if d and d <= max_degree and p ** d <= max_order:
                yield N, p, [root_spec(p, m)
                             for m in sorted(set(cyclotomic_factors(N, p)),
                                             key=str)]


class TestClosedFormPerFieldSize:
    """A closed form depends only on (q, N, M, |S|): the roots of one
    (N, p) share their fiber cycles, signature and genus in each ambient,
    so the genus filter reads one per class."""

    def test_closed_form_depends_on_the_field_size_alone(self):
        # every irreducible factor of phi_N(-t) mod p, N = 7..26, p < 400,
        # degree <= 4, q <= 20,000, both ambients: per (N, p), the
        # trace-field test agrees with its ring reference and on all the
        # class's roots, and each root's own closed form has the class's
        # fiber-cycle multisets, signature and genus
        closed = classes = 0
        for N, p, roots in field_size_classes(400, 4, 20000):
            verdicts = [_trace_generates(root) for root in roots]
            assert verdicts == [reference_trace_generates(root)
                                for root in roots], (N, p)
            assert len(set(verdicts)) == 1, (N, p)
            if not verdicts[0]:
                continue
            assert {(r.ring.order, r.N, r.M) for r in roots} == \
                {(roots[0].ring.order, N, roots[0].M)}
            for ambient in ("bu3", "b3"):
                first = None
                for root in roots:
                    spec = UniversalGroupSpec(root, "I", ambient)
                    got = ([Counter(base) for base in _fiber_cycles(spec)],
                           _closed_form(spec, 10 ** 9))
                    if first is None:
                        first = got
                    assert got == first, (str(spec), first[0])
                    closed += 1
            classes += 1
        assert (classes, closed) == (277, 3212)


class TestClosedFormOverHigherDegrees:
    """The closed form against the walk where its ring is the bit
    arithmetic of F_(2^d) at even d or the general tuple product: every
    monic irreducible m of degree 4 or 6 over F_2 and of degree 4 over
    F_3, both ambients."""

    def test_closed_form_is_the_walk(self):
        closed = rejected = 0
        for p, d in ((2, 4), (2, 6), (3, 4)):
            for low in product(range(p), repeat=d):
                if not low[0]:
                    continue
                try:
                    root = root_spec(p, IntPoly((*low, 1)))
                except ValueError:
                    continue
                tag = type_tags(root.M, p == 3)[0]
                for ambient in ("bu3", "b3"):
                    spec = UniversalGroupSpec(root, tag, ambient)
                    if _trace_generates(root):
                        closed_form_certified(spec)
                        closed += 1
                    else:
                        rejected += 1
        assert (closed, rejected) == (52, 8)


class TestLiftOverSmallFields:
    """The lift against the covector BFS on the roots a user may pass to
    `skeleton --json`, not only the classification's, N < 7 included."""

    def test_lift_is_the_covector_bfs_on_a_seeded_sample(self):
        # a seeded sample of 500 of the 10,324 specs of every monic
        # irreducible m of degree 1 to 3 over F_p with q <= 125, every
        # admissible tag and both ambients, 45 of them with N < 7: the
        # lift's black, white and region and the walk's signature and
        # genus are the covector BFS's.  A walk has at most q + 1 lines
        # and k <= q - 1, so each has at most 15,624 edges
        specs = [UniversalGroupSpec(root, tag, ambient)
                 for root in small_field_roots(113, 125)
                 for tag in sorted(admissible_types(root))
                 for ambient in ("bu3", "b3")]
        sample = random.Random(30).sample(specs, 500)
        for spec in sample:
            assert_voltage_walk_matches(spec)
        assert len(specs) == 10324
        assert sum(spec.root.N < 7 for spec in sample) == 45

    def test_partition_counts_the_lifted_region_widths(self):
        # on the same sample, the partition that _signature_of builds once
        # per distinct width is the Counter of the lifted skeleton's region
        # widths, in increasing width with positive counts
        specs = [UniversalGroupSpec(root, tag, ambient)
                 for root in small_field_roots(113, 125)
                 for tag in sorted(admissible_types(root))
                 for ambient in ("bu3", "b3")]
        for spec in random.Random(30).sample(specs, 500):
            (sig, _), sk = _LineWalk(spec).signature(), enumerate_universal(spec)
            widths = [w for w, _ in sig.partition]
            assert widths == sorted(set(widths))
            assert dict(sig.partition) == Counter(sk.region_cycles().lengths)
            assert sum(w * n for w, n in sig.partition) == sk.edge_count
