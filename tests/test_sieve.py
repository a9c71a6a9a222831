"""The resultant sieve: determinants, informativeness, candidate extraction."""

import random
from collections import Counter
from itertools import product

import pytest
import sympy
from covector_oracle import FieldElem, Presentation, element_order
from fp_reference import fp_divmod
from helpers import count_calls, determinant_D, nonunit_entries, \
    ordered_resultants, reference_fp_gcd, reference_orbit_key, \
    reference_resultants, reference_triples, resultant_with_cyclotomic, \
    sieve_determinant, sweep_pairs

from burausieve import exactalg, sieve, skeleton
from burausieve.burau import BraidWord, BurauMatrix, to_burau
from burausieve.exactalg import IntPoly, _fp_gcd, \
    _resultant_bound, cyclotomic, cyclotomic_factors, fp_factor, order_mod, \
    parse_poly, substitute_neg, unity_prime
from burausieve.golden import GOLDEN_ROWS
from burausieve.sieve import (
    DEFAULT_INFORMATIVE_SETS,
    ExceptionalTriple,
    branches_for,
    candidate_sets_for,
    exceptional_triples,
    full_sweep,
    is_informative,
    parse_word_set,
)
from burausieve.typesys import k_threshold, root_spec

ID = [BraidWord.identity()]


def branch(N, char_class):
    for b in branches_for(N):
        if b.char_class == char_class:
            return b
    raise LookupError


def phi_tilde_neg(l):
    """((-t)^l - 1) / (-t - 1), the independent closed form."""
    return IntPoly([(-1) ** m for m in range(l)])


class TestBranches:
    def test_p2_branch_needs_odd_n(self):
        assert any(b.char_class == "p=2" for b in branches_for(7))
        assert not any(b.char_class == "p=2" for b in branches_for(8))

    def test_p3_branch_needs_n_coprime_to_three(self):
        assert any(b.char_class == "p=3" for b in branches_for(8))
        assert not any(b.char_class == "p=3" for b in branches_for(9))

    def test_branch_m_values(self):
        assert branch(7, "p=2").M == 7
        assert branch(7, "p odd").M == 14
        assert branch(10, "p odd").M == 5

    def test_branch_types(self):
        assert set(branch(7, "p=2").types) == {"I", "II", "IV"}
        assert set(branch(7, "p odd").types) == {"I", "II"}
        assert set(branch(7, "p=3").types) == {"I", "II", "III3"}
        assert set(branch(9, "p odd").types) == {"I", "II", "III+", "III-"}
        assert set(branch(25, "p=2").types) == {"I", "II", "IV"}

    def test_prime_acceptance(self):
        assert branch(7, "p=2").accepts_prime(2)
        assert not branch(7, "p=2").accepts_prime(3)
        assert branch(7, "p odd").accepts_prime(29)
        assert not branch(7, "p odd").accepts_prime(3)
        assert branch(7, "p=3").accepts_prime(3)


class TestDeterminant:
    def test_diagonal_family_closed_form(self):
        # B = {id}, T' = T'' = I: the determinant is the truncated
        # geometric sum in -t, derived here by raw matrix multiplication
        b7 = branch(7, "p=2")
        for l in range(1, 7):
            d = determinant_D(ID, 7, b7, "I", "I", 0, 0, l)
            mat = BurauMatrix.identity()
            for _ in range(l):
                mat = mat * to_burau(BraidWord.parse("s1"))
            u = mat.apply((IntPoly.zero(), IntPoly.one()))
            oracle = u[0] * IntPoly.one() - u[1] * IntPoly.zero()
            assert d == IntPoly(oracle.coeffs)
            assert d == phi_tilde_neg(l)

    def test_cross_type_at_l_zero(self):
        b7 = branch(7, "p=2")
        d = determinant_D(ID, 7, b7, "I", "II", 0, 0, 0)
        assert d == parse_poly("-t-1") or d == parse_poly("t+1")

    def test_shift_clearing(self):
        # type IV against I at l = 0 gives a monomial: cleared to a unit
        b7 = branch(7, "p=2")
        d = determinant_D(ID, 7, b7, "IV", "I", 0, 0, 0)
        assert d.coeffs in ((1,), (-1,))

    def test_duplicate_projections_rejected(self):
        words = parse_word_set(["e", "T s1 s1^-1"])  # both project to id
        with pytest.raises(ValueError):
            determinant_D(words, 7, branch(7, "p=2"), "I", "II", 0, 1, 0)


class TestExclusionCompleteness:
    def test_excluded_determinants_vanish_identically(self):
        # det[b v_T | b v_T] = 0 for any word and type
        word = parse_word_set(["T s2^-1 s1"])
        for b in branches_for(9):
            for tag in b.types:
                assert determinant_D(word, 9, b, tag, tag, 0, 0, 0).is_zero

    def test_no_valid_sequence_vanishes_identically(self):
        # over {id, beta} with distinct projections (T, T, i, i, 0) is the
        # one index whose determinant is identically zero; every other
        # gives a nonzero polynomial (vanishing can only happen at roots).
        # The pass's resultant is 0 at the zero determinant.
        words = parse_word_set(["e", "T s2^-1 s1"])
        sieve_pass = sieve._SievePass(9)
        for b in sieve_pass.branches:
            vecs = sieve_pass.vectors(words, b)
            for t1, t2, i, j in product(b.types, b.types, range(2), range(2)):
                u, w = vecs[t1][i], vecs[t2][j]
                for l in range(9):
                    zero = t1 == t2 and i == j and l == 0
                    assert sieve_determinant(u, w, l).is_zero == zero, \
                        (b, t1, t2, i, j, l)
                    if zero:
                        assert sieve_pass.resultants_of(u, w)[l] == 0


class TestResultantWithCyclotomic:
    def test_diagonal_family_never_vanishes(self):
        for N in range(7, 27):
            for l in range(1, N):
                assert resultant_with_cyclotomic(phi_tilde_neg(l), N) != 0

    def test_shared_factor_vanishes(self):
        for N in (7, 9, 12):
            assert resultant_with_cyclotomic(substitute_neg(cyclotomic(N)), N) == 0

    def test_unit(self):
        assert resultant_with_cyclotomic(IntPoly.one(), 9) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant_with_cyclotomic(IntPoly.zero(), 9)


class TestInformativeness:
    def test_singleton_too_small_for_seven(self):
        assert not is_informative(ID, 7, branch(7, "p=2"))

    def test_singleton_informative_at_thirteen(self):
        for b in branches_for(13):
            assert is_informative(ID, 13, b)

    def test_singleton_fails_at_nine(self):
        for b in branches_for(9):
            assert not is_informative(ID, 9, b)

    def test_printed_beta1_word_collapses(self):
        # the identity-projecting word cannot join any candidate set
        words = parse_word_set(["e", "T s1 s1^-1"])
        with pytest.raises(ValueError):
            is_informative(words, 9, branch(9, "p odd"))

    def test_a_repeated_vector_is_informative_for_no_n(self):
        # s2 T^-1 s2 T^-1 fixes e2 = v_I, and its modular projection
        # (1, 0, -2, 1) is not that of e: so {e, s2 T^-1 s2 T^-1} has v_I
        # twice under type I, whose pair has D_0 = 0.  Below k_N the set is
        # too small; from N = 9 on, the pass finds the repeated vector on
        # every branch and evaluates no resultant
        words = parse_word_set(["e", "s2 T^-1 s2 T^-1"])
        for N in range(7, 27):
            sieve_pass = sieve._SievePass(N)
            assert sieve_pass.nonunit(words) is None, N
            assert sieve_pass.resultants == {}, N
            if len(words) < k_threshold(N):
                continue
            for b in sieve_pass.branches:
                u, w = sieve_pass.vectors(words, b)["I"]
                assert u is w and sieve_determinant(u, w, 0).is_zero
        texts = [str(w) for w in words]
        results = full_sweep((13, 13), informative_sets={13: [texts, ["e"]]},
                             raw=True)
        assert results[13]["rejected"] == [texts]
        assert results[13]["sets"] == [["e"]]

    def test_default_sets_are_informative(self):
        for N in (7, 8, 9, 10):
            for texts in DEFAULT_INFORMATIVE_SETS[N]:
                words = parse_word_set(texts)
                for b in branches_for(N):
                    assert is_informative(words, N, b), (N, texts, b.char_class)


def random_poly(rng):
    """A Laurent polynomial of 1 to 5 coefficients in -3..3, t^-2..t^2."""
    return IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))],
                   rng.randint(-2, 2))


def certificate_pairs(N, rng):
    """Seeded vector pairs (u, w) for the certificate at N: two random
    pairs, a random (u, u), and three with a genuine zero resultant:
    w = s1^l u (D_l = 0), w = s1^l u + phi_N(-t) (r, r') (D_l a multiple
    of phi_N(-t)), and (u, u) with phi_N(-t) dividing u1, so that every
    D_l(u, u) is a multiple of it."""
    cyc = substitute_neg(cyclotomic(N))
    u, w = (sieve._Vector((random_poly(rng), random_poly(rng)))
            for _ in range(2))
    s1_l = to_burau(BraidWord.parse(f"s1^{rng.randrange(N)}"))
    shifted = s1_l.apply(u)
    moved = sieve._Vector(f + cyc * random_poly(rng) for f in shifted)
    fixed = sieve._Vector((random_poly(rng), cyc * random_poly(rng)))
    return [(u, w), (w, u), (u, u), (u, sieve._Vector(shifted)), (u, moved),
            (fixed, fixed)]


class TestCertificate:
    """A pair that no earlier set evaluated is certified nonzero at one
    root of unity mod P (_SievePass.nonzero); its verdict is exact."""

    def test_verdict_matches_the_prs_for_every_n(self, monkeypatch):
        # for N = 2..40, on seeded random pairs and pairs with a genuine
        # zero, the verdict is whether no PRS resultant is 0 (l >= 1 for
        # (u, u)); a zero is found only by the exact fallback, and no
        # random pair needs it
        calls = count_calls(monkeypatch, sieve, "resultant")
        rng = random.Random(35)
        verdicts = Counter()
        for N in range(2, 41):
            for i, (u, w) in enumerate(certificate_pairs(N, rng)):
                evaluated = len(calls)
                verdict = sieve._SievePass(N).nonzero(u, w)
                assert verdict == (0 not in reference_resultants(u, w, N)[
                    int(u is w):]), (N, u, w)
                assert len(calls) - evaluated == (not verdict), (N, u, w)
                verdicts[i < 3, verdict] += 1
        assert verdicts[False, True] == 0 and verdicts[False, False] == 117
        assert verdicts[True, True] > 0

    def test_a_zero_mod_p_falls_back_to_the_exact_resultant(self, monkeypatch):
        # with every root value 0 mod P, no pair is certified: each one
        # the sweep's later sets read unevaluated falls back to
        # resultant, which decides it, and the sweep's sets and triples are
        # unchanged.  So every pair is evaluated, 1,131 resultants, as when
        # every set was decided by its resultants
        want = {N: sieve._SievePass(N).sieve(candidate_sets_for(N))
                for N in range(7, 27)}
        calls = count_calls(monkeypatch, sieve, "resultant")
        monkeypatch.setattr(sieve, "unity_value", lambda f, zeta_powers, P: P)
        for N in range(7, 27):
            assert sieve._SievePass(N).sieve(candidate_sets_for(N)) == want[N]
        assert len(calls) == 1131
        rng = random.Random(35)
        for N in range(2, 41):
            for u, w in certificate_pairs(N, rng):
                assert sieve._SievePass(N).nonzero(u, w) == (
                    0 not in reference_resultants(u, w, N)[int(u is w):])

    def test_no_fallback_on_the_default_sweep(self, monkeypatch):
        # every pair a later set of the default sweep reads unevaluated is
        # certified at its one root: none falls back to resultant
        fallbacks, certifying = [], []
        real, real_nonzero = sieve.resultant, sieve._SievePass.nonzero

        def counting_resultant(u, w, N, **kwargs):
            if certifying:
                fallbacks.append((u, w, N))
            return real(u, w, N, **kwargs)

        def recording_nonzero(self, u, w):
            certifying.append((u, w))
            try:
                return real_nonzero(self, u, w)
            finally:
                certifying.pop()

        monkeypatch.setattr(sieve, "resultant", counting_resultant)
        monkeypatch.setattr(sieve._SievePass, "nonzero", recording_nonzero)
        full_sweep((7, 26))
        assert fallbacks == []


@pytest.fixture(scope="module")
def reference_sets():
    """(N, i, branch) -> reference_triples of the i-th built-in word set of
    N on that branch, for every N of the sweep and every informative set."""
    out = {}
    for N in range(7, 27):
        sieve_pass = sieve._SievePass(N)
        for i, words in enumerate(candidate_sets_for(N)):
            for b in sieve_pass.nonunit(words) or {}:
                out[N, i, b] = reference_triples(sieve_pass, words, b)
    return out


class TestExceptionalTriples:
    def test_golden_rows_survive_at_nine(self):
        triples = exceptional_triples(9, candidate_sets_for(9))
        pairs = {(t.p, str(t.min_poly)) for t in triples}
        for m in ("t+4", "t+5", "t+6", "t+9", "t+16", "t+17"):
            assert (19, m) in pairs
        for m in ("t+7", "t+16", "t+9", "t+33", "t+12", "t+34"):
            assert (37, m) in pairs

    def test_branch_coherence(self):
        triples = exceptional_triples(9, candidate_sets_for(9))
        for t in triples:
            assert t.p == 2 or t.p % 2 == 1

    def test_extracted_roots_have_order_n(self):
        triples = exceptional_triples(10, candidate_sets_for(10))
        for t in sorted(triples, key=ExceptionalTriple.sort_key)[:8]:
            assert root_spec(t.p, t.min_poly).N == 10

    def test_rejects_undersized_set(self):
        with pytest.raises(ValueError):
            exceptional_triples(7, [ID])

    def test_intersection_shrinks(self):
        sets = candidate_sets_for(9)
        only_first = exceptional_triples(9, sets[:1])
        intersected = exceptional_triples(9, sets)
        assert intersected <= only_first


class TestOrderRule:
    """The sieve keeps a factor of phi_N(-t) mod p exactly when p does not
    divide N, and builds no field to decide it."""

    def test_rule_matches_the_order_of_every_extracted_factor(self):
        # every factor of a nonunit resultant's gcd over an accepted prime,
        # p | N included: ord(-xi) = N exactly when p does not divide N.
        # The reference order serves every field; root_spec, whose log
        # table costs O(q), those up to the largest candidate field.  For
        # p | N the gcd's factors are read off phi_N(-t)'s by divisibility.
        def factors_of(g, N, p):
            if N % p:
                return fp_factor(g, order_mod(p, N), p)
            return {f.coeffs for f in cyclotomic_factors(N, p)
                    if not fp_divmod(g, f.coeffs, p)[1]}

        divisible = set()
        for N in (7, 10, 25):
            sieve_pass = sieve._SievePass(N)
            cyc = substitute_neg(cyclotomic(N))
            factors = set()
            for words in candidate_sets_for(N):
                for branch in sieve_pass.nonunit(words) or {}:
                    for _, u, w, l, r in nonunit_entries(sieve_pass, words, branch):
                        d = sieve_determinant(u, w, l)
                        for p in sympy.primefactors(r):
                            if not branch.accepts_prime(p):
                                continue
                            g = _fp_gcd(d.reduce_mod(p), cyc.reduce_mod(p), p)
                            if len(g) > 1:
                                factors.update((p, fac) for fac in factors_of(g, N, p))
            for p, fac in factors:
                spec = Presentation.of(p, fac)
                order = element_order(-FieldElem.xi(spec))
                assert (order == N) == (N % p != 0), (N, p, fac)
                if spec.order <= 4651:
                    assert root_spec(p, IntPoly(fac)).N == order
                if N % p == 0:
                    divisible.add((N, p))
        assert divisible == {(7, 7), (10, 5), (25, 5)}

    def test_triples_match_the_gcd_of_each_determinant(self, reference_sets):
        # the pass keys each vector's point at each factor of phi_N(-t) mod
        # p by its mu_N-orbit; the slow path builds each D_l and splits its
        # gcd with phi_N(-t) mod p, on every informative set of the sweep
        for N in range(7, 27):
            sieve_pass = sieve._SievePass(N)
            for i, words in enumerate(candidate_sets_for(N)):
                for branch, (vecs, moduli) in (sieve_pass.nonunit(words) or {}).items():
                    held = sieve_pass.carried(vecs, moduli, branch)
                    assert sieve_pass.triples(held) \
                        == reference_sets[N, i, branch], (N, words, branch)
        assert sum(map(len, reference_sets.values())) > 0

    def test_pruned_intersection_matches_the_slow_path(self, reference_sets):
        # the pass finds the first informative set's triples in full and
        # tests later sets only for those; the slow path finds every usable
        # set's triples in full by the gcd and intersects them
        for N in range(7, 27):
            sets = candidate_sets_for(N)
            usable, _, by_branch = sieve._SievePass(N).sieve(sets)
            assert usable, N
            slow = {}
            for i, words in enumerate(sets):
                if words in usable:
                    for branch in by_branch:
                        found = reference_sets[N, i, branch]
                        slow[branch] = slow[branch] & found if branch in slow else found
            assert by_branch == slow, N

    def test_orbit_verdicts_match_division(self, monkeypatch):
        # over the raw sweep, at each factor m of phi_N(-t) mod p that a
        # set keys on a branch, first sets and later ones, and for each
        # ordered pair (u, w) of the set's vectors there, the orbit verdict
        # equals whether m divides D_l(u, w) mod p for some l (l > 0 when w
        # is u), found by the gcd of D_l with phi_N(-t) mod p and a division
        # of it by m: 1,891 (set, p, m) over 35,945 pairs, with m of degree
        # 1, 2, 3, 4 and 6.  The verdict: w is u and its point is fixed, or
        # w is not u and the two points share a key, or one of them is
        # undefined.  phi_N(-t) is monic, so the gcd is nontrivial exactly
        # when p divides |Res_l|, and only those l are divided
        tested = []
        real = sieve._SievePass.carried_types

        def recording(self, vecs, p, k):
            tested.append((self, [v for vs in vecs.values() for v in vs], p, k))
            return real(self, vecs, p, k)

        monkeypatch.setattr(sieve._SievePass, "carried_types", recording)
        for N in range(7, 27):
            sieve._SievePass(N).sieve(candidate_sets_for(N))
        divisors, verdicts, degrees = {}, Counter(), set()
        for sieve_pass, vs, p, k in tested:
            N, m = sieve_pass.N, sieve_pass.cyclotomic_factors(p)[k].coeffs
            degrees.add(len(m) - 1)
            cyc = substitute_neg(cyclotomic(N)).reduce_mod(p)
            keys = sieve_pass.orbit_keys(vs, p, k)
            for (u, key_u), (w, key_w) in product(zip(vs, keys), repeat=2):
                if (N, u, w, p) not in divisors:
                    res = ordered_resultants(sieve_pass, u, w)
                    gcds = [reference_fp_gcd(sieve_determinant(u, w, l).reduce_mod(p),
                                             cyc, p)
                            for l in range(int(u is w), N) if res[l] % p == 0]
                    assert all(len(g) > 1 for g in gcds), (N, p, u, w)
                    divisors[N, u, w, p] = gcds
                divides = any(not fp_divmod(g, m, p)[1]
                              for g in divisors[N, u, w, p])
                if u is w:
                    orbit = key_u in sieve._FIXED
                else:
                    orbit = key_u == key_w or sieve._UNDEFINED in (key_u, key_w)
                assert orbit == divides, (N, p, m, u, w, key_u, key_w)
                verdicts[orbit] += 1
        assert len(tested) == 1891 and sum(verdicts.values()) == 35945
        assert verdicts[True] > 0 and degrees == {1, 2, 3, 4, 6}

    def test_root_spec_calls(self, monkeypatch):
        # none in the raw sieve; one per candidate pair in the genus filter
        calls = []
        real = sieve.root_spec

        def counting(p, m):
            calls.append((p, str(m)))
            return real(p, m)

        monkeypatch.setattr(sieve, "root_spec", counting)
        raw = full_sweep((25, 25), raw=True)
        assert calls == []
        full_sweep((25, 25))
        pairs = {(tr.p, str(tr.min_poly))
                 for trs in raw[25]["branches"].values() for tr in trs}
        assert pairs and sorted(calls) == sorted(pairs)


def divided_types(vecs, N, p, m):
    """The tags T with a vector u such that m divides D_l(u, w) mod p for
    some vector w of vecs and some l (l > 0 when w is u), by division."""
    tagged = [(tag, v) for tag, vs in vecs.items() for v in vs]
    return {tag for tag, u in tagged for _, w in tagged
            if any(not fp_divmod(sieve_determinant(u, w, l).reduce_mod(p),
                                 m, p)[1]
                   for l in range(int(u is w), N))}


class TestOrbitRule:
    """The orbit rule on vectors placed at each kind of point of P^1(F_q),
    and on seeded random word sets, against division and the gcd."""

    @pytest.mark.parametrize("N, p", [(9, 19), (8, 3), (7, 2)],
                             ids=["linear", "quadratic", "cubic"])
    def test_points_at_zero_infinity_and_undefined(self, N, p):
        # at the root theta of the first factor m of phi_N(-t) mod p:
        # alpha = (1 + t) v0 - v1 and beta = v1 give [0:1] for (1, 1 + t - m),
        # [1:0] for (1, m), no point for (m, m), [theta:1] for (1, 1) and
        # [-theta^2:1] = zeta [theta:1] for (1 - t, 1), in its orbit
        sieve_pass = sieve._SievePass(N)
        factors = sieve_pass.cyclotomic_factors(p)
        m = factors[0]
        one, t = IntPoly.one(), IntPoly.t()
        points = {
            "zero": sieve._Vector((one, one + t - m)),
            "infinity": sieve._Vector((one, m)),
            "undefined": sieve._Vector((m, m)),
            "generic": sieve._Vector((one, one)),
            "rotated": sieve._Vector((one - t, one)),
        }
        keys = dict(zip(points, sieve_pass.orbit_keys(list(points.values()),
                                                      p, 0)))
        assert keys["zero"] == sieve._ZERO and keys["infinity"] == sieve._INFINITY
        assert keys["undefined"] == sieve._UNDEFINED
        assert keys["generic"] == keys["rotated"] not in sieve._FIXED
        # the diagonal pair (u, u) is hit, at some l > 0, at a fixed point only
        for name, v in points.items():
            assert divided_types({name: [v]}, N, p, m.coeffs) \
                == ({name} if name in ("zero", "infinity", "undefined") else set())
        cases = [
            ({"I": [points["zero"]], "II": [points["generic"]]}, {"I"}),
            ({"I": [points["infinity"]], "II": [points["generic"]]}, {"I"}),
            ({"I": [points["generic"]], "II": [points["undefined"]]}, {"I", "II"}),
            ({"I": [points["generic"]], "II": [points["rotated"]]}, {"I", "II"}),
            ({"I": [points["zero"], points["infinity"]], "II": [points["generic"]]},
             {"I"}),
        ]
        branch, = [b for b in sieve_pass.branches if b.accepts_prime(p)]
        for vecs, want in cases:
            assert sieve_pass.carried_types(vecs, p, 0) == want, vecs
            assert divided_types(vecs, N, p, m.coeffs) == want, vecs
            # every factor of phi_N(-t) mod p, by its index, as carried
            # keys them
            divided = {(p, k): divided_types(vecs, N, p, f.coeffs)
                       for k, f in enumerate(factors)}
            assert sieve_pass.carried(vecs, {p}, branch) == {
                key: tags for key, tags in divided.items() if tags}

    def test_random_word_sets_match_the_slow_path(self):
        # for each N of the sweep, the first two informative sets of k_N
        # seeded random words, each a product of 0 to 4 factors from
        # beta1, beta2, s1, s2^-1 and T: each set's triples and their
        # intersection, against the gcd of each determinant.  Points at 0
        # and at infinity occur among them (27 keys each), and factors of
        # every degree from 1 to 6
        rng = random.Random(20121)
        factors = parse_word_set(["T s2 s1^-1", "T s2^-1 s1", "s1", "s2^-1", "T"])
        fixed, degrees = Counter(), set()
        for N in range(7, 27):
            sieve_pass, sets = sieve._SievePass(N), []
            while len(sets) < 2:
                words = []
                for _ in range(k_threshold(N)):
                    word = BraidWord.identity()
                    for _ in range(rng.randint(0, 4)):
                        word = word * rng.choice(factors)
                    words.append(word)
                try:
                    if sieve_pass.nonunit(words) is not None:
                        sets.append(words)
                except ValueError:  # two words share a projection
                    continue
            slow = {}
            for words in sets:
                for b, (vecs, moduli) in sieve_pass.nonunit(words).items():
                    found = reference_triples(sieve_pass, words, b)
                    held = sieve_pass.carried(vecs, moduli, b)
                    assert sieve_pass.triples(held) == found, (N, words)
                    slow[b] = slow[b] & found if b in slow else found
                    degrees.update(tr.min_poly.degree for tr in found)
            usable, _, by_branch = sieve._SievePass(N).sieve(sets)
            assert usable == sets and by_branch == slow, N
            fixed.update(key for known in sieve_pass.keys.values()
                         for key in known.values() if key in sieve._FIXED)
        assert fixed[sieve._ZERO] == fixed[sieve._INFINITY] == 27
        assert degrees == {1, 2, 3, 4, 5, 6}


class TestOrbitKeys:
    """The pass's keys, one loop per (p, k) with no inverse over an
    extension field, against reference_orbit_key, which keys one vector at
    a time with an inverse of beta."""

    def test_raw_sweep_keys_are_the_reference(self, monkeypatch):
        # every (set, p, k) that the raw sweep N = 7..26 keys: 1,891 of
        # them and 7,181 keys, 562 distinct at factors of degree >= 2, where
        # g = (q - 1) / N is 1 at 186 and at most 104
        keyed = []
        real = sieve._SievePass.orbit_keys

        def recording(self, vectors, p, k):
            keys = real(self, vectors, p, k)
            keyed.append((self, vectors, p, k, keys))
            return keys

        monkeypatch.setattr(sieve._SievePass, "orbit_keys", recording)
        for N in range(7, 27):
            full_sweep((N, N), raw=True)
        extension = {}
        for sieve_pass, vectors, p, k, keys in keyed:
            assert keys == [reference_orbit_key(sieve_pass, v, p, k)
                            for v in vectors], (sieve_pass.N, p, k)
            d = sieve_pass.cyclotomic_factors(p)[k].degree
            if d > 1:
                g = (p ** d - 1) // sieve_pass.N
                extension.update(((sieve_pass.N, v, p, k), g) for v in vectors)
        assert (len(keyed), sum(len(vs) for _, vs, *_ in keyed)) == (1891, 7181)
        assert len(extension) == 562
        assert Counter(g == 1 for g in extension.values())[True] == 186
        assert max(extension.values()) == 104

    def test_random_vectors_keys_are_the_reference(self):
        # the vectors of seeded random words on every branch of each N of
        # the sweep, keyed at every factor of phi_N(-t) mod p for the
        # primes p < 30 not dividing N: factors of degree 1 to 22, with
        # g = (q - 1) / N both 1 and larger, at degree 1 and above
        rng = random.Random(38)
        letters = parse_word_set(["T s2 s1^-1", "T s2^-1 s1", "s1", "s2^-1",
                                  "T"])
        kinds, degrees = Counter(), set()
        for N in range(7, 27):
            sieve_pass, words = sieve._SievePass(N), []
            for _ in range(3):
                word = BraidWord.identity()
                for _ in range(rng.randint(1, 4)):
                    word = word * rng.choice(letters)
                words.append(word)
            vectors = list(dict.fromkeys(
                v for b in sieve_pass.branches
                for vs in sieve_pass.vectors(words, b).values() for v in vs))
            for p in sympy.primerange(2, 30):
                if N % p == 0:
                    continue
                for k, m in enumerate(sieve_pass.cyclotomic_factors(p)):
                    keys = sieve_pass.orbit_keys(vectors, p, k)
                    assert keys == [reference_orbit_key(sieve_pass, v, p, k)
                                    for v in vectors], (N, p, m)
                    g = (p ** m.degree - 1) // N
                    kinds[min(m.degree, 2), g == 1] += len(vectors)
                    degrees.add(m.degree)
        assert set(kinds) == {(1, True), (1, False), (2, True), (2, False)}
        assert degrees == {1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 16, 18, 20, 22}

    @pytest.mark.parametrize("N, p, g", [(8, 3, 1), (8, 5, 3), (7, 2, 1),
                                         (13, 3, 2)],
                             ids=["quadratic-g1", "quadratic-g3", "cubic-g1",
                                  "cubic-g2"])
    def test_points_at_zero_infinity_and_undefined(self, N, p, g):
        # at the first factor m of degree 2 or 3, vectors at 0, infinity
        # and no point (see TestOrbitRule) and at five other points: the
        # keys are the reference's, and the other points share one key
        # exactly when g = (q - 1) / N is 1, where mu_N is all of F_q^*
        sieve_pass = sieve._SievePass(N)
        m = sieve_pass.cyclotomic_factors(p)[0]
        assert m.degree in (2, 3) and (p ** m.degree - 1) // N == g
        one, t = IntPoly.one(), IntPoly.t()
        vectors = [sieve._Vector(v) for v in (
            (one, one + t - m), (one, m), (m, m),
            (one, one), (one - t, one), (t * t, one), (one, t), (one, t * t))]
        keys = sieve_pass.orbit_keys(vectors, p, 0)
        assert keys == [reference_orbit_key(sieve_pass, v, p, 0)
                        for v in vectors]
        assert keys[:3] == [sieve._ZERO, sieve._INFINITY, sieve._UNDEFINED]
        assert not sieve._FIXED & set(keys[3:])
        assert (len(set(keys[3:])) == 1) == (g == 1)


class TestSweep:
    def test_sweep_eleven_to_thirteen(self):
        results = full_sweep((11, 13))
        assert results[11]["survivors"] == []
        assert results[13]["survivors"] == []
        got = {(s["p"], s["minPoly"]) for s in results[12]["survivors"]}
        assert got == {(5, "t^2+2t+4"), (5, "t^2+3t+4"),
                       (13, "t+2"), (13, "t+7"), (13, "t+6"), (13, "t+11")}

    def test_sweep_rejects_bad_range(self):
        with pytest.raises(ValueError):
            full_sweep((6, 7))

    def test_sweep_pairs_flattening(self):
        results = full_sweep((13, 14))
        assert sweep_pairs(results) == []

    def test_uninformative_first_set_is_rejected(self):
        results = full_sweep((9, 9), informative_sets={
            9: [["e"], ["e", "T s2^-1 s1"]]})
        assert results[9]["sets"] == [["e", "T s2^-1 s1"]]
        assert results[9]["rejected"] == [["e"]]
        got = {(s["p"], s["minPoly"]) for s in results[9]["survivors"]}
        assert got == {(row.p, f) for row in GOLDEN_ROWS if row.N == 9
                       for f in row.factors}

    def test_one_resultant_per_determinant_of_n(self, monkeypatch):
        # only the first informative set of an N reads its pairs' tuples,
        # each unordered pair {u, w} of its vectors once on all branches:
        # the raw sweep of N = 7..10 makes 509 reads of 347 pairs, where
        # reading every set's pairs took 1,166 reads of 606, and reading
        # both orientations 2,126.  One evaluation per pair serves all its
        # l and both orientations, and every read returns its one tuple:
        # 347 resultant calls, where one per ordered pair took 1,132
        reads, calls = [], []
        real, real_of = sieve.resultant, sieve._SievePass.resultants_of

        def counting_resultant(u, w, N, **kwargs):
            calls.append((u, w, N))
            return real(u, w, N, **kwargs)

        def recording_resultants_of(self, u, w):
            values = real_of(self, u, w)
            reads.append((self.N, frozenset((u, w)), values))
            return values

        monkeypatch.setattr(sieve, "resultant", counting_resultant)
        monkeypatch.setattr(sieve._SievePass, "resultants_of",
                            recording_resultants_of)
        full_sweep((7, 10), raw=True)
        held = {}
        for N, pair, values in reads:
            assert held.setdefault((N, pair), values) is values, (N, pair)
        assert len(reads) == 509
        assert len({(N, frozenset((u, w))) for u, w, N in calls}) \
            == len(calls) == len(held) == 347

    @pytest.mark.parametrize("N", [9, 13])
    def test_a_reversed_set_reads_the_held_tuples(self, monkeypatch, N):
        # the sweep's sets list e first, so it meets no pair in both
        # orders; a set read after its reverse asks for every pair the
        # other way round, and gets the tuples held for the first order,
        # with no new resultant and the same nonunit values
        calls = count_calls(monkeypatch, sieve, "resultant")
        words = parse_word_set(["e", "T s2^-1 s1"])
        sieve_pass = sieve._SievePass(N)
        first = sieve_pass.nonunit(words)
        evaluated, held = len(calls), dict(sieve_pass.resultants)
        second = sieve_pass.nonunit(words[::-1])
        assert evaluated > 0 and len(calls) == evaluated
        assert sieve_pass.resultants == held
        assert {b: moduli for b, (_, moduli) in second.items()} \
            == {b: moduli for b, (_, moduli) in first.items()}
        for u, w in held:
            assert sieve_pass.resultants_of(w, u) is held[u, w]

    def test_no_gcd_and_one_split_per_prime_of_n(self, monkeypatch):
        # every informative set keys its vectors' points at the factors of
        # phi_N(-t) mod p, and the factors are listed once per N and prime:
        # read off a root of unity when ord_N(p) = 1, split otherwise.  The
        # raw sweep takes no gcd outside those splits, makes 19 splits and
        # 6,413 orbit keys, one per (vector, p, factor) it reads 7,181
        # times, and holds each: 5,851 at a linear factor by evaluation and
        # 562 at a longer one by arithmetic modulo it.  A divisibility test
        # per determinant took 15,754 evaluations and 892 divisions, and a
        # gcd of each determinant 1,277 gcds, 463 splits and 506 divisions
        gcds, splits, splitting, keys, passes = [], [], [], [], set()
        real_gcd, real_factor = exactalg._fp_gcd, exactalg.fp_factor
        real_keys = sieve._SievePass.orbit_keys

        def counting_gcd(a, b, p):
            if not splitting:
                gcds.append(p)
            return real_gcd(a, b, p)

        def counting_factor(g, d, p):
            splits.append((N, tuple(g), p))
            splitting.append(p)
            try:
                return real_factor(g, d, p)
            finally:
                splitting.pop()

        def counting_keys(self, vectors, p, k):
            degree = len(self.cyclotomic_factors(p)[k].coeffs) - 1
            keys.extend((self.N, v, p, k, degree) for v in vectors)
            passes.add(self)
            return real_keys(self, vectors, p, k)

        monkeypatch.setattr(exactalg, "_fp_gcd", counting_gcd)
        monkeypatch.setattr(exactalg, "fp_factor", counting_factor)
        monkeypatch.setattr(sieve._SievePass, "orbit_keys", counting_keys)
        for N in range(7, 27):
            full_sweep((N, N), raw=True)
        assert gcds == []
        assert len(splits) == len(set(splits)) == 19
        degrees = Counter(key[4] > 1 for key in set(keys))
        assert (len(keys), degrees[False], degrees[True]) == (7181, 5851, 562)
        assert sum(len(known) for sieve_pass in passes
                   for known in sieve_pass.keys.values()) == 6413

    def test_later_sets_key_only_the_earlier_factors(self, monkeypatch):
        # a later set keys its points only at the (p, k) that the sets
        # before it held, and keeps a subset of their types: 715 of the raw
        # sweep's 1,891 (set, p, m), where the first sets key every factor
        # of each prime of their nonunit resultants
        keyed, earlier = [], []
        real_carried = sieve._SievePass.carried
        real_types = sieve._SievePass.carried_types

        def recording_carried(self, vecs, moduli, branch, before=None):
            earlier.append(before)
            kept = real_carried(self, vecs, moduli, branch, before)
            if before is not None:
                assert all(tags <= before[key] for key, tags in kept.items())
            return kept

        def recording_types(self, vecs, p, k):
            before = earlier[-1]
            if before is not None:
                assert (p, k) in before
            keyed.append(before is not None)
            return real_types(self, vecs, p, k)

        monkeypatch.setattr(sieve._SievePass, "carried", recording_carried)
        monkeypatch.setattr(sieve._SievePass, "carried_types", recording_types)
        for N in range(7, 27):
            full_sweep((N, N), raw=True)
        assert (sum(keyed), len(keyed)) == (715, 1891)

    def test_resultants_match_the_reference_on_every_key(self, monkeypatch):
        # every tuple the raw sweep of N = 7..10 holds, one per unordered
        # pair in the orientation (u, w) it was evaluated in, against the
        # subresultant PRS of each D_l(u, w); and (w, u) read from it at
        # -l mod N, against the PRS of each D_l(w, u): 347 tuples of 2,744
        # values, where evaluating every set's pairs held 606 of 4,973
        passes = []
        real_init = sieve._SievePass.__init__

        def recording_init(self, N):
            real_init(self, N)
            passes.append(self)

        monkeypatch.setattr(sieve._SievePass, "__init__", recording_init)
        full_sweep((7, 10), raw=True)
        held = [(sieve_pass, u, w, values) for sieve_pass in passes
                for (u, w), values in sieve_pass.resultants.items()]
        assert len(held) == 347 and sum(len(v) for *_, v in held) == 2744
        for sieve_pass, u, w, values in held:
            N = sieve_pass.N
            assert values == reference_resultants(u, w, N), (u, w, N)
            assert ordered_resultants(sieve_pass, w, u) \
                == reference_resultants(w, u, N), (w, u, N)

    @pytest.mark.parametrize("N", [7, 9])
    def test_uninformative_config_falls_back_to_the_built_in_sets(self, N):
        # {e} is informative for no N in 7..10: the sweep sieves the
        # built-in sets of that N instead, and finds its golden survivors
        results = full_sweep((N, N), informative_sets={N: [["e"]]})
        assert results[N]["rejected"] == [["e"]]
        assert results[N]["sets"] == [[str(w) for w in ws]
                                      for ws in candidate_sets_for(N)]
        got = {(s["p"], s["minPoly"]) for s in results[N]["survivors"]}
        assert got == {(row.p, f) for row in GOLDEN_ROWS if row.N == N
                       for f in row.factors}

    @pytest.mark.parametrize("configured", [None, {9: [["e"]]}],
                             ids=["built-in", "configured"])
    def test_no_informative_set_is_an_input_error(self, monkeypatch,
                                                  configured):
        # when the built-in sets of an N fail too, the sweep gives up
        monkeypatch.setitem(sieve.DEFAULT_INFORMATIVE_SETS, 9, [["e"]])
        with pytest.raises(ValueError, match="no informative set found "
                                             "for N=9"):
            full_sweep((9, 9), informative_sets=configured)

    def test_one_burau_matrix_per_word_of_n(self, monkeypatch):
        # a pass builds each word's matrix once for all its word sets,
        # branches and types: 66 matrices, where building each set's
        # vectors afresh on each branch took 171
        matrices = count_calls(monkeypatch, sieve, "to_burau")
        results = full_sweep((7, 26))
        assert all(not r["rejected"] for r in results.values())
        assert len(matrices) == sum(
            len({w for ws in candidate_sets_for(N) for w in ws})
            for N in results) == 66

    def test_sweep_barely_hashes_polynomials(self, monkeypatch):
        # a pass interns its vectors and keys every memo by them, so the
        # sweep hashes a polynomial only to intern a vector, to look up a
        # word's vector by its a_T or to build a final triple: 9,297 times,
        # where triples held between sets took 11,129, a scan over every
        # nonunit resultant 15,852 and memos keyed by IntPoly 211,531
        hashes = count_calls(monkeypatch, IntPoly, "__hash__")
        full_sweep((7, 26))
        assert len(hashes) <= 21153

    def test_norms_once_per_vector(self, monkeypatch):
        # resultant's bound reads the 1-norms of each vector's two entries
        # from the pass, which takes them once per vector: 120 vectors for
        # the raw sweep's 522 resultants, where every set's 1,131 took
        # 287, and each call taking the norms of both its vectors 2,262
        norms = count_calls(monkeypatch, sieve, "vector_norms")
        calls = count_calls(monkeypatch, sieve, "resultant")
        full_sweep((7, 26), raw=True)
        vectors = {id(v): v for u, w, _ in calls for v in (u, w)}
        assert len(calls) == 522
        assert len(norms) == 120 and {id(v) for v, in norms} == set(vectors)

    def test_sweep_resultants_need_few_primes(self, monkeypatch):
        # every |Res| of the sweep lies within resultant's bound B, and the
        # product of primes that exceeds 2B is one prime below 2^62 for
        # 521 of the 522 calls and two for 1: 523 CRT passes.  Every set's
        # 1,131 calls took 1,215 passes, 1,047 with one prime and 84 with
        # two, and B = (|u0||w1| + (N-1)|u1||w1| + |u1||w0|)^phi(N) 1,440
        passes = []
        real = sieve.resultant

        def checking_resultant(u, w, N, **kwargs):
            values = real(u, w, N, **kwargs)
            bound = _resultant_bound(u, w, N)
            assert max(values) <= bound, (u, w, N)
            modulus, index = 1, 0
            while modulus <= 2 * bound:
                modulus *= unity_prime(N, index)[0]
                index += 1
            passes.append(index)
            return values

        monkeypatch.setattr(sieve, "resultant", checking_resultant)
        full_sweep((7, 26), raw=True)
        assert Counter(passes) == {1: 521, 2: 1}

    def test_flatness_identity_is_checked(self, monkeypatch):
        real = sieve.orbit_signatures
        orbits = []

        def genus_off_by_one(root, *args, **kwargs):
            out = [(sig, g + 1, tags) for sig, g, tags in real(root, *args, **kwargs)]
            orbits.append((root, out[0][2]))
            return out

        monkeypatch.setattr(sieve, "orbit_signatures", genus_off_by_one)
        with pytest.raises(AssertionError, match="flatness") as err:
            full_sweep((13, 13))
        # the first orbit of the first pair breaks it, and is named
        [(root, tags)] = orbits
        assert str(err.value).startswith(
            f"p={root.p} m={root.min_poly} types {','.join(tags)} in bu3: ")

    def test_informative_set_override(self):
        results = full_sweep((13, 13), informative_sets={
            13: [["e"], ["T s2^-1 s1"]]})
        assert results[13]["survivors"] == []
        assert len(results[13]["sets"]) == 2


@pytest.fixture(scope="module")
def filtered_sweep():
    """The orbit_signatures calls of full_sweep((7, 26)), each with its
    arguments and result, and the sweep's _closed_form and _LineWalk
    calls."""
    real = sieve.orbit_signatures
    recorded = []

    def recording(root, tags, *args):
        out = real(root, tags, *args)
        recorded.append((root, list(tags), args, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        closed = count_calls(mp, skeleton, "_closed_form")
        walks = count_calls(mp, skeleton, "_LineWalk")
        mp.setattr(sieve, "orbit_signatures", recording)
        full_sweep((7, 26))
    return recorded, closed, walks


class TestGenusFilterSharing:
    """The genus filter reads one closed form per (N, p) of the sweep and
    shares it among the pair's roots."""

    def test_one_closed_form_per_field_size(self, filtered_sweep):
        # 252 closed roots in 65 pairs (N, p); the 5 other roots still
        # make their 7 walks
        recorded, closed, walks = filtered_sweep
        assert len(recorded) == 257
        assert len(closed) == 65 and len(walks) == 7
        assert len({(spec.root.N, spec.root.p) for spec, _ in closed}) == 65
        # one memo for the whole call of the filter per N
        memos = {id(args[-1]) for _, _, args, _ in recorded}
        assert len(memos) == 20

    def test_shared_value_is_each_roots_own_closed_form(self, filtered_sweep):
        # each closed root, rebuilt on a field of its own, gets the
        # signature and genus the filter read for its class
        recorded, _, _ = filtered_sweep
        shared = 0
        for root, tags, args, out in recorded:
            if not skeleton._trace_generates(root):
                continue
            own = root_spec(root.p, root.min_poly)
            spec = skeleton.UniversalGroupSpec(own, tags[0], "bu3")
            assert out == [(*skeleton._closed_form(spec, 10 ** 6), tags)], \
                str(spec)
            shared += 1
        assert shared == 252
