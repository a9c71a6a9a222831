"""The resultant sieve: determinants, informativeness, candidate extraction."""

from collections import Counter
from itertools import product

import pytest
import sympy
from covector_oracle import FieldElem, Presentation, element_order
from helpers import count_calls, determinant_D, reference_resultants, \
    reference_triples, resultant_with_cyclotomic, sieve_determinant, \
    sweep_pairs

from burausieve import exactalg, sieve
from burausieve.burau import BraidWord, BurauMatrix, to_burau
from burausieve.exactalg import IntPoly, _fp_gcd, _fp_mod, _resultant_bound, \
    cyclotomic, cyclotomic_factors, fp_factor, order_mod, parse_poly, \
    substitute_neg, unity_prime
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
from burausieve.typesys import root_spec

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

    def test_default_sets_are_informative(self):
        for N in (7, 8, 9, 10):
            for texts in DEFAULT_INFORMATIVE_SETS[N]:
                words = parse_word_set(texts)
                for b in branches_for(N):
                    assert is_informative(words, N, b), (N, texts, b.char_class)


@pytest.fixture(scope="module")
def reference_sets():
    """(N, i, branch) -> reference_triples of the i-th built-in word set of
    N on that branch, for every N of the sweep and every informative set."""
    out = {}
    for N in range(7, 27):
        sieve_pass = sieve._SievePass(N)
        for i, words in enumerate(candidate_sets_for(N)):
            for b, found in (sieve_pass.nonunit(words) or {}).items():
                out[N, i, b] = reference_triples(N, found, b)
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
                    if not _fp_mod(g, f.coeffs, p)}

        divisible = set()
        for N in (7, 10, 25):
            sieve_pass = sieve._SievePass(N)
            cyc = substitute_neg(cyclotomic(N))
            factors = set()
            for words in candidate_sets_for(N):
                for branch, found in (sieve_pass.nonunit(words) or {}).items():
                    for _, u, w, l, r in found:
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
        # the pass tests each factor of phi_N(-t) mod p for division of
        # (-t)^l X + Y = (1 + t) D_l; the slow path builds D_l and splits
        # its gcd with phi_N(-t) mod p, on every informative set of the sweep
        for N in range(7, 27):
            sieve_pass = sieve._SievePass(N)
            for i, words in enumerate(candidate_sets_for(N)):
                for branch, found in (sieve_pass.nonunit(words) or {}).items():
                    assert sieve_pass.carried(found, branch) \
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

    def test_linear_factors_by_evaluation_match_division(self, monkeypatch,
                                                         reference_sets):
        # over the raw sweep, every linear m = t - a that carried tests,
        # on the first informative set and the later ones, gets the same
        # verdict by evaluation as by dividing D_l, built by the slow path,
        # mod p: 15,754 tests, where the later sets alone took 7,741.  The
        # first set's triples are reference_triples', and a later set's are
        # the earlier ones & its reference_triples
        tested = []
        real_carries = sieve._SievePass.carries

        def checking_carries(self, m, u, w, l, p):
            verdict = real_carries(self, m, u, w, l, p)
            if m.degree == 1:
                d = sieve_determinant(u, w, l).reduce_mod(p)
                assert verdict == (not _fp_mod(d, m.coeffs, p)), (u, w, l, p, m)
                tested.append(verdict)
            return verdict

        monkeypatch.setattr(sieve._SievePass, "carries", checking_carries)
        for N in range(7, 27):
            sieve_pass, earlier = sieve._SievePass(N), {}
            for i, words in enumerate(candidate_sets_for(N)):
                for b, found in (sieve_pass.nonunit(words) or {}).items():
                    want = reference_sets[N, i, b]
                    if b in earlier:
                        want = want & earlier[b]
                    earlier[b] = sieve_pass.carried(found, b, earlier.get(b))
                    assert earlier[b] == want, (N, b)
        assert len(tested) == 15754 and any(tested) and not all(tested)

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
        # every word set and branch of an N shares each (u, w, l): the raw
        # sweep of N = 7..10 reads one resultant per distinct (u, w, l),
        # 9,190, where a pass per (set, branch) took 16,794; one evaluation
        # per (u, w) serves all its l, and also (w, u): 606 resultant calls
        # on as many unordered pairs, where one per ordered pair took 1,132
        calls, keys = [], set()
        real, real_of = sieve.resultant, sieve._SievePass.resultants_of

        def counting_resultant(u, w, N, **kwargs):
            calls.append((u, w, N))
            return real(u, w, N, **kwargs)

        class Reads(tuple):
            def __getitem__(self, l):
                keys.add(self.key + (l,))
                return tuple.__getitem__(self, l)

        def recording_resultants_of(self, u, w):
            values = Reads(real_of(self, u, w))
            values.key = (self.N, u, w)
            return values

        monkeypatch.setattr(sieve, "resultant", counting_resultant)
        monkeypatch.setattr(sieve._SievePass, "resultants_of",
                            recording_resultants_of)
        full_sweep((7, 10), raw=True)
        assert len(keys) == 9190
        assert len({(N, u, w) for N, u, w, _ in keys}) == 1132
        assert len({(frozenset((u, w)), N) for u, w, N in calls}) \
            == len(calls) == 606

    def test_no_gcd_and_one_split_per_prime_of_n(self, monkeypatch):
        # every informative set tests the factors of phi_N(-t) mod p for
        # division, a linear one by evaluation and a longer one by division,
        # and the factors are listed once per N and prime: read off a root
        # of unity when ord_N(p) = 1, split otherwise.  The raw sweep takes
        # no gcd outside those splits, makes 19 splits and 892 divisions,
        # where a gcd of each determinant with phi_N(-t) mod p took 1,277
        # gcds, 463 splits and 506 divisions
        gcds, splits, divisions, splitting = [], [], [], []
        real_gcd, real_factor = exactalg._fp_gcd, exactalg.fp_factor
        real_mod = sieve._fp_mod

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

        def counting_mod(a, b, p):
            divisions.append(p)
            return real_mod(a, b, p)

        monkeypatch.setattr(exactalg, "_fp_gcd", counting_gcd)
        monkeypatch.setattr(exactalg, "fp_factor", counting_factor)
        monkeypatch.setattr(sieve, "_fp_mod", counting_mod)
        for N in range(7, 27):
            full_sweep((N, N), raw=True)
        assert gcds == []
        assert len(splits) == len(set(splits)) == 19
        assert len(divisions) == 892

    def test_kept_stops_once_every_triple_is_shown(self, monkeypatch):
        # a later set's carried scans its nonunit resultants only until
        # every earlier triple is shown: 14,135 of the 20,391 entries over
        # the raw sweep, where a scan of all of them tested nothing more
        scanned, entries = [], []
        real_carried = sieve._SievePass.carried

        class Scanned(list):
            def __iter__(self):
                for entry in list.__iter__(self):
                    scanned.append(entry)
                    yield entry

        def counting_carried(self, found, branch, earlier=None):
            if earlier is None:
                return real_carried(self, found, branch)
            entries.append(len(found))
            return real_carried(self, Scanned(found), branch, earlier)

        monkeypatch.setattr(sieve._SievePass, "carried", counting_carried)
        for N in range(7, 27):
            full_sweep((N, N), raw=True)
        assert (len(scanned), sum(entries)) == (14135, 20391)

    def test_resultants_match_the_reference_on_every_key(self, monkeypatch):
        # every (u, w) the raw sweep of N = 7..10 reads, at every l, against
        # the subresultant PRS of the determinant D_l, whether evaluated or
        # served from its swap (w, u)
        groups = {}
        real_of = sieve._SievePass.resultants_of

        def recording_resultants_of(self, u, w):
            values = real_of(self, u, w)
            groups[u, w, self.N] = values
            return values

        monkeypatch.setattr(sieve._SievePass, "resultants_of",
                            recording_resultants_of)
        full_sweep((7, 10), raw=True)
        assert len(groups) == 1132
        for (u, w, N), values in groups.items():
            assert values == reference_resultants(u, w, N), (u, w, N)

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
        # word's vector by its a_T or to hold a triple: 15,852 times,
        # where memos keyed by IntPoly took 211,531
        hashes = count_calls(monkeypatch, IntPoly, "__hash__")
        full_sweep((7, 26))
        assert len(hashes) <= 21153

    def test_sweep_resultants_need_few_primes(self, monkeypatch):
        # every |Res| of the sweep lies within resultant's bound B, and the
        # product of primes that exceeds 2B is one prime below 2^62 for
        # 1,047 of the 1,131 calls and two for 84: 1,215 CRT passes, where
        # B = (|u0||w1| + (N-1)|u1||w1| + |u1||w0|)^phi(N) took 1,440
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
        assert Counter(passes) == {1: 1047, 2: 84}

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
