"""Exact arithmetic: polynomials, resultants, cyclotomics, finite fields."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import mpmath
import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp
from covector_oracle import FieldElem, Presentation, element_order, \
    evaluate, field_elements
from fp_reference import fp_add, fp_divmod, fp_mul, fp_trim
from helpers import reference_fp_factor, reference_fp_gcd, \
    reference_resultants, resultant, sieve_determinant

from burausieve import exactalg
from burausieve.exactalg import (
    IntPoly,
    cyclotomic,
    cyclotomic_factors,
    fp_factor,
    parse_poly,
    poly_text,
    substitute_neg,
    unity_prime,
)
from burausieve.golden import GOLDEN_ROWS
from burausieve.typesys import root_spec


def field(p, modulus):
    """The quotient_ring of F_p[t]/(modulus), proved a field by
    root_spec."""
    return root_spec(p, modulus).ring


def unit_plan(ring):
    """The order_plan of q - 1 that unit_order reads in ring."""
    q = ring.order
    return exactalg.order_plan(q - 1, exactalg.prime_factors(q - 1))


# -- independent resultant oracle: Sylvester matrix determinant (Bareiss) ----


def sylvester_resultant(f, g):
    fc, gc = list(f.coeffs), list(g.coeffs)
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0 and n == 0:
        return 1
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            for c2 in range(col, size):
                a[r][c2] -= factor * a[col][c2]
    assert det.denominator == 1
    return int(det)


class TestIntPoly:
    def test_canonical_zero(self):
        assert IntPoly((0, 0)) == IntPoly.zero()
        assert IntPoly.zero().is_zero
        assert IntPoly.zero().degree is None

    def test_shift_folding(self):
        p = IntPoly((0, 1, 1))  # t^2 + t
        assert p.shift == 1 and p.coeffs == (1, 1)
        assert str(p) == "t^2+t"

    def test_arithmetic(self):
        t = IntPoly.t()
        assert (t + IntPoly.one()) * (t - IntPoly.one()) == parse_poly("t^2-1")
        assert (t ** 3).shift == 3
        assert -(t - IntPoly.one()) == parse_poly("1-t")

    def test_laurent_negative_shift(self):
        p = IntPoly((1, 1), -1)  # t^-1 + 1
        assert str(p) == "1+t^-1"
        assert p * IntPoly.t() == parse_poly("t+1")

    @pytest.mark.parametrize("text", [
        "t^3+t+1", "t-1", "0", "5", "-t^5+3t^2-7", "1+t^-1", "t^-2",
        "2t^4-t", "t^2+2t+2",
    ])
    def test_text_round_trip(self, text):
        assert str(parse_poly(text)) == text

    def test_round_trip_on_golden_factors_and_cyclotomics(self):
        for text in (f for row in GOLDEN_ROWS for f in row.factors):
            assert str(parse_poly(text)) == text
        for N in range(1, 61):
            f = cyclotomic(N)
            assert parse_poly(poly_text(f.coeffs, f.shift)) == f

    def test_evaluate_with_negative_shift(self):
        ring = field(5, "t+2")  # xi = 3
        p = IntPoly((1, 1), -1)  # t^-1 + 1
        xi = ring.gen
        assert xi == 3
        assert ring.evaluate(p) == ring.mul(ring.pow(xi, -1), ring.add(xi, 1))
        ref_xi = FieldElem.xi(ring)
        assert ring.evaluate(p) == (ref_xi.inverse() * (ref_xi + 1)).element()


class TestCyclotomic:
    def test_order_one(self):
        assert str(cyclotomic(1)) == "t-1"

    def test_order_seven(self):
        assert str(cyclotomic(7)) == "t^6+t^5+t^4+t^3+t^2+t+1"

    def test_order_twelve_against_divisor_oracle(self):
        # t^N - 1 is the product of the cyclotomics of the divisors of N
        assert str(cyclotomic(12)) == "t^4-t^2+1"
        for N in range(1, 301):
            prod = IntPoly.one()
            for d in range(1, N + 1):
                if N % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == IntPoly([-1] + [0] * (N - 1) + [1]), N

    def test_degree_is_totient(self):
        totient = {7: 6, 8: 4, 9: 6, 15: 8, 26: 12}
        for n, phi in totient.items():
            assert cyclotomic(n).degree == phi

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestSubstituteNeg:
    def test_linear(self):
        assert substitute_neg(parse_poly("t+1")) == parse_poly("t-1")

    def test_seventh(self):
        assert substitute_neg(cyclotomic(7)) == parse_poly("t^6-t^5+t^4-t^3+t^2-t+1")

    def test_even_fixed(self):
        p = parse_poly("t^4-t^2+1")
        assert substitute_neg(p) == p


class TestResultant:
    def test_evaluation_example(self):
        assert resultant(parse_poly("t-2"), parse_poly("t^2+1")) == 5

    def test_common_factor(self):
        f = parse_poly("t^3+t+1")
        assert resultant(f, f) == 0

    def test_phi7_at_one(self):
        assert resultant(substitute_neg(cyclotomic(7)), parse_poly("t-1")) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant(IntPoly.zero(), parse_poly("t"))

    def test_against_sylvester_oracle(self):
        rng = random.Random(11)
        for _ in range(400):
            f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 7))])
            g = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 7))])
            if f.is_zero or g.is_zero:
                continue
            assert resultant(f, g) == sylvester_resultant(f, g)

    def test_swap_sign(self):
        rng = random.Random(12)
        for _ in range(200):
            f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            g = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
            if f.is_zero or g.is_zero:
                continue
            df = len(f.coeffs) - 1
            dg = len(g.coeffs) - 1
            assert resultant(f, g) == (-1) ** (df * dg) * resultant(g, f)

    def test_shift_clearing_is_harmless_against_cyclotomics(self):
        # phi_N(-t) has constant term 1, so a factor of t only flips signs
        for N in (7, 8, 9, 12):
            cyc = substitute_neg(cyclotomic(N))
            for text in ("t^2-3t+1", "2t^3+t+5", "t-1"):
                f = parse_poly(text)
                assert abs(resultant(f, cyc)) == abs(resultant(f * IntPoly.t(), cyc))


def totient(N):
    return sum(1 for k in range(1, N) if gcd(k, N) == 1)


def random_laurent(rng, span, low=-3, high=3):
    return IntPoly([rng.randint(-span, span) for _ in range(rng.randint(0, 5))],
                   rng.randint(low, high))


class TestUnityPrime:
    """The primes P = 1 (mod N) and the zeros of phi_N(-t) mod P that the
    sieve's resultants are evaluated at."""

    def test_primes_and_roots_for_every_sweep_n(self):
        for N in range(7, 27):
            cyc = substitute_neg(cyclotomic(N))
            found = []
            for index in range(2):
                P, powers = unity_prime(N, index)
                assert sympy.isprime(P) and P % N == 1 and P < 2 ** 62, (N, P)
                roots = {-powers[k] % P for k in range(1, N) if gcd(k, N) == 1}
                assert len(roots) == totient(N) == cyc.degree
                for x in roots:
                    value = 0
                    for c in reversed(cyc.coeffs):
                        value = (value * x + c) % P
                    assert value == 0, (N, P, x)
                found.append(P)
            assert found[0] > found[1]

    def test_cached_per_n(self):
        assert unity_prime(9, 1) is unity_prime(9, 1)

    def test_root_of_unity_has_exact_order(self):
        # every m <= 60 and every prime p = 1 (mod m) below 2,000, m = 1
        # and p = 2 included
        pairs = 0
        for m in range(1, 61):
            for p in sympy.primerange(2, 2000):
                if p % m == 1 % m:
                    z = exactalg._root_of_unity(m, p)
                    assert sympy.n_order(z, p) == m, (m, p, z)
                    pairs += 1
        assert exactalg._root_of_unity(1, 2) == 1
        assert pairs > 2000

    def test_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            unity_prime(1, 0)


def primes_by_sieve(limit):
    """Whether each n < limit is prime, by Eratosthenes."""
    prime = [False, False] + [True] * (limit - 2)
    for n in range(2, math.isqrt(limit - 1) + 1):
        if prime[n]:
            prime[n * n::n] = [False] * len(prime[n * n::n])
    return prime


class TestNumberTheory:
    """is_prime, prime_factors and order_mod, against trial division and
    against sympy as an independent reference."""

    def test_prime_factors_against_sympy(self):
        rng = random.Random(62)
        numbers = [rng.getrandbits(62) for _ in range(100)]
        # products of two ~31-bit primes leave Pollard-Brent the most work
        numbers += [sympy.nextprime(rng.getrandbits(31) | 1 << 30)
                    * sympy.nextprime(rng.getrandbits(31) | 1 << 30)
                    for _ in range(4)]
        for n in numbers + [1, 2, 1000, 997 ** 3, 1009 ** 2 * 2]:
            factors = exactalg.prime_factors(n)
            assert factors == sympy.primefactors(n), n
            rest = n
            for q in factors:
                while rest % q == 0:
                    rest //= q
            assert rest == 1, n

    def test_prime_factors_rejects_below_one(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                exactalg.prime_factors(n)

    def test_is_prime_against_trial_division(self):
        prime = primes_by_sieve(10 ** 5)
        assert [exactalg.is_prime(n) for n in range(10 ** 5)] == prime
        # BPSW, which is_prime applies above 3.3e24, on the odd numbers
        # below 2 * 10^4; among them are the strong Lucas pseudoprimes
        # 5459, 5777, 10877, 16109 and 18971, which base 2 rejects
        lucas = exactalg._strong_lucas_probable_prime
        for n in range(5, 2 * 10 ** 4, 2):
            assert lucas(n) == is_strong_lucas_prp(n), n
            assert (exactalg._strong_probable_prime(n, 2) and lucas(n)) == prime[n], n
        assert not exactalg.is_prime(-7)

    def test_is_prime_against_sympy(self):
        rng = random.Random(13)
        numbers = [rng.getrandbits(62) for _ in range(300)]
        numbers += [unity_prime(N, index)[0] for N in range(7, 27)
                    for index in range(2)]
        # Carmichael numbers, and Chernick's (6k+1)(12k+1)(18k+1)
        numbers += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                    321197185]
        numbers += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                    for k in range(1, 3000)
                    if all(sympy.isprime(a * k + 1) for a in (6, 12, 18))]
        # the least strong pseudoprimes to the first 4, 11 and 12 primes
        numbers += [3215031751, 3825123056546413051, 318665857834031151167461]
        # from the least one to the first 13 primes on, BPSW decides
        numbers += [3317044064679887385961981, 3317044064679887385961983,
                    2 ** 89 - 1, 2 ** 127 - 1, 10 ** 31 + 7]
        numbers += [rng.getrandbits(100) | 1 for _ in range(100)]
        numbers += [sympy.nextprime(rng.getrandbits(60))
                    * sympy.nextprime(rng.getrandbits(60)) for _ in range(10)]
        numbers += [sympy.nextprime(rng.getrandbits(100)) for _ in range(10)]
        for n in numbers:
            assert exactalg.is_prime(n) == sympy.isprime(n), n

    def test_order_mod_against_sympy(self):
        for N in range(2, 60):
            for p in range(1, 100):
                if gcd(p, N) == 1:
                    assert exactalg.order_mod(p, N) == sympy.n_order(p, N), (p, N)
        assert exactalg.order_mod(5, 1) == 1
        assert exactalg.order_mod(2 ** 127 - 1, 9) == sympy.n_order(2 ** 127 - 1, 9)

    def test_has_order_against_order_mod(self):
        # every d up to 24, prime powers and products of several primes
        for N in range(2, 60):
            for p in range(1, 60):
                if gcd(p, N) == 1:
                    order = exactalg.order_mod(p, N)
                    for d in range(1, 25):
                        assert exactalg.has_order(p, d, N) == (d == order), \
                            (p, d, N)

    @pytest.mark.parametrize("p, N", [(3, 9), (6, 4), (0, 5), (5, 0)])
    def test_order_mod_rejects_a_non_unit(self, p, N):
        with pytest.raises(ValueError):
            exactalg.order_mod(p, N)


class TestResultantByEvaluation:
    """exactalg.resultant(u, w, N) against the PRS reference, for
    D_l = det[s1^l u | w]; every sweep key is compared in test_sieve and in
    the acceptance sweep."""

    def test_random_laurent_pairs(self):
        rng = random.Random(13)
        for _ in range(60):
            N = rng.randint(2, 26)
            u = (random_laurent(rng, 6), random_laurent(rng, 6))
            w = (random_laurent(rng, 6), random_laurent(rng, 6))
            assert exactalg.resultant(u, w, N) == reference_resultants(u, w, N)

    def test_every_order_up_to_forty(self):
        # every N, so that each pairing of inverse roots is exercised, N = 2
        # and its one unpaired root included
        rng = random.Random(17)
        for N in range(2, 41):
            for _ in range(3):
                u = (random_laurent(rng, 6), random_laurent(rng, 6))
                w = (random_laurent(rng, 6), random_laurent(rng, 6))
                assert exactalg.resultant(u, w, N) == reference_resultants(u, w, N), \
                    (u, w, N)

    def test_root_pairs_cover_each_root_next_to_its_inverse(self):
        # each root of unity_tables once: paired with its inverse for
        # N >= 3, where no unit k is N - k, and left alone only for N = 2,
        # whose root -1 is its own inverse; the powers are the tables' own
        for N in range(2, 41):
            for index in range(2):
                P, roots = exactalg.unity_tables(N, index)
                pairs, unpaired = exactalg._root_pairs(N, index)
                positions = [i for i, *_ in unpaired]
                for i, j, zeta_powers, inverse_powers in pairs:
                    assert zeta_powers is roots[i][0]
                    assert inverse_powers is roots[j][0]
                    assert zeta_powers[1] * inverse_powers[1] % P == 1, (N, i, j)
                    positions += [i, j]
                for i, zeta_powers in unpaired:
                    assert zeta_powers is roots[i][0]
                    assert zeta_powers[1] ** 2 % P == 1, (N, i)
                assert sorted(positions) == list(range(len(roots))) \
                    and len(roots) == totient(N), (N, index)
                assert len(unpaired) == (N == 2), N
        [(_, powers)] = exactalg._root_pairs(2, 0)[1]
        assert powers[1] == unity_prime(2, 0)[0] - 1  # the root -1

    def test_laurent_shifts_of_u_and_w(self):
        # shifting a whole vector by t^k moves every D_l by t^k, which
        # changes only the resultant's sign
        rng = random.Random(14)
        for N in (7, 12, 25):
            for _ in range(5):
                u = (random_laurent(rng, 4), random_laurent(rng, 4))
                w = (random_laurent(rng, 4), random_laurent(rng, 4))
                base = exactalg.resultant(u, w, N)
                assert base == reference_resultants(u, w, N)
                for su, sw in ((1, 0), (0, -2), (-3, 5)):
                    shifted_u = tuple(f * IntPoly.t(su) for f in u)
                    shifted_w = tuple(f * IntPoly.t(sw) for f in w)
                    assert exactalg.resultant(shifted_u, shifted_w, N) == base

    def test_exact_zero_at_one_l(self):
        # u = (0, 1) and w = (w0, 1) give D_l = b_l - w0; w0 is chosen so
        # that D_3 = phi_N(-t) (t^2 + 1), divisible by phi_N(-t)
        for N in (7, 9, 26):
            cyc = substitute_neg(cyclotomic(N))
            b3 = IntPoly([1, -1, 1])
            u = (IntPoly.zero(), IntPoly.one())
            w = (b3 - cyc * parse_poly("t^2+1"), IntPoly.one())
            assert sieve_determinant(u, w, 3) == cyc * parse_poly("t^2+1")
            values = exactalg.resultant(u, w, N)
            assert values == reference_resultants(u, w, N)
            assert [l for l, r in enumerate(values) if r == 0] == [3]

    def test_swapped_pair_reindexes(self):
        # D_l(u, w) = -(-t)^l D_{-l mod N}(w, u) mod phi_N(-t), so the
        # swapped pair's resultants are the same values at -l mod N; the
        # pair of test_exact_zero_at_one_l keeps its zero, moved to N - 3
        rng = random.Random(15)
        pairs = [((random_laurent(rng, 6), random_laurent(rng, 6)),
                  (random_laurent(rng, 6), random_laurent(rng, 6)), rng.randint(2, 26))
                 for _ in range(40)]
        for N in (7, 9, 26):
            cyc = substitute_neg(cyclotomic(N))
            pairs.append(((IntPoly.zero(), IntPoly.one()),
                          (IntPoly([1, -1, 1]) - cyc * parse_poly("t^2+1"), IntPoly.one()),
                          N))
        for u, w, N in pairs:
            forward, swapped = exactalg.resultant(u, w, N), exactalg.resultant(w, u, N)
            assert all(forward[l] == swapped[-l % N] for l in range(N)), (u, w, N)
            assert swapped == reference_resultants(w, u, N)
        assert [l for l, r in enumerate(swapped) if r == 0] == [N - 3]

    def test_identically_zero_determinant(self):
        u = (parse_poly("t^2-t+3"), parse_poly("2t-1"))
        assert exactalg.resultant(u, u, 10)[0] == 0
        assert exactalg.resultant(u, u, 10) == reference_resultants(u, u, 10)

    def test_bound_needing_three_primes(self):
        # the first two primes, each below 2^62, do not exceed 2B
        N = 26
        u = (parse_poly("1999t^3-1500t+1777"), parse_poly("-1234t^2+999"))
        w = (parse_poly("1501t^4+1733"), parse_poly("1103t-1999"))
        bound = exactalg._resultant_bound(u, w, N)
        assert unity_prime(N, 0)[0] * unity_prime(N, 1)[0] <= 2 * bound
        values = exactalg.resultant(u, w, N)
        assert values == reference_resultants(u, w, N)
        assert max(values).bit_length() > 124
        assert max(values) <= bound

    def test_bound_on_random_pairs(self):
        # B = prod_k (|u0||w1| + |u1||w0| + |u1||w1| / sin(pi k/N)) with
        # 1-norms, rounded up to an integer: it holds every |Res|, and is
        # never looser than (|u0||w1| + (N-1)|u1||w1| + |u1||w0|)^phi(N)
        rng = random.Random(16)
        for _ in range(200):
            N = rng.randint(2, 40)
            u = (random_laurent(rng, 5), random_laurent(rng, 5))
            w = (random_laurent(rng, 5), random_laurent(rng, 5))
            bound = exactalg._resultant_bound(u, w, N)
            assert max(exactalg.resultant(u, w, N)) <= bound, (u, w, N)
            n_u0, n_u1, n_w0, n_w1 = (sum(map(abs, f.coeffs)) for f in (*u, *w))
            assert bound <= 1 + (n_u0 * n_w1 + (N - 1) * n_u1 * n_w1
                                 + n_u1 * n_w0) ** totient(N)

    def test_norms_hook(self):
        # a caller's norms(v) feeds the bound, as vector_norms by default
        rng = random.Random(17)
        seen = []

        def norms(v):
            seen.append(v)
            return exactalg.vector_norms(v)

        for _ in range(20):
            N = rng.randint(2, 30)
            u = (random_laurent(rng, 5), random_laurent(rng, 5))
            w = (random_laurent(rng, 5), random_laurent(rng, 5))
            assert exactalg.resultant(u, w, N, norms=norms) == exactalg.resultant(u, w, N)
            assert seen[-2:] == [u, w]
            assert exactalg.vector_norms(u) == tuple(sum(map(abs, f.coeffs)) for f in u)

    def test_inverse_sines_bound_the_exact_values(self):
        # C_k >= 2^32 / sin(pi k/N), against the sine to 40 digits, and
        # within 2^-38 of it relatively, up to the rounding up
        for N in range(2, 61):
            ks = [k for k in range(1, N) if gcd(k, N) == 1]
            assert len(exactalg._inverse_sines(N)) == len(ks) == totient(N)
            with mpmath.workdps(40):
                for k, c in zip(ks, exactalg._inverse_sines(N)):
                    exact = 2 ** 32 / mpmath.sin(mpmath.pi * k / N)
                    assert exact <= c <= exact * (1 + mpmath.mpf(2) ** -38) + 1, (N, k)


class TestFactorOverPrime:
    """The closed-form factors of phi_N(-t) mod p."""

    def test_split_cost(self):
        # phi(m) log2(p) for N = p^a m when ord_m(p) = 1, phi(m)^2
        # ord_m(p) log2(p) when phi_m(-t) mod p splits at a higher degree,
        # 0 when it is irreducible
        assert exactalg.cyclotomic_split_cost(9, 19) == 6 * 5
        assert exactalg.cyclotomic_split_cost(2, 2) == 1 * 2
        assert exactalg.cyclotomic_split_cost(7, 2) == 6 * 6 * 3 * 2
        assert exactalg.cyclotomic_split_cost(75, 5) == \
            exactalg.cyclotomic_split_cost(3, 5) == 0
        assert exactalg.cyclotomic_split_cost(401, 3) == 0
        with pytest.raises(ValueError):
            exactalg.cyclotomic_split_cost(9, 4)

    def test_phi7_mod_2(self):
        fs = cyclotomic_factors(7, 2)
        assert sorted(str(f) for f in fs) == ["t^3+t+1", "t^3+t^2+1"]

    def test_phi8_mod_3(self):
        fs = cyclotomic_factors(8, 3)
        assert sorted(str(f) for f in fs) == ["t^2+2t+2", "t^2+t+2"]

    def test_phi9_mod_19(self):
        fs = cyclotomic_factors(9, 19)
        assert sorted(str(f) for f in fs) == sorted(
            ["t+4", "t+5", "t+6", "t+9", "t+16", "t+17"])

    def test_repeated_factors_are_listed_with_multiplicity(self):
        # phi_6 = phi_2^2 mod 3, and phi_2(-t) = t-1
        assert [str(x) for x in cyclotomic_factors(6, 3)] == ["t+2", "t+2"]

    def test_against_sympy(self):
        # an independent factorizer, p | N included
        t = sympy.Symbol("t")
        primes = list(sympy.primerange(2, 40)) + [4651]
        for N in range(1, 61):
            cyc = sympy.cyclotomic_poly(N, t).subs(t, -t)
            for p in primes:
                _, found = sympy.Poly(cyc, t, modulus=p).factor_list()
                want = sorted(
                    (tuple(c % p for c in reversed(f.monic().all_coeffs()))
                     for f, mult in found for _ in range(mult)),
                    key=lambda c: (len(c), tuple(reversed(c))))
                got = [f.coeffs for f in cyclotomic_factors(N, p)]
                assert got == want, (N, p)

    def test_against_the_reference_split(self):
        # seeded random products of 3 to 5 distinct monic irreducibles of
        # degree d, none of them t, against the split that divides.  At
        # p = 2 and 3 a draw is often 0 modulo a factor, which the degrees
        # of the two gcds then show.  (2, 1), (2, 2), (2, 3) and (3, 1)
        # have fewer than 3 such irreducibles, and take all of them
        rng = random.Random(44)
        t = sympy.Symbol("t")

        def irreducible(c):
            return sympy.Poly(c[::-1], t, modulus=p).is_irreducible

        for p in (2, 3, 5, 4651):
            for d in range(1, 5):
                if p ** d <= 625:
                    pool = [c + (1,) for c in product(range(p), repeat=d)
                            if c[0] and irreducible(c + (1,))]
                for _ in range(3):
                    k = rng.randint(3, 5)
                    if p ** d <= 625:
                        chosen = rng.sample(pool, min(len(pool), k))
                    else:
                        chosen = set()
                        while len(chosen) < k:
                            c = (rng.randrange(1, p),) + tuple(
                                rng.randrange(p) for _ in range(d - 1)) + (1,)
                            if irreducible(c):
                                chosen.add(c)
                    f = (1,)
                    for c in chosen:
                        f = fp_mul(f, c, p)
                    want = sorted(chosen, key=lambda c: (len(c), c[::-1]))
                    assert fp_factor(f, d, p) == want == \
                        reference_fp_factor(f, d, p), (p, d, f)

    def test_split_rejects_a_degree_off_the_order(self):
        # t^3+t+1 divides phi_7(-t) mod 2, whose factors have degree 3
        with pytest.raises(AssertionError):
            fp_factor((1, 1, 0, 1), 2, 2)


class TestFpRemainders:
    """The remainder-only mod and gcd against division with a quotient."""

    PRIMES = (2, 3, 5, 19, 4651, 2 ** 31 - 1)

    @staticmethod
    def random_poly(rng, p, degree):
        return fp_trim([rng.randrange(p) for _ in range(degree + 1)])

    def test_random_inputs(self):
        rng = random.Random(12)
        for p in self.PRIMES:
            for _ in range(150):
                a = self.random_poly(rng, p, rng.randrange(-1, 30))
                b = self.random_poly(rng, p, rng.randrange(-1, 30))
                assert exactalg._fp_gcd(a, b, p) == reference_fp_gcd(a, b, p), (a, b, p)

    def test_mod_against_division(self):
        rng = random.Random(11)
        for p in self.PRIMES:
            for _ in range(150):
                a = self.random_poly(rng, p, rng.randrange(-1, 30))
                b = self.random_poly(rng, p, rng.randrange(0, 12)) or (1,)
                q, r = fp_divmod(a, b, p)
                reduced = exactalg._fp_reduce(list(a), b, p)
                assert tuple(reduced) == r, (a, b, p)
                assert len(r) < len(b)
                assert fp_add(fp_mul(q, b, p), r, p) == a

    def test_common_factors(self):
        # products with a shared factor, so the gcd is rarely 1
        rng = random.Random(13)
        for p in self.PRIMES:
            for _ in range(60):
                common = self.random_poly(rng, p, rng.randrange(1, 6))
                a, b = (fp_mul(common, self.random_poly(
                    rng, p, rng.randrange(0, 12)), p) for _ in range(2))
                g = exactalg._fp_gcd(a, b, p)
                assert g == reference_fp_gcd(a, b, p), (a, b, p)
                if common:
                    assert not exactalg._fp_reduce(list(g), common, p), \
                        (a, b, p)

    def test_zero_and_equal_inputs(self):
        f = (3, 0, 5, 2)  # 2t^3 + 5t^2 + 3, not monic
        monic = (5, 0, 6, 1)  # 4 f, as 4 = 1/2 mod 7
        assert exactalg._fp_gcd((), (), 7) == ()
        assert exactalg._fp_gcd(f, (), 7) == monic
        assert exactalg._fp_gcd((), f, 7) == monic
        assert exactalg._fp_gcd(f, f, 7) == monic
        assert monic[-1] == 1 and monic != f

    def test_non_monic_inputs(self):
        # (2t + 2)(t + 3) and 5(t + 1)(t + 4) over F_7 share t + 1
        a = fp_mul((2, 2), (3, 1), 7)
        b = fp_mul((5, 5), (4, 1), 7)
        assert exactalg._fp_gcd(a, b, 7) == (1, 1) == reference_fp_gcd(a, b, 7)

    def test_untrimmed_and_list_inputs(self):
        # trailing zero coefficients and lists, as the sieve passes them
        assert exactalg._fp_gcd([1, 2, 1, 0, 0], [1, 1, 0], 5) == (1, 1)

    def test_inverse_modulo_an_irreducible(self):
        # a * (1/a) = 1 in quotient_ring(p, m) for each factor m of
        # phi_N(-t) mod p of degree 1 to 6, which covers every kind of
        # ring, for random nonzero residues a, and against sympy's invert
        rng = random.Random(14)
        t = sympy.Symbol("t")
        for N, p in ((9, 19), (8, 3), (7, 2), (10, 3), (21, 2), (11, 3)):
            for m in cyclotomic_factors(N, p):
                m = m.coeffs
                ring, spec = exactalg.quotient_ring(p, m), Presentation.of(p, m)
                for _ in range(8):
                    a = self.random_poly(rng, p, len(m) - 2) or (1,)
                    x = FieldElem(spec, a).element()
                    inverse = ring.pow(x, -1)
                    assert ring.mul(x, inverse) == ring.one
                    want = sympy.Poly(sympy.invert(
                        sympy.Poly(a[::-1], t, modulus=p).as_expr(),
                        sympy.Poly(m[::-1], t, modulus=p).as_expr(), t, modulus=p),
                        t, modulus=p)
                    assert inverse == FieldElem(
                        spec, [c % p for c in want.all_coeffs()[::-1]]).element()

    def test_determinant_zero_mod_p_keeps_all_of_phi(self):
        # D = 19 t + 38 is 0 mod 19: its gcd is all of phi_9(-t) mod 19,
        # whether D comes as the zero tuple or as its list of zeros
        cyc = substitute_neg(cyclotomic(9)).reduce_mod(19)
        d = [c % 19 for c in (38, 19)]
        assert exactalg._fp_gcd(d, cyc, 19) == cyc
        assert exactalg._fp_gcd(cyc, (), 19) == cyc == reference_fp_gcd(cyc, (), 19)


class TestFieldSpec:
    """The field of a root: root_spec's proof that m is irreducible, the
    arithmetic of its quotient_ring, and the exp and log tables a walk
    reads (exactalg._unit_tables)."""

    def test_rejects_composite_characteristic(self):
        with pytest.raises(ValueError):
            field(6, "t+1")

    def test_rejects_reducible_modulus(self):
        with pytest.raises(ValueError):
            field(2, "t^2+1")  # (t+1)^2

    def test_rejects_modulus_t(self):
        with pytest.raises(ValueError):
            field(5, "t")

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            field(5, "2t+1")

    def test_accepts_exactly_the_irreducible_moduli(self):
        # the proof of irreducibility must accept each monic modulus with
        # a nonzero constant term exactly when sympy finds it irreducible,
        # and refuse the rest as reducible
        t = sympy.Symbol("t")
        checked = 0
        for p, degrees in ((2, range(2, 7)), (3, range(2, 5)),
                           (5, range(2, 4)), (7, (2,))):
            for d in degrees:
                for c0, *middle in product(range(1, p), *[range(p)] * (d - 1)):
                    coeffs = (c0, *middle, 1)
                    irreducible = sympy.Poly(coeffs[::-1], t,
                                             modulus=p).is_irreducible
                    try:
                        field(p, IntPoly(coeffs))
                        accepted = True
                    except ValueError as exc:
                        assert "is reducible over" in str(exc)
                        accepted = False
                    assert accepted == irreducible, (p, coeffs)
                    checked += 1
        assert checked == 302

    def test_field_axioms_random_sampling(self):
        ring = field(2, "t^3+t+1")
        q = ring.order
        assert q == 8
        add, mul = ring.add, ring.mul
        elements = field_elements(ring)
        rng = random.Random(3)
        for _ in range(200):
            a, b, c = (rng.choice(elements) for _ in range(3))
            assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
            assert mul(a, b) == mul(b, a)
            assert add(a, add(b, c)) == add(add(a, b), c)
            if a:
                assert mul(a, ring.pow(a, -1)) == 1

    @pytest.mark.parametrize("p, modulus", [
        (2, "t^3+t+1"), (3, "t^2+2t+2"), (5, "t^2+2"), (13, "t+2"),
    ])
    def test_arithmetic_against_the_reference(self, p, modulus):
        # every sum, every product as a walk takes it from the exp and log
        # tables, and every inverse, on all pairs of elements
        ring = field(p, modulus)
        q = ring.order
        exp, log = exactalg._unit_tables(ring)
        ref = [FieldElem.decode(ring, c) for c in range(q)]
        assert [x.code() for x in ref] == list(range(q))
        elements = [x.element() for x in ref]
        for a, x in zip(elements, ref):
            for b, y in zip(elements, ref):
                assert ring.add(a, b) == (x + y).element()
                prod = exp[(log[a] + log[b]) % (q - 1)] if a and b else ring.zero
                assert prod == (x * y).element()
            if a:
                assert exp[-log[a] % (q - 1)] == x.inverse().element()

    def test_log_tables_are_inverse(self):
        for p, modulus in ((2, "t^3+t+1"), (3, "t^2+2t+2"), (13, "t+2")):
            ring = field(p, modulus)
            exp, log = exactalg._unit_tables(ring)
            assert sorted(exp) == sorted(field_elements(ring)[1:])
            assert len(log) == ring.order - 1
            for i, a in enumerate(exp):
                assert log[a] == i

    def test_element_text(self):
        ring = field(2, "t^3+t+1")
        cube = ring.evaluate(IntPoly.t(3))
        assert cube == 0b011  # bit i is the coefficient of t^i
        assert str(FieldElem.xi(ring) ** 3) == "t+1"
        assert cube == (FieldElem.xi(ring) ** 3).element()


# F_p[t]/(m) for each path of quotient_ring: linear, written out at degree
# 2, generic at degree 3 to 5, and bits over F_2 at even and odd degree;
# the last two moduli are reducible
QUOTIENTS = [(13, (2, 1)), (2, (1, 1)), (5, (2, 0, 1)), (3, (2, 2, 1)),
             (3, (1, 2, 0, 1)), (3, (2, 0, 0, 1, 1)), (3, (1, 2, 0, 0, 0, 1)),
             (2, (1, 1, 0, 1)), (2, (1, 1, 0, 0, 1)), (2, (1, 1, 0, 0, 0, 0, 1)),
             (5, (1, 2, 1)), (2, (1, 0, 1, 0, 1))]


class TestQuotientRing:
    """exactalg.quotient_ring against FieldElem, the tests' own tuple
    arithmetic, and against brute force over all q elements."""

    @pytest.mark.parametrize("p, modulus", QUOTIENTS)
    def test_arithmetic_against_the_reference(self, p, modulus):
        ring = exactalg.quotient_ring(p, modulus)
        spec = Presentation.of(p, modulus)
        q = spec.order
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(300)]
        for a, b in pairs:
            ref_a, ref_b = FieldElem.decode(spec, a), FieldElem.decode(spec, b)
            x, y = ref_a.element(), ref_b.element()
            assert ring.residue(ref_a.coeffs) == x
            assert ring.add(x, y) == (ref_a + ref_b).element()
            assert ring.sub(x, y) == (ref_a - ref_b).element()
            assert ring.mul(x, y) == (ref_a * ref_b).element()
            assert ring.pow(x, b) == (ref_a ** b).element()
            assert bool(x) == bool(a)  # 0 is the one falsy element
        xi = FieldElem.xi(spec)
        for shift in range(-4, 5):
            f = IntPoly((3, -1, 2), shift)
            assert ring.evaluate(f) == evaluate(f, xi).element()
            assert ring.residue([5, -7, 0, 1, 4]) == \
                FieldElem(spec, (5, -7, 0, 1, 4)).element()

    @pytest.mark.parametrize("p, modulus", [
        (p, m) for p, m in QUOTIENTS[:10] if p ** (len(m) - 1) <= 81])
    def test_field_inverse_orders_and_roots(self, p, modulus):
        # every unit's inverse, unit_order against stepping powers, and the
        # roots of unity it finds, for every element of a small field
        ring = exactalg.quotient_ring(p, modulus)
        q = p ** (len(modulus) - 1)
        elements = field_elements(Presentation.of(p, modulus))
        plan = unit_plan(ring)

        def order(x):
            n, y = 1, x
            while y != ring.one:
                n, y = n + 1, ring.mul(y, x)
            return n

        orders = {code: order(x) for code, x in enumerate(elements) if code}
        # n = 1 has no primes: only 1 has order 1
        assert ring.unit_order(ring.one, ()) == 1
        if q > 2:
            assert ring.unit_order(elements[-1], ()) is None
        roots = Counter()  # n -> the n-th roots of unity unit_order accepts
        for code, x in enumerate(elements[1:], 1):
            assert ring.mul(x, ring.pow(x, -1)) == ring.one
            assert ring.unit_order(x, plan) == orders[code]
            # a plan for a proper divisor n of q - 1 refuses x unless x^n = 1
            for l in exactalg.prime_factors(q - 1):
                n = (q - 1) // l
                sub = exactalg.order_plan(n, exactalg.prime_factors(n))
                want = orders[code] if n % orders[code] == 0 else None
                assert ring.unit_order(x, sub) == want
                roots[n] += want is not None
        # F_q* is cyclic, so it holds exactly n n-th roots of unity
        assert all(count == n for n, count in roots.items())

    def test_root_order_refuses_reducible_moduli(self):
        # (t+1)^2 over F_2 and t^2 + 2t + 1 = (t+1)^2 over F_5: -xi = 1 has
        # order 1, and phi_1(-t) = t + 1 is not 0 mod m
        for p, modulus in ((2, (1, 0, 1)), (5, (1, 2, 1)), (2, (1, 1, 1, 1))):
            ring = exactalg.quotient_ring(p, modulus)
            q = ring.order
            plan = exactalg.order_plan(q - 1, exactalg.prime_factors(q - 1))
            assert exactalg.root_order(ring, plan) is None


class TestElementOrder:
    def test_generator_of_f8(self):
        ring = field(2, "t^3+t+1")
        assert ring.unit_order(ring.gen, unit_plan(ring)) == 7

    def test_neg_xi_order_mod_11(self):
        ring = field(11, "t+2")
        assert ring.unit_order(ring.evaluate(parse_poly("-t")),
                               unit_plan(ring)) == 10
        assert element_order(-FieldElem.xi(ring)) == 10

    def test_one(self):
        ring = field(13, "t+2")
        assert ring.unit_order(ring.one, unit_plan(ring)) == 1

    def test_rejects_zero(self):
        # 0 is no unit: no power of it reaches 1
        ring = field(5, "t+2")
        assert ring.unit_order(ring.zero, unit_plan(ring)) is None

    def test_divides_group_order(self):
        ring = field(3, "t^2+2t+2")
        for code in range(1, ring.order):
            x = FieldElem.decode(ring, code)
            order = ring.unit_order(x.element(), unit_plan(ring))
            assert (ring.order - 1) % order == 0
            assert order == element_order(x)

    def test_power_against_the_reference(self):
        ring = field(3, "t^2+2t+2")
        xi = FieldElem.xi(ring)
        for n in range(-10, 11):
            assert ring.evaluate(IntPoly.t(n)) == (xi ** n).element()
            assert ring.evaluate(IntPoly.t(n)) == \
                evaluate(IntPoly.t(n), xi).element()
