"""Order bookkeeping, admissible types, type vectors, lifting conditions."""

import random
from itertools import product
from math import gcd

import pytest
from covector_oracle import FieldElem, element_order, type_coefficient
from helpers import check_type_specification, checked_skeleton, \
    count_calls, reference_root_orders, reference_unit_tables, single_edge, \
    type_ii_odd_width_excluded

from burausieve import exactalg, skeleton, typesys
from burausieve.exactalg import IntPoly
from burausieve.golden import GOLDEN_ROWS
from burausieve.sieve import branches_for
from burausieve.typesys import (
    admissible_types,
    epsilon_p,
    k_threshold,
    root_spec,
    type_vector,
)


class TestEpsilon:
    @pytest.mark.parametrize("n,p,want", [
        (7, 2, 7), (7, 5, 14), (10, 11, 5), (8, 3, 8), (12, 13, 12),
        (18, 19, 9), (9, 19, 18),
    ])
    def test_examples(self, n, p, want):
        assert epsilon_p(n, p) == want

    def test_involution(self):
        for n in range(1, 101):
            for p in (2, 3, 5, 0):
                assert epsilon_p(epsilon_p(n, p), p) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            epsilon_p(0, 5)


class TestThreshold:
    @pytest.mark.parametrize("n,want", [(7, 5), (8, 3), (9, 2), (10, 2), (11, 1),
                                        (26, 1)])
    def test_values(self, n, want):
        assert k_threshold(n) == want

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            k_threshold(6)


class TestRootSpec:
    def test_orders_match_table(self):
        for row in GOLDEN_ROWS:
            for f in row.factors:
                r = root_spec(row.p, f)
                assert r.N == row.N
                assert r.M == epsilon_p(row.N, row.p)
                xi = FieldElem.xi(r.ring)
                assert element_order(-xi) == r.N
                assert element_order(xi) == r.M

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            root_spec(2, "t^2+1")

    @pytest.mark.parametrize("p, text", [
        (3, "t^4+t^3+t^2+t+1"), (13, "t^2+11t+3"), (2, "t^4+t+1"),
        (19, "t+4"), (5, "t^2+2")])
    def test_a_wrong_order_fails_the_proof(self, monkeypatch, p, text):
        # root_spec proves M = epsilon_p(N, p) instead of trusting it: a
        # proper multiple or divisor of the true M, handed over by an
        # epsilon_p that still maps it back to N, fails the proof
        spec = root_spec(p, text)
        N, M = spec.N, spec.M
        wrongs = {2 * M, 7 * M, 1} | {M // l for l in exactalg.prime_factors(M)}
        wrongs.discard(M)
        for wrong in wrongs:
            monkeypatch.setattr(typesys, "epsilon_p",
                                lambda n, _: wrong if n == N else N)
            with pytest.raises(AssertionError, match="bookkeeping"):
                root_spec(p, text)
        assert len(wrongs) >= 3

    def test_accepts_exactly_the_reference_fields(self, monkeypatch):
        # every monic m of degree 1 to 3 over F_p, p <= 13, but t, reducible
        # moduli, square factors and multiples of t included: root_spec
        # accepts m exactly when reference_unit_tables does, with the
        # N = ord(-xi) and M = ord(xi) of its log table, and builds no
        # table itself.  Each reference table costs O(q) polynomial
        # products, so the 3,528 cubics over F_11 and F_13 are compared
        # with the minimal polynomials of the elements of one reference
        # field each (cubic_reference), and a seeded sample of them with
        # reference_unit_tables itself
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        rng = random.Random(36)
        accepted = checked = 0
        for p in (2, 3, 5, 7, 11, 13):
            for d in (1, 2, 3):
                cubics = cubic_reference(p) if p ** d > 343 else None
                for low in product(range(p), repeat=d):
                    modulus = (*low, 1)
                    if modulus == (0, 1):
                        continue
                    if cubics is None or rng.random() < 0.01:
                        want = reference_root_orders(p, modulus)
                        if cubics is not None:
                            assert want == cubics.get(modulus), modulus
                    else:
                        want = cubics.get(modulus)
                    try:
                        root = root_spec(p, IntPoly(modulus))
                        got = root.N, root.M
                    except ValueError as exc:
                        # t divides m when m(0) = 0, and xi is no unit
                        assert "is reducible over" in str(exc) or (
                            modulus[0] == 0
                            and "root must be invertible" in str(exc)), modulus
                        got = None
                    assert got == want, (p, modulus)
                    accepted += got is not None
                    checked += 1
        assert (checked, accepted) == (4443, 1533) and tables == []
        with pytest.raises(ValueError, match="root must be invertible"):
            root_spec(5, "t")


def cubic_reference(p):
    """{m: (N, M)} for the monic irreducible cubics m over F_p, read off
    the reference tables of one of them: each is the minimal polynomial
    (t - y)(t - y^p)(t - y^(p^2)) of the three elements y of F_(p^3)
    outside F_p that it has as roots, with N and M the orders of -y and
    y."""
    first = next((*low, 1) for low in product(range(p), repeat=3)
                 if low[0] and all(sum(c * a ** i for i, c in enumerate(
                     (*low, 1))) % p for a in range(p)))
    exp, log = reference_unit_tables(p, first)
    q = p ** 3

    def digits(code):
        return [code // p ** i % p for i in range(3)]

    def code(coeffs):
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    def add(*codes):
        return code([sum(col) for col in zip(*map(digits, codes))])

    def mul(*codes):
        if 0 in codes:
            return 0
        return exp[sum(log[c] for c in codes) % (q - 1)]

    def order(c):
        return (q - 1) // gcd(q - 1, log[c])

    orders = {}
    for y in range(p, q):
        y1, y2 = (exp[log[y] * p ** i % (q - 1)] for i in (1, 2))
        e1, e2, e3 = (add(y, y1, y2), add(mul(y, y1), mul(y, y2), mul(y1, y2)),
                      mul(y, y1, y2))
        m = (-e3 % p, e2, -e1 % p, 1)  # e1, e2 and e3 lie in F_p
        assert max(e1, e2, e3) < p
        neg_y = code([-c for c in digits(y)])
        orders.setdefault(m, (order(neg_y), order(y)))
    return orders


class TestAdmissibleTypes:
    def test_p2_n7(self):
        r = root_spec(2, "t^3+t+1")
        assert admissible_types(r) == frozenset({"I", "II", "IV"})

    def test_p19_n9(self):
        r = root_spec(19, "t+4")
        assert admissible_types(r) == frozenset({"I", "II", "III+", "III-"})

    def test_p3_n8(self):
        r = root_spec(3, "t^2+2t+2")
        assert admissible_types(r) == frozenset({"I", "II", "III3"})

    def test_golden_factors_match_their_sieve_branch(self):
        # the branch's tags, in the order the sieve walks them, are the
        # admissible tags of every root the branch accepts
        for row in GOLDEN_ROWS:
            for f in row.factors:
                r = root_spec(row.p, f)
                [br] = [b for b in branches_for(r.N) if b.accepts_prime(r.p)]
                assert br.types == tuple(sorted(admissible_types(r)))

    def test_type_ii_parity_flag(self):
        # p odd with M odd: an odd-width type II region is impossible
        assert type_ii_odd_width_excluded(root_spec(11, "t+2"))  # M = 5
        assert not type_ii_odd_width_excluded(root_spec(19, "t+4"))  # M = 18
        assert not type_ii_odd_width_excluded(root_spec(2, "t^3+t+1"))


class TestTypeVector:
    """type_vector gives a_T(xi), the second entry of
    v_T_perp = (-1, a_T(xi)), in the root's ring."""

    def test_type_i_is_e2(self):
        # a = 0, so v_T = e2 and v_T_perp = (-1, 0)
        r = root_spec(2, "t^3+t+1")
        assert type_vector("I", r) == 0

    def test_type_ii_value_in_f8(self):
        r = root_spec(2, "t^3+t+1")
        a = type_vector("II", r)
        xi = FieldElem.xi(r.ring)
        assert a == (xi.inverse() * (xi + 1)).element()
        assert a == (xi * xi).element()  # reduced form in this field

    def test_type_iv_exponent(self):
        r = root_spec(2, "t^3+t+1")  # M = 7
        a = type_vector("IV", r)
        assert a == (FieldElem.xi(r.ring) ** 3).element()

    def test_annihilator(self):
        # a_T(xi) against the reference arithmetic, and the line of
        # v_T_perp = (-1, a_T(xi)), where a walk starts, is that of
        # (1, -a_T(xi))
        for row in GOLDEN_ROWS:
            r = root_spec(row.p, row.factors[0])
            for tag in sorted(admissible_types(r)):
                a = type_coefficient(tag, r)
                assert type_vector(tag, r) == a.element()
                assert skeleton._seed_line(r, tag) == (-a).element()

    def test_iii_exponent_identity(self):
        # xi^(3(s+1)) = 1 since s = +-M/3 - 1
        r = root_spec(19, "t+4")  # M = 18
        xi = FieldElem.xi(r.ring)
        for tag, s in (("III+", r.M // 3 - 1), ("III-", -(r.M // 3) - 1)):
            a = type_vector(tag, r)
            assert a == (-(xi ** s)).element()
            assert xi ** (3 * (s + 1)) == 1

    def test_inadmissible_rejected(self):
        r = root_spec(2, "t^3+t+1")
        with pytest.raises(ValueError):
            type_vector("III+", r)


class TestTypeSpecification:
    """The five lifting conditions, with values read in Z/depth.

    At depth zero the torsion equations 3*type(black) = 0 and
    2*type(white) = 0 hold in Z, so monovalent vertices force type zero
    (blacks) or are outright impossible (whites): the scalar-extended
    group has third roots of its central generator but no square roots.
    """

    def test_full_group_lift(self):
        # the one-edge skeleton with depth 2 describes the scalar-extended
        # group itself: region 1, black 0, white 1 sum to 2 = 0 in Z/2
        sk = single_edge()
        assert check_type_specification(sk, 2, [1], [0], [1], ambient="bu3")

    def test_braid_group_lift(self):
        # depth 6 with d = 6: types (1, 2, 3) sum to 6 = 0 in Z/6
        sk = single_edge()
        assert check_type_specification(sk, 6, [1], [2], [3], ambient="b3")

    def test_depth_zero_single_edge_fails_torsion(self):
        # 3*2 and 2*3 are nonzero in Z, so this pair lifts nothing
        sk = single_edge()
        assert not check_type_specification(sk, 0, [-5], [2], [3], ambient="bu3")

    def test_sum_violation(self):
        sk = single_edge()
        assert not check_type_specification(sk, 2, [1], [0], [0], ambient="bu3")

    def test_congruence_violation(self):
        sk = single_edge()
        # region type must match the width mod 2
        assert not check_type_specification(sk, 2, [0], [0], [1], ambient="bu3")

    def test_odd_depth_rejected(self):
        sk = single_edge()
        with pytest.raises(ValueError):
            check_type_specification(sk, 3, [1], [0], [1])

    def test_depth_not_multiple_of_d(self):
        sk = single_edge()
        assert not check_type_specification(sk, 2, [1], [2], [3], ambient="b3")

    def test_two_edge_skeleton(self):
        # two monovalent blacks joined through one bivalent white: a single
        # width-2 region, black types forced to 0 at depth 2
        sk = checked_skeleton((0, 1), (1, 0))
        assert check_type_specification(sk, 2, [2], [0, 0], [], ambient="bu3")
        assert not check_type_specification(sk, 2, [2], [0, 1], [], ambient="bu3")
