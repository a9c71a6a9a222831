"""Braid words, Burau matrices, and specialization."""

import random

import pytest
from covector_oracle import FieldElem, evaluate
from covector_oracle import specialize as reference_specialize
from helpers import bdeg, det, sigma1_power

from burausieve.burau import (
    BraidWord,
    BurauMatrix,
    modular_projection,
    specialize,
    to_burau,
)
from burausieve.exactalg import IntPoly
from burausieve.typesys import root_spec

S1 = BraidWord.parse("s1")
S2 = BraidWord.parse("s2")
T = BraidWord.parse("T")


def field(p, modulus):
    """The quotient_ring of F_p[t]/(modulus), proved a field by
    root_spec."""
    return root_spec(p, modulus).ring


def identity(ring):
    return (ring.one, ring.zero, ring.zero, ring.one)


def neg_t_power(n):
    return IntPoly((1 if n % 2 == 0 else -1,), n)


def specialize_word(word, ring):
    return specialize(to_burau(word), ring)


def matrix_product(ring, m1, m2):
    """The product of two 2x2 matrices over ring, row-major."""
    add, mul = ring.add, ring.mul
    a, b, c, d = m1
    e, f, g, h = m2
    return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
            add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))


class TestWords:
    def test_parse_round_trip(self):
        for text in ("e", "s1 s2^-1 T", "s1 s1 s1", "T^-1 s2", "s2^-1"):
            w = BraidWord.parse(text)
            assert BraidWord.parse(str(w)) == w

    def test_exponent_expansion(self):
        assert BraidWord.parse("s1^3") == S1 * S1 * S1
        assert BraidWord.parse("s2^-2") == (S2 ** -2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            BraidWord.parse("x9")

    def test_bdeg_examples(self):
        assert bdeg(S1 * S2) == 2
        assert bdeg(T) == 2
        assert bdeg(BraidWord.parse("s1^-1")) == -1

    def test_inverse(self):
        w = BraidWord.parse("s1 s2^-1 T")
        assert to_burau(w * w.inverse()) == BurauMatrix.identity()


class TestBurauImages:
    def test_sigma1_matrix(self):
        m = to_burau(S1)
        assert (str(m.a), str(m.b), str(m.c), str(m.d)) == ("-t", "1", "0", "1")

    def test_sigma2_matrix(self):
        m = to_burau(S2)
        assert (str(m.a), str(m.b), str(m.c), str(m.d)) == ("1", "0", "t", "-t")

    def test_braid_relation(self):
        assert to_burau(S1 * S2 * S1) == to_burau(S2 * S1 * S2)

    def test_central_square(self):
        assert to_burau((S1 * S2 * S1) ** 2) == BurauMatrix.scalar(3)

    def test_scalar_generator(self):
        assert to_burau(T) == BurauMatrix.scalar(1)

    def test_det_is_neg_t_to_bdeg(self):
        # det(s1) = det(s2) = -t, so the degree law carries the forced sign
        rng = random.Random(41)
        letters = [1, -1, 2, -2, 3, -3]
        for _ in range(300):
            w = BraidWord(tuple(rng.choice(letters)
                                for _ in range(rng.randint(0, 14))))
            assert det(to_burau(w)) == neg_t_power(bdeg(w))

    def test_sigma1_power_closed_form(self):
        for l in range(9):
            assert sigma1_power(l) == to_burau(S1 ** l)


class TestSpecialization:
    def test_order_of_sigma1_in_f8(self):
        ring = field(2, "t^3+t+1")
        assert specialize_word(S1 ** 7, ring) == identity(ring)
        assert specialize_word(S1 ** 3, ring) != identity(ring)

    def test_power_zero_gives_identity(self):
        ring = field(5, "t^2+2")
        assert specialize_word(S2 ** 0, ring) == identity(ring)

    def test_negative_power(self):
        ring = field(5, "t^2+2")
        w = S1 * S2
        assert matrix_product(ring, specialize_word(w ** -2, ring),
                              specialize_word(w ** 2, ring)) == identity(ring)

    def test_homomorphism_on_random_pairs(self):
        rng = random.Random(17)
        letters = [1, -1, 2, -2, 3, -3]
        for mod, p in (("t^3+t+1", 2), ("t^2+2", 5), ("t+2", 13)):
            ring = field(p, mod)
            for _ in range(40):
                w1 = BraidWord(tuple(rng.choice(letters)
                                     for _ in range(rng.randint(0, 8))))
                w2 = BraidWord(tuple(rng.choice(letters)
                                     for _ in range(rng.randint(0, 8))))
                lhs = specialize_word(w1 * w2, ring)
                rhs = matrix_product(ring, specialize_word(w1, ring),
                                     specialize_word(w2, ring))
                assert lhs == rhs
                assert lhs == reference_specialize(to_burau(w1 * w2), ring)

    def test_degree_zero_has_unit_determinant(self):
        ring = field(5, "t^2+2")
        a, b, c, d = specialize_word(S2 * S1 ** -1, ring)
        assert ring.sub(ring.mul(a, d), ring.mul(b, c)) == ring.one

    def test_scalar_word_specializes_to_xi_id(self):
        ring = field(19, "t+4")
        xi = FieldElem.xi(ring).element()
        assert specialize_word(T, ring) == (xi, 0, 0, xi)

    def test_specialize_is_entrywise_evaluation(self):
        ring = field(5, "t^2+2")
        w = BraidWord.parse("s1 s2 s1^-1")
        mat = to_burau(w)
        xi = FieldElem.xi(ring)
        sm = specialize(mat, ring)
        assert sm[0] == evaluate(mat.a, xi).element()
        assert sm[3] == evaluate(mat.d, xi).element()


class TestModularProjection:
    def test_scalars_project_to_identity(self):
        assert modular_projection(T) == (1, 0, 0, 1)
        assert modular_projection(BraidWord.parse("T^-1")) == (1, 0, 0, 1)

    def test_central_square_projects_to_identity(self):
        assert modular_projection((S1 * S2 * S1) ** 2) == (1, 0, 0, 1)

    def test_printed_beta1_projects_to_identity(self):
        # the word t s1 s1^-1 collapses: its projection cannot join a set
        # that needs pairwise distinct projections
        assert modular_projection(BraidWord.parse("T s1 s1^-1")) == (1, 0, 0, 1)

    def test_x_and_y_orders(self):
        x_inv = S2 * S1  # projects to X^-1, order 3
        y = S2 * S1 * S1  # projects to Y, order 2
        assert modular_projection(x_inv ** 3) == (1, 0, 0, 1)
        assert modular_projection(y * y) == (1, 0, 0, 1)
        assert modular_projection(x_inv) != (1, 0, 0, 1)
        assert modular_projection(y) != (1, 0, 0, 1)
