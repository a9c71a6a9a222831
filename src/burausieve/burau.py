"""Braid words and their reduced Burau matrices.

Words live in the central product of the three-strand braid group with the
scalar matrices <t*id>; the alphabet is {s1, s2, s1^-1, s2^-1, T, T^-1}
with T the scalar generator.  Words are never normalized: equality of
group elements is decided on Burau images, which is faithful for braids.
A matrix is specialized to a finite field entrywise, as its entries at
xi in the field's ring (exactalg.quotient_ring).
"""

from __future__ import annotations

import re

from .exactalg import MAX_EXPONENT, IntPoly, Value

# letter codes: +-1 = s1, +-2 = s2, +-3 = T
_LETTER_NAMES = {1: "s1", -1: "s1^-1", 2: "s2", -2: "s2^-1", 3: "T", -3: "T^-1"}
_BASE_NAMES = {"s1": 1, "s2": 2, "T": 3}
_EXPONENT = re.compile(r"[+-]?[0-9]+")


class BraidWord(Value):
    """A word over {s1, s2, T} and inverses."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = letters

    @staticmethod
    def identity():
        return BraidWord(())

    @staticmethod
    def parse(text):
        """Parse 's1 s2^-1 T' style text; exponents expand, e.g. 's1^3'.

        An exponent is an optional sign and decimal digits, at most
        MAX_EXPONENT in absolute value; anything else is a ValueError.
        """
        letters = []
        for tok in text.split():
            if tok in ("e", "id"):
                continue
            base, caret, exp_s = tok.partition("^")
            if base not in _BASE_NAMES:
                raise ValueError(f"unknown braid letter {tok!r}")
            if caret and not _EXPONENT.fullmatch(exp_s):
                raise ValueError(f"malformed exponent in {tok!r}: '^' takes "
                                 f"an optional sign and decimal digits")
            exp = int(exp_s) if caret else 1
            if abs(exp) > MAX_EXPONENT:
                raise ValueError(f"exponent in {tok!r} exceeds {MAX_EXPONENT} "
                                 f"in absolute value")
            code = _BASE_NAMES[base]
            letters.extend([code if exp > 0 else -code] * abs(exp))
        return BraidWord(tuple(letters))

    def __str__(self):
        if not self.letters:
            return "e"
        return " ".join(_LETTER_NAMES[c] for c in self.letters)

    def __mul__(self, other):
        return BraidWord(self.letters + other.letters)

    def inverse(self):
        return BraidWord(tuple(-c for c in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return BraidWord(self.letters * n)


class BurauMatrix(Value):
    """A 2x2 matrix of integer Laurent polynomials, row-major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @staticmethod
    def identity():
        one, zero = IntPoly.one(), IntPoly.zero()
        return BurauMatrix(one, zero, zero, one)

    @staticmethod
    def scalar(shift):
        """The scalar matrix t^shift * id."""
        s, zero = IntPoly.t(shift), IntPoly.zero()
        return BurauMatrix(s, zero, zero, s)

    def __mul__(self, other):
        return BurauMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, vec):
        """Multiply a column vector (pair of IntPoly) on the left."""
        x, y = vec
        return (self.a * x + self.b * y, self.c * x + self.d * y)


_GEN_MATRICES = {
    1: BurauMatrix(IntPoly((-1,), 1), IntPoly.one(), IntPoly.zero(), IntPoly.one()),
    -1: BurauMatrix(IntPoly((-1,), -1), IntPoly((1,), -1), IntPoly.zero(), IntPoly.one()),
    2: BurauMatrix(IntPoly.one(), IntPoly.zero(), IntPoly.t(), IntPoly((-1,), 1)),
    -2: BurauMatrix(IntPoly.one(), IntPoly.zero(), IntPoly.one(), IntPoly((-1,), -1)),
    3: BurauMatrix.scalar(1),
    -3: BurauMatrix.scalar(-1),
}


def to_burau(word):
    """Product of the generator matrices of the word, over Z[t, t^-1]."""
    m = BurauMatrix.identity()
    for c in word.letters:
        m = m * _GEN_MATRICES[c]
    return m


# modular projections: Burau at t = -1, modulo +-id

_MOD_GENS = {
    1: (1, 1, 0, 1),
    -1: (1, -1, 0, 1),
    2: (1, 0, -1, 1),
    -2: (1, 0, 1, 1),
    3: (-1, 0, 0, -1),
    -3: (-1, 0, 0, -1),
}


def modular_projection(word):
    """Image in PSL(2, Z): integer matrix at t = -1, sign-normalized."""
    a, b, c, d = 1, 0, 0, 1
    for g in word.letters:
        e, f, g2, h = _MOD_GENS[g]
        a, b, c, d = a * e + b * g2, a * f + b * h, c * e + d * g2, c * f + d * h
    for x in (a, b, c, d):
        if x:
            if x < 0:
                a, b, c, d = -a, -b, -c, -d
            break
    return (a, b, c, d)


def specialize(m, ring):
    """The entries a, b, c, d of m evaluated at xi, the class of t in
    ring, an exactalg.quotient_ring."""
    return (ring.evaluate(m.a), ring.evaluate(m.b),
            ring.evaluate(m.c), ring.evaluate(m.d))
