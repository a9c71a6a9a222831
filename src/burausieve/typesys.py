"""Root bookkeeping and the four special types.

A root is tracked by the pair of multiplicative orders N = ord(-xi) and
M = ord(xi), linked by the parity-sensitive involution epsilon_p.  Each
special skeleton fragment (essential region or monovalent vertex) pins the
one-dimensional module to a vector a_T(xi)*e1 + e2, with a_T given by a
short table of Laurent monomials; those vectors drive both the sieve and
the coset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import FieldSpec, IntPoly, element_order, parse_poly

TYPE_TAGS = ("I", "II", "III+", "III-", "III3", "IV")


def epsilon_p(N, p):
    """ord(xi) from ord(-xi) (and back): N for p = 2, else a parity split."""
    if N < 1:
        raise ValueError("N must be positive")
    if p == 2:
        return N
    if N % 2 == 1:
        return 2 * N
    if N % 4 == 2:
        return N // 2
    return N


def k_threshold(N):
    """Minimum informative-set size: ceil(5 / (N - 6)) for N >= 7."""
    if N < 7:
        raise ValueError("threshold defined for N >= 7 only")
    return -(-5 // (N - 6))


@dataclass(frozen=True)
class RootSpec:
    """A verified root: prime, minimal polynomial, orders, and its field."""

    p: int
    min_poly: IntPoly
    N: int
    M: int
    field: FieldSpec

    @property
    def xi(self):
        return self.field.gen()

    def __str__(self):
        return f"(p={self.p}, m={self.min_poly})"


def root_spec(p, min_poly):
    """Build a RootSpec from a prime and an irreducible minimal polynomial.

    Verifies the epsilon-involution between the orders and that the minimal
    polynomial divides the N-th cyclotomic polynomial in -t over F_p.
    """
    if isinstance(min_poly, str):
        min_poly = parse_poly(min_poly)
    field = FieldSpec(p, min_poly)
    xi = field.gen()
    N = element_order(-xi)
    M = element_order(xi)
    if M != epsilon_p(N, p) or N != epsilon_p(M, p):
        raise AssertionError("order bookkeeping violated")  # unreachable
    from .exactalg import cyclotomic, substitute_neg
    cyc = substitute_neg(cyclotomic(N)).reduce_mod(p)
    from .exactalg import _fp_mod
    if _fp_mod(cyc, field.modulus, p):
        raise AssertionError("minimal polynomial does not divide phi_N(-t)")
    return RootSpec(p=p, min_poly=field.min_poly, N=N, M=M, field=field)


def type_tags(M, p_is_3):
    """The type tags that can occur for a root with M = ord(xi), in the
    order I, II, III..., IV.

    I and II are always possible; III+/III- need p != 3 and 3 | M; III3 is
    the p = 3 branch; IV needs M odd.  The extra type-II parity condition
    (odd-width regions force M even when p != 2) is metadata, see
    type_ii_odd_width_excluded: the sieve cannot know widths in advance, so
    II is never excluded here.
    """
    tags = ["I", "II"]
    if p_is_3:
        tags.append("III3")
    elif M % 3 == 0:
        tags.extend(["III+", "III-"])
    if M % 2 == 1:
        tags.append("IV")
    return tuple(tags)


def admissible_types(spec):
    """The type tags that can occur for this root, see type_tags."""
    return frozenset(type_tags(spec.M, spec.p == 3))


def type_ii_odd_width_excluded(spec):
    """True when type II cannot be realized on an odd-width region."""
    return spec.p != 2 and spec.M % 2 == 1


def type_coefficient_laurent(tag, M, p_class):
    """The Laurent polynomial a_T(t), exponents resolved for this M.

    p_class distinguishes the p = 3 branch, where the monovalent-black
    exponent is fixed at -1 instead of +-M/3 - 1.
    """
    if tag == "I":
        return IntPoly.zero()
    if tag == "II":
        return IntPoly((1, 1), -1)
    if tag == "III+":
        if p_class == "p=3" or M % 3 != 0:
            raise ValueError("III+ needs p != 3 and 3 | M")
        return IntPoly((-1,), M // 3 - 1)
    if tag == "III-":
        if p_class == "p=3" or M % 3 != 0:
            raise ValueError("III- needs p != 3 and 3 | M")
        return IntPoly((-1,), -(M // 3) - 1)
    if tag == "III3":
        if p_class != "p=3":
            raise ValueError("III3 is the p = 3 branch only")
        return IntPoly((-1,), -1)
    if tag == "IV":
        if M % 2 == 0:
            raise ValueError("IV needs M odd")
        return IntPoly((1,), (M - 1) // 2)
    raise ValueError(f"unknown type tag {tag!r}")


@dataclass(frozen=True)
class TypeVector:
    """The vector v_T = a*e1 + e2 and its annihilator covector [-1, a]."""

    tag: str
    a: object  # FieldElem

    @property
    def v(self):
        return (self.a, self.a.spec.one())

    @property
    def v_perp(self):
        return (-self.a.spec.one(), self.a)


def type_vector(tag, spec):
    """Evaluate a_T at xi and package v_T with its annihilator."""
    if tag not in admissible_types(spec):
        raise ValueError(f"type {tag} is not admissible for {spec}")
    p_class = "p=3" if spec.p == 3 else ("p=2" if spec.p == 2 else "p odd")
    a_poly = type_coefficient_laurent(tag, spec.M, p_class)
    return TypeVector(tag=tag, a=a_poly.evaluate(spec.xi))


def check_type_specification(sk, depth, region_types, black_types, white_types,
                             ambient="bu3"):
    """Check the five lifting conditions for a (depth, type) pair.

    Values are read in Z/depth (Z when depth = 0); congruences are taken
    mod d = 6 for the braid-group ambient and mod d = 2 otherwise.  The
    type assignments align with the skeleton's region cycle order and with
    its monovalent black/white vertices in edge order.
    """
    if depth < 0 or depth % 2 != 0:
        raise ValueError("depth must be a nonnegative even integer")
    d = 6 if ambient == "b3" else 2

    def is_zero_mod_depth(x):
        return x % depth == 0 if depth else x == 0

    if depth % d != 0:
        return False
    widths = [len(c) for c in sk.region_cycles()]
    if len(region_types) != len(widths):
        raise ValueError("one type value per region required")
    blacks = [c for c in sk.black_cycles() if len(c) == 1]
    whites = [c for c in sk.white_cycles() if len(c) == 1]
    if len(black_types) != len(blacks) or len(white_types) != len(whites):
        raise ValueError("one type value per monovalent vertex required")
    for ty, w in zip(region_types, widths):
        if (ty - w) % d != 0:
            return False
    for ty in black_types:
        if (ty - 2) % d != 0 or not is_zero_mod_depth(3 * ty):
            return False
    for ty in white_types:
        if (ty - 3) % d != 0 or not is_zero_mod_depth(2 * ty):
            return False
    total = sum(region_types) + sum(black_types) + sum(white_types)
    return is_zero_mod_depth(total)
