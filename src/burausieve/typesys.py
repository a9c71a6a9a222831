"""Root bookkeeping and the four special types.

A root is tracked by the pair of multiplicative orders N = ord(-xi) and
M = ord(xi), found with no table over the primes of q - 1 (N by the
field's proof of irreducibility) and linked by the parity-sensitive
involution epsilon_p.  Each special skeleton fragment
(essential region or monovalent vertex) pins the one-dimensional module to
a vector v_T = a_T(xi)*e1 + e2, with a_T given by a short table of Laurent
monomials; the sieve uses a_T over Z[t, 1/t], and the walk over lines
a_T(xi) in the root's ring, the second entry of the annihilator covector
(-1, a_T(xi)).
"""

from __future__ import annotations

from .exactalg import IntPoly, Value, monic_modulus, order_plan, \
    poly_text, prime_factors, quotient_ring, root_order

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


class RootSpec(Value):
    """A verified root: prime, minimal polynomial, orders, and its field,
    ring = exactalg.quotient_ring(p, m), proved a field.  Equality, hash
    and repr read the rest, not the ring."""

    __slots__ = ("p", "min_poly", "N", "M", "ring")
    _fields = ("p", "min_poly", "N", "M")

    def __init__(self, p, min_poly, N, M, ring):
        self.p, self.min_poly, self.N, self.M, self.ring = \
            p, min_poly, N, M, ring

    def __str__(self):
        return f"(p={self.p}, m={self.min_poly})"


def root_spec(p, min_poly):
    """Build a RootSpec from a prime and an irreducible minimal polynomial;
    ValueError when it is reducible.

    Builds no table.  The minimal polynomial m is proved irreducible in
    quotient_ring(p, m) (exactalg.root_order): N = ord(-xi) divides q - 1,
    m divides the N-th cyclotomic polynomial in -t over F_p, and deg m is
    ord_N(p).  M = ord(xi) = epsilon_p(N, p) is then proved with no
    search: xi^M = 1 and xi^(M/l) != 1 for each prime l of M, as every
    proper divisor of M divides some M / l.  M must divide q - 1, as
    every order in F_q* does, so its primes are read off q - 1's.  The
    epsilon-involution back to N is verified too.
    """
    modulus = monic_modulus(p, min_poly)
    ring = quotient_ring(p, modulus)
    plan = order_plan(ring.order - 1, prime_factors(ring.order - 1))
    N = root_order(ring, plan)
    if N is None:
        raise ValueError(f"modulus {poly_text(modulus)} is reducible over F_{p}")
    M, xi, one = epsilon_p(N, p), ring.gen, ring.one
    if (ring.order - 1) % M or ring.pow(xi, M) != one or \
            N != epsilon_p(M, p) or any(ring.pow(xi, M // l) == one
                                        for l, _, _ in plan if M % l == 0):
        raise AssertionError("order bookkeeping violated")  # unreachable
    return RootSpec(p, IntPoly(modulus), N, M, ring)


def type_tags(M, p_is_3):
    """The type tags that can occur for a root with M = ord(xi), in the
    order I, II, III..., IV.

    I and II are always possible; III+/III- need p != 3 and 3 | M; III3 is
    the p = 3 branch; IV needs M odd.  The extra type-II parity condition
    (odd-width regions force M even when p != 2) is not applied: the sieve
    cannot know widths in advance, so II is never excluded here.
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


def type_coefficient_laurent(tag, M, p_is_3):
    """The Laurent polynomial a_T(t), exponents resolved for this M.

    p_is_3 selects the p = 3 branch, where the monovalent-black exponent is
    fixed at -1 instead of +-M/3 - 1.  A tag that type_tags does not list
    for (M, p_is_3) raises ValueError.
    """
    if tag not in type_tags(M, p_is_3):
        raise ValueError(f"type {tag!r} is not admissible for M={M}"
                         f"{' and p=3' if p_is_3 else ''}")
    if tag == "I":
        return IntPoly.zero()
    if tag == "II":
        return IntPoly((1, 1), -1)
    if tag == "III+":
        return IntPoly((-1,), M // 3 - 1)
    if tag == "III-":
        return IntPoly((-1,), -(M // 3) - 1)
    if tag == "III3":
        return IntPoly((-1,), -1)
    return IntPoly((1,), (M - 1) // 2)  # IV


def type_vector(tag, spec):
    """a_T(xi) in the root's ring: the covector v_T_perp = (-1, a_T(xi))
    annihilates v_T = a_T(xi) e1 + e2, and its first entry is always -1,
    so a_T(xi) alone gives its line, that of (1, -a_T(xi))."""
    return spec.ring.evaluate(type_coefficient_laurent(tag, spec.M, spec.p == 3))
