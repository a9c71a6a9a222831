"""Exact arithmetic foundation.

The package's own number theory, the base of its value classes (Value),
integer Laurent polynomials, cyclotomic polynomials, the sieve's
resultants against phi_N(-t), the factors of phi_N(-t) over F_p, and
finite fields.  The ring F_p[t]/(m) has one
arithmetic with no table, on ints mod p when deg m = 1, on bits over F_2
and on coefficient tuples otherwise (quotient_ring): the sieve's orbit
keys, the proof that m is irreducible (root_order), multiplicative
orders, the powers of the equal-degree split and the search for a
generator of F_q* all use it, at a cost polynomial in log q.  It
inverts xi by a polynomial read off m, and a field's other units as
a^(q-2); outside it, the split's gcd is the one arithmetic on F_p[t].
Its elements are the only field elements of the package: a walk over the
lines of F_q adds them in the ring and multiplies them through O(q)
exp and log tables (_unit_tables), built once per root on a walk's
first read.  Everything here is exact: integer coefficients are
arbitrary precision, so results can be compared bit for bit.

Primality is trial division by the primes below 1000, then Miller-Rabin
to the first 13 prime bases, which proves primality below 3.3e24
(Sorenson and Webster, Math. Comp. 86, 2017), and BPSW above that (Baillie
and Wagstaff, Math. Comp. 35, 1980).  Prime factors are found by the same
trial division and then Pollard's rho in Brent's form (Brent, BIT 20,
1980), and ord_N(p) by removing the primes of phi(N) one at a time.

A resultant against phi_N(-t) is a product of values at the N-th roots of
unity.  It is taken modulo primes P = 1 (mod N), which hold those roots,
and recovered exactly from enough of them to exceed twice its bound
(multi-modular resultants with a CRT bound: Collins, JACM 18, 1971; von
zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).

Every polynomial factored here divides phi_N(-t) mod p, whose
factorization is known in closed form (Lidl-Niederreiter, Finite Fields,
Thm 2.47): for p not dividing N its irreducible factors are distinct and
all of degree ord_N(p), and for N = p^a m with p not dividing m,
phi_N = phi_m^(p^(a-1) (p-1)) mod p.  So one equal-degree split at the
known degree factors each of them, and at degree 1 the factors are read
off a primitive root of unity mod p with no split.  The split takes two
gcds per draw and divides nothing (Cantor and Zassenhaus, Math. Comp.
36, 1981).
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property, lru_cache
from itertools import islice, product
from math import gcd

# The largest exponent in braid-word or polynomial text.  s1^k has a Burau
# degree of k, and t^e a dense coefficient list of e + 1 entries, so the
# sizes of every matrix, vector and determinant built from the text grow
# with it
MAX_EXPONENT = 1000


def power_by_squaring(x, n, mul, one):
    """x^n for n >= 0 by square-and-multiply, in the monoid (mul, one)."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


# ---------------------------------------------------------------------------
# primes, prime factors and multiplicative orders

# the primes below 1000, tried by division first, and their product
_SMALL_PRIMES = tuple(n for n in range(2, 1000)
                      if all(n % q for q in range(2, math.isqrt(n) + 1)))
_PRIMORIAL = math.prod(_SMALL_PRIMES)
# Miller-Rabin to the first 13 prime bases proves primality below this bound
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime.

    Trial division by the primes below 1000 settles n < 10^6.  Above that,
    Miller-Rabin to the bases 2, 3, ..., 41 is a proof below 3.3e24, and
    BPSW beyond it: a strong probable prime to base 2 that is also a
    strong Lucas probable prime with Selfridge's parameters (Baillie and
    Wagstaff, Math. Comp. 35, 1980), which no composite is known to pass.
    """
    if n < 2:
        return False
    if gcd(n, _PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    if n < 10 ** 6:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n, a):
    """Miller-Rabin: whether the odd n > a passes the strong test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a / n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """The strong Lucas test of the odd n > 1 with Selfridge's parameters:
    D the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D) / 4.  For n + 1 = d 2^s, n passes when U_d = 0 or some
    V_(d 2^r) = 0 mod n, r < s; U and V are doubled and stepped by one along
    the bits of d."""
    if math.isqrt(n) ** 2 == n:  # no such D exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def prime_factors(n):
    """The distinct prime factors of the integer n >= 1, ascending.

    The primes below 1000 are found by division, and what remains is split
    by Pollard's rho in Brent's form (Brent, BIT 20, 1980) until each part
    is prime.
    """
    if n < 1:
        raise ValueError(f"prime factors of {n} < 1")
    found = set()
    small = gcd(n, _PRIMORIAL)  # the product of n's primes below 1000
    for q in _SMALL_PRIMES:
        if small == 1:
            break
        if small % q == 0:
            found.add(q)
            small //= q
            while n % q == 0:
                n //= q
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            found.add(m)
        else:
            d = _pollard_brent(m)
            parts += [d, m // d]
    return sorted(found)


def _pollard_brent(n):
    """A proper factor of the composite n, which has no prime factor below
    1000: Brent's cycle search on x -> x^2 + c from x = 2, with the
    differences multiplied 128 at a time between gcds, for c = 1, 2, ...
    until some c yields a proper gcd."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def order_mod(p, N):
    """ord_N(p), the multiplicative order of p modulo N >= 1 (1 for N = 1);
    ValueError when p is not a unit mod N.  It divides phi(N), and is found
    by removing from phi(N) each prime factor that keeps p^e = 1."""
    if N < 1:
        raise ValueError(f"order modulo {N} < 1")
    if gcd(p, N) != 1:
        raise ValueError(f"{p} is not a unit modulo {N}")
    order = totient(N)
    for q in prime_factors(order):
        while order % q == 0 and pow(p, order // q, N) == 1:
            order //= q
    return order


def has_order(p, d, N):
    """Whether ord_N(p) = d >= 1, for a unit p mod N, with no phi(N) as in
    order_mod: p^d = 1 mod N, and p^(d/l) != 1 for each prime l | d, as
    each proper divisor of d divides some d / l."""
    return pow(p, d, N) == 1 and all(
        pow(p, d // l, N) != 1 for l in prime_factors(d))


def totient(N):
    """Euler's phi(N) for N >= 1."""
    phi = N
    for q in prime_factors(N):
        phi = phi // q * (q - 1)
    return phi


# ---------------------------------------------------------------------------
# value classes


class Value:
    """Base of the package's value classes.  An instance compares, hashes
    and prints by the fields that _fields names, by default the class's
    own __slots__: equality holds only within one class (NotImplemented
    for any other), the hash is the hash of the fields' tuple, and the
    repr is Cls(name=value!r, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__dict__.get("_fields", cls.__slots__)
        get = operator.attrgetter(*names)
        cls._fields = names
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._values = get if len(names) > 1 else \
            staticmethod(lambda value: (get(value),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values(self))) + ")"


# ---------------------------------------------------------------------------
# integer (Laurent) polynomials


class IntPoly(Value):
    """A Laurent polynomial in Z[t, t^-1].

    Stored as a shift exponent plus a dense coefficient tuple (ascending
    powers), so the value is t**shift * sum(coeffs[i] * t**i).  Canonical
    form: the zero polynomial is (shift=0, coeffs=()); otherwise both the
    first and the last stored coefficient are nonzero.  The constructor
    canonicalises any input.  Arithmetic builds its results canonical
    (_canonical) and checks only what can cancel: a product's end
    coefficients are products of nonzero integers, and a sum's ends
    vanish only when both terms share that end and cancel there.
    """

    __slots__ = ("coeffs", "shift")

    def __init__(self, coeffs=(), shift=0):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        lead_zeros = 0
        while lead_zeros < len(coeffs) and coeffs[lead_zeros] == 0:
            lead_zeros += 1
        if lead_zeros == len(coeffs):
            _set_coeffs(self, ())
            _set_shift(self, 0)
        else:
            _set_coeffs(self, tuple(coeffs[lead_zeros:]))
            _set_shift(self, shift + lead_zeros)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _canonical((1,), 0)

    @staticmethod
    def t(exp=1):
        return _canonical((1,), exp)

    @staticmethod
    def const(c):
        return _canonical((c,), 0) if c else _ZERO

    # -- structure

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient; None for zero."""
        if not self.coeffs:
            return None
        return self.shift + len(self.coeffs) - 1

    @property
    def valuation(self):
        """Smallest exponent with nonzero coefficient; None for zero."""
        if not self.coeffs:
            return None
        return self.shift

    # -- arithmetic

    def __add__(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        low, high = (self, other) if self.shift <= other.shift else (other, self)
        start, out = high.shift - low.shift, list(low.coeffs)
        out += [0] * (start + len(high.coeffs) - len(out))  # none if negative
        for i, c in enumerate(high.coeffs, start):
            out[i] += c
        if out[0] and out[-1]:
            return _canonical(tuple(out), low.shift)
        return IntPoly(out, low.shift)

    def __neg__(self):
        return _canonical(tuple([-c for c in self.coeffs]), self.shift)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:  # one term scales the other factor
            (x,), b = (a, b) if len(a) == 1 else (b, a)
            coeffs = b if x == 1 else tuple([x * y for y in b])
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            coeffs = tuple(out)
        return _canonical(coeffs, self.shift + other.shift)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of an IntPoly")
        return power_by_squaring(self, n, operator.mul, IntPoly.one())

    def reduce_mod(self, p):
        """Shift-cleared coefficients reduced into 0..p-1."""
        return _fp_trim(tuple(c % p for c in self.coeffs))

    # -- text

    def __str__(self):
        return poly_text(self.coeffs, self.shift)

    def __repr__(self):
        return f"IntPoly({self})"


# the slots' own setters, which IntPoly.__setattr__ does not intercept
_set_coeffs, _set_shift = IntPoly.coeffs.__set__, IntPoly.shift.__set__


def _canonical(coeffs, shift):
    """The IntPoly of a coefficient tuple already in canonical form, empty
    with shift 0 or with nonzero ends; nothing is checked."""
    f = object.__new__(IntPoly)
    _set_coeffs(f, coeffs)
    _set_shift(f, shift)
    return f


# the zero polynomial of zero(), and of every product with a zero factor
_ZERO = _canonical((), 0)


def poly_text(coeffs, shift=0):
    """Canonical text form: descending powers, '^' exponents, no '*'."""
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        e = shift + i
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if c == 1 else f"{c}{var}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += sign + body
    return text


# one signed term: an optional coefficient times t or t^e, or a constant;
# coefficients and exponents are ASCII decimal digits
_TERM = re.compile(r"([+-]?)(?:([0-9]*)t(?:\^(-?[0-9]+))?|([0-9]+))")


def parse_poly(text):
    """Parse the canonical text form back into an IntPoly (exact round trip).

    Spaces are ignored, and an exponent may be at most MAX_EXPONENT in
    absolute value; anything else is a ValueError.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError(f"malformed polynomial text: {text!r}")
        sign, coef, exp, const = m.groups()
        if const is None:
            c, e = int(coef) if coef else 1, int(exp) if exp else 1
        else:
            c, e = int(const), 0
        if abs(e) > MAX_EXPONENT:
            raise ValueError(f"exponent in {m.group()!r} exceeds {MAX_EXPONENT} "
                             f"in absolute value")
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
    lo = min(coeffs)
    return IntPoly([coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1)], lo)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and resultants


@lru_cache(maxsize=None)
def cyclotomic(N):
    """The N-th cyclotomic polynomial over Z (monic, degree phi(N)).

    phi_N = prod over the squarefree divisors e of N of
    (t^(N/e) - 1)^mu(e): multiply by each sparse binomial with mu(e) = 1,
    then divide exactly by each with mu(e) = -1.
    """
    if N < 1:
        raise ValueError("cyclotomic order must be >= 1")
    up, down = [N], []
    for q in prime_factors(N):
        up, down = up + [d // q for d in down], down + [d // q for d in up]
    c = [1]
    for d in up:
        # times t^d - 1
        c = [(c[i - d] if i >= d else 0) - (c[i] if i < len(c) else 0)
             for i in range(len(c) + d)]
    for d in down:
        # divided by t^d - 1: c = g (t^d - 1) means g[i] = g[i - d] - c[i]
        g = c[:len(c) - d]
        for i in range(len(g)):
            g[i] = (g[i - d] if i >= d else 0) - c[i]
        c = g
    return IntPoly(c)


def substitute_neg(f):
    """f(-t), sign-normalized so the leading coefficient is positive."""
    coeffs = [c if (f.shift + i) % 2 == 0 else -c
              for i, c in enumerate(f.coeffs)]
    if coeffs and coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return IntPoly(coeffs, f.shift)


@lru_cache(maxsize=None)
def unity_prime(N, index):
    """(P, powers): the index-th largest prime P = 1 (mod N) below 2^62, and
    z^0, ..., z^(N-1) mod P for a primitive N-th root of unity z.

    The zeros of phi_N(-t) mod P are then -z^k for the k in 1..N-1 prime to
    N.  z is _root_of_unity(N, P).
    """
    if N < 2:
        raise ValueError("root-of-unity order must be >= 2")
    P = unity_prime(N, index - 1)[0] if index else (2 ** 62 - 2) // N * N + 1
    P -= N * bool(index)
    while not is_prime(P):
        P -= N
    z = _root_of_unity(N, P)
    powers = [1]
    for _ in range(N - 1):
        powers.append(powers[-1] * z % P)
    return P, tuple(powers)


def _root_of_unity(N, P):
    """A primitive N-th root of unity mod a prime P = 1 (mod N): the first
    a^((P-1)/N), a = 1, 2, ..., that no prime q of N sends to 1 under
    x -> x^(N/q), so 1 for N = 1; P - 1 is never factored."""
    qs = prime_factors(N)
    for a in range(1, P):
        z = pow(a, (P - 1) // N, P)
        if all(pow(z, N // q, P) != 1 for q in qs):
            return z


def vector_norms(v):
    """The 1-norms of the coefficients of a vector's two polynomials."""
    return tuple(sum(map(abs, f.coeffs)) for f in v)


def resultant(u, w, N, evaluate=None, norms=vector_norms):
    """|Res(phi_N(-t), D_l)| for l = 0, ..., N-1, exact, where u = (u0, u1)
    and w = (w0, w1) are pairs of Laurent polynomials and
    D_l = det[s1^l u | w] = ((-t)^l u0 + b_l u1) w1 - u1 w0 with
    b_l = sum_{m<l} (-t)^m.

    phi_N(-t) is monic with zeros -zeta, zeta the primitive N-th roots of
    unity, so the resultant is prod_zeta D_l(-zeta) up to sign (a Laurent
    shift of D_l changes only the sign).  At t = -zeta, b_l is
    (zeta^l - 1)/(zeta - 1), so D_l(-zeta) = zeta^l X - Y for X and Y that
    do not depend on l.  The roots zeta_k = z^k, k prime to N, come in
    inverse pairs, zeta_{N-k} = zeta_k^-1 (_root_pairs), and each pair's
    two factors multiply out exactly to

        (X_k zeta_k^l - Y_k)(X_{N-k} zeta_k^-l - Y_{N-k})
            = A_k - B_k zeta_k^l - C_k zeta_k^-l,

    with A_k = X_k X_{N-k} + Y_k Y_{N-k}, B_k = X_k Y_{N-k} and
    C_k = X_{N-k} Y_k, again free of l.  So each l takes one product and
    one reduction mod P per pair of roots.  For N >= 3 no unit k equals
    N - k; for N = 2 the one root, -1, is its own inverse and enters
    unpaired, as zeta^l X - Y.  The product is taken modulo primes
    P = 1 (mod N), which hold the roots, until their product exceeds 2B
    for a bound B >= |Res|.  The balanced CRT value is then the resultant
    itself, so a zero is exact.  (Collins, JACM 18, 1971; von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 6.)

    B is _resultant_bound(u, w, N), the product over the roots
    zeta = e^(2 pi i k/N), k prime to N, of
    n_u0 n_w1 + n_u1 n_w0 + n_u1 n_w1 / sin(pi k/N), where n_f is the
    1-norm of f's coefficients.  Each factor bounds |D_l(-zeta)| for every
    l: |f(-zeta)| <= n_f as |zeta| = 1, and
    |b_l(-zeta)| = |zeta^l - 1|/|zeta - 1| <= 2/|zeta - 1| = 1/sin(pi k/N).
    That is at most 1/sin(pi/N) <= N/2, as sin x >= 2x/pi on [0, pi/2], so
    it is never looser than |b_l| <= l <= N - 1 term by term.

    The swapped pair needs no second evaluation:
    resultant(w, u, N)[l] == resultant(u, w, N)[-l % N].  s1 has
    determinant -t, and s1^N = I mod phi_N(-t), since s1^N - I has the
    entries (-t)^N - 1 and b_N, both multiples of phi_N(-t).  So
    D_l(u, w) = (-t)^l det[u | s1^-l w] = -(-t)^l D_{-l mod N}(w, u)
    mod phi_N(-t), and (-t)^l is a unit there.

    evaluate(v, index) gives the values of the two Laurent polynomials of
    a vector v at the zeros of phi_N(-t) modulo unity_prime(N, index)[0],
    as unity_values does by default; a caller that evaluates many pairs
    passes a memo of it, so a vector shared by several pairs is evaluated
    once per prime.  Likewise norms(v) gives the 1-norms of v's two
    polynomials for the bound, as vector_norms does by default, and a
    caller passes a memo of it.
    """
    if evaluate is None:
        def evaluate(v, index):
            return [unity_values(f, N, index) for f in v]
    bound = 2 * _resultant_bound(u, w, N, norms)
    values, modulus, index = None, 1, 0
    while modulus <= bound:
        P, roots = unity_tables(N, index)
        (a0s, a1s), (b0s, b1s) = evaluate(u, index), evaluate(w, index)
        xy = [((a0 * b1 + (c := a1 * b1 * inv)) % P, (a1 * b0 + c) % P)
              for (_, inv), a0, a1, b0, b1 in zip(roots, a0s, a1s, b0s, b1s)]
        pairs, unpaired = _root_pairs(N, index)
        prods = None
        for i, j, zeta_powers, inverse_powers in pairs:
            (X, Y), (X2, Y2) = xy[i], xy[j]
            A, B, C = (X * X2 + Y * Y2) % P, X * Y2 % P, X2 * Y % P
            if prods is None:
                prods = [(A - B * z - C * y) % P
                         for z, y in zip(zeta_powers, inverse_powers)]
            else:
                prods = [r * (A - B * z - C * y) % P
                         for r, z, y in zip(prods, zeta_powers, inverse_powers)]
        for i, zeta_powers in unpaired:  # N = 2 only, which has no pairs
            X, Y = xy[i]
            prods = [(X * z - Y) % P for z in zeta_powers]
        if values is None:
            values, modulus = prods, P
        else:
            # CRT: the value mod modulus * P that is v mod modulus and r mod P
            lift = pow(modulus, -1, P)
            values = [v + modulus * ((r - v) * lift % P) for v, r in zip(values, prods)]
            modulus *= P
        index += 1
    half = modulus // 2
    return tuple(modulus - v if v > half else v for v in values)


def _resultant_bound(u, w, N, norms=vector_norms):
    """The bound B of resultant(u, w, N) on every |Res| (proved there): an
    integer above the product, over the k in 1..N-1 prime to N, of
    n_u0 n_w1 + n_u1 n_w0 + n_u1 n_w1 / sin(pi k/N).  It is taken in exact
    integers, with the C_k >= 2^32 / sin(pi k/N) of _inverse_sines, as 1 +
    floor(prod_k (2^32 (n_u0 n_w1 + n_u1 n_w0) + n_u1 n_w1 C_k) / 2^(32 phi(N))).
    norms(v) gives the 1-norms n_v0 and n_v1, as in resultant.
    """
    (n_u0, n_u1), (n_w0, n_w1) = norms(u), norms(w)
    fixed, varying = (n_u0 * n_w1 + n_u1 * n_w0) << _SINE_BITS, n_u1 * n_w1
    inverse_sines = _inverse_sines(N)
    product = math.prod(fixed + varying * c for c in inverse_sines)
    return (product >> _SINE_BITS * len(inverse_sines)) + 1


# the binary digits of _inverse_sines after the point
_SINE_BITS = 32


@lru_cache(maxsize=None)
def _inverse_sines(N):
    """C_k >= 2^32 / sin(pi k/N) for each k in 1..N-1 prime to N, as ints.

    Each is taken in floating point at k' = min(k, N - k), which has the
    same sine, so x = pi k'/N lies in (0, pi/2].  math.pi, k' pi and x
    round with a relative error of at most 2^-53 each, so x is within
    3 * 2^-53 of pi k'/N relatively, and sin x within as much, since
    x cot x <= 1 there, plus the ulp (2^-52 relatively) that math.sin may
    miss by.  The quotient and the product by 1 + 2^-40 round by 2^-53
    each.  So the float is within a relative 7 * 2^-53 < 2^-49 of
    (1 + 2^-40) 2^32 / sin(pi k/N), and its ceiling C_k is above
    2^32 / sin(pi k/N).
    """
    return tuple(math.ceil(2.0 ** _SINE_BITS / math.sin(math.pi * min(k, N - k) / N)
                           * (1 + 2.0 ** -40))
                 for k in range(1, N) if gcd(k, N) == 1)


@lru_cache(maxsize=None)
def unity_tables(N, index):
    """unity_prime(N, index) laid out for resultant: P, and for each zero
    -zeta of phi_N(-t) mod P, the powers zeta^0..zeta^(N-1) and
    1/(zeta - 1)."""
    P, powers = unity_prime(N, index)
    roots = []
    for k in range(1, N):
        if gcd(k, N) == 1:
            zeta_powers = tuple(powers[k * l % N] for l in range(N))
            roots.append((zeta_powers, pow(zeta_powers[1] - 1, -1, P)))
    return P, tuple(roots)


@lru_cache(maxsize=None)
def _root_pairs(N, index):
    """The roots of unity_tables(N, index), each next to its inverse, for
    resultant: (pairs, unpaired).  Each pair is (i, j, zeta_i powers,
    zeta_j powers) for positions i < j with zeta_i zeta_j = 1, so that
    zeta_j^l = zeta_i^-l.  The units k prime to N are listed in order, and
    N - k is a unit with k, so position i pairs with the mirrored position
    j = phi(N) - 1 - i.  For N >= 3 no unit k equals N - k and unpaired is
    empty; N = 2's one root, -1, is its own inverse and is the one entry
    (i, zeta_i powers) of unpaired.  The powers are unity_tables' own
    tuples."""
    roots = unity_tables(N, index)[1]
    half, last = len(roots) // 2, len(roots) - 1
    pairs = tuple((i, last - i, roots[i][0], roots[last - i][0]) for i in range(half))
    unpaired = tuple((i, roots[i][0]) for i in range(half, len(roots) - half))
    return pairs, unpaired


def unity_values(f, N, index):
    """The Laurent polynomial f at each zero -zeta of phi_N(-t) modulo
    P = unity_prime(N, index)[0], in resultant's order (unity_value)."""
    P, roots = unity_tables(N, index)
    return tuple(unity_value(f, zeta_powers, P) for zeta_powers, _ in roots)


def unity_value(f, zeta_powers, P):
    """The Laurent polynomial f = t^e g at x = -zeta mod P, given the
    powers zeta^0..zeta^(N-1) of a root of unity_tables: g by Horner, and
    x^e read off the powers, x^e = (-1)^e zeta^(e mod N)."""
    e = f.shift
    x_e = zeta_powers[e % len(zeta_powers)]
    return _fp_eval(f.coeffs, P - zeta_powers[1], P) * (P - x_e if e % 2 else x_e) % P


def _deg(c):
    return len(c) - 1


# ---------------------------------------------------------------------------
# dense polynomials over F_p (coefficient tuples, ascending powers):
# Horner's rule, Euclid by remainders and the equal-degree split


def _fp_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_eval(a, x, p):
    """a(x) mod p by Horner, for coefficients a, ascending powers."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _fp_reduce(a, b, p):
    """a mod b for a list a, in place and returned, for b with a nonzero
    leading coefficient: each leading term of a is cancelled in turn, and
    no quotient is formed."""
    inv = pow(b[-1], -1, p)
    n = len(b) - 1
    low = b[:n]
    for top in range(len(a) - 1, n - 1, -1):
        c = a.pop() * inv % p
        if c:
            i = top - n
            for j, y in enumerate(low):
                a[i + j] = (a[i + j] - c * y) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_gcd(a, b, p):
    """The monic gcd over F_p, by remainders alone (Euclid on lists)."""
    a, b = list(_fp_trim(a)), list(_fp_trim(b))
    while b:
        a, b = b, _fp_reduce(a, b, p)
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _fp_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of a product f of distinct irreducibles of
    degree d, with its powers taken in quotient_ring(p, f): f divides
    phi_m(-t) mod p, whose constant term is +-1, so f(0) != 0.

    A draw u is 0 or a unit modulo each factor f_i, as F_p[t]/(f_i) is
    the field F_{p^d}.  For odd p, w = u^((p^d - 1)/2) is then 0, or +-1
    as w^2 = u^(p^d - 1), modulo f_i, and the coprime gcd(w - 1, f) and
    gcd(w + 1, f) are the products of the f_i where w is 1 and -1.  For
    p = 2 the trace w = u + u^2 + ... + u^(2^(d-1)) is 0 or 1 modulo
    f_i, and gcd(w, f) and gcd(w + 1, f) are the products where it is 0
    and 1.  So the two gcds multiply to f, and no division is needed,
    exactly when their degrees add up to deg f; u is drawn again unless
    they do and both are proper."""
    n = _deg(f)
    if n <= 0 or n % d:
        raise AssertionError(f"degree {n} is not a positive multiple of {d}")
    if n == d:
        return [f]
    ring = quotient_ring(p, f)
    while True:
        u = ring.residue([rng.randrange(p) for _ in range(n)])
        if p == 2:  # the trace map over F_{2^d}
            w = v = u
            for _ in range(d - 1):
                v = ring.mul(v, v)
                w = ring.add(w, v)
            # over F_2 an element is the int of its coefficients' bits
            g, h = (_fp_gcd([x >> i & 1 for i in range(x.bit_length())], f, p)
                    for x in (w, ring.add(w, ring.one)))
        else:
            w = ring.pow(u, (p ** d - 1) // 2)
            g, h = (_fp_gcd(x, f, p)
                    for x in (ring.sub(w, ring.one), ring.add(w, ring.one)))
        if _deg(g) > 0 and _deg(h) > 0 and _deg(g) + _deg(h) == n:
            return _fp_equal_degree(g, d, p, rng) + _fp_equal_degree(h, d, p, rng)


def fp_factor(g, d, p):
    """The monic irreducible factors of g over F_p, sorted.

    g is a monic divisor of phi_N(-t) mod a prime p that does not divide N,
    and d = ord_N(p), so its factors are distinct and all of degree d.
    """
    import random  # here, as only this split draws
    return sorted(_fp_equal_degree(g, d, p, random.Random(0x5EED)),
                  key=lambda f: (len(f), tuple(reversed(f))))


def cyclotomic_factors(N, p):
    """The irreducible factors of phi_N(-t) mod p, as a sorted multiset of
    monic IntPoly: for N = p^a m with p not dividing m, those of
    phi_m(-t), each repeated p^(a-1) (p-1) times when a > 0.  When
    ord_m(p) = 1 they are read directly: the t + zeta for the primitive
    m-th roots of unity zeta = z^k mod p, k prime to m.  Otherwise
    phi_m(-t) mod p is split at degree ord_m(p)."""
    m, a = _prime_free_part(N, p)
    mult = p ** (a - 1) * (p - 1) if a else 1
    d = order_mod(p, m)
    if d == 1:
        z = _root_of_unity(m, p)
        factors = sorted((pow(z, k, p), 1) for k in range(m) if gcd(k, m) == 1)
    else:
        factors = fp_factor(substitute_neg(cyclotomic(m)).reduce_mod(p), d, p)
    # monic, and f(0) != 0 as f divides phi_m(-t): canonical as they are
    return [_canonical(f, 0) for f in factors for _ in range(mult)]


def cyclotomic_split_cost(N, p):
    """The work cyclotomic_factors(N, p) does, up to a constant, for
    N = p^a m, p not dividing m: phi(m) log2(p), one power per root, when
    ord_m(p) = 1; 0 when phi_m(-t) mod p is irreducible; otherwise
    phi(m)^2 ord_m(p) log2(p), as the split raises polynomials of degree
    phi(m) to about the power p^ord_m(p), by squarings of cost phi(m)^2,
    and each draw's two gcds cost phi(m)^2 more."""
    m, _ = _prime_free_part(N, p)
    phi, d = totient(m), order_mod(p, m)
    if d == 1:
        return phi * p.bit_length()
    return phi * phi * d * p.bit_length() if d < phi else 0


def _prime_free_part(N, p):
    """(m, a) with N = p^a m and p not dividing m; ValueError unless p is
    prime and N >= 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 1:
        raise ValueError("cyclotomic order must be >= 1")
    m, a = N, 0
    while m % p == 0:
        m, a = m // p, a + 1
    return m, a


# ---------------------------------------------------------------------------
# F_p[t]/(m) with no table


def quotient_ring(p, modulus):
    """The ring F_p[t]/(m) for a monic coefficient tuple m = modulus with
    m(0) != 0, so that xi, the class of t, is a unit: its elements are
    ints mod p when deg m = 1, where xi = -m(0), and otherwise trimmed
    coefficient tuples of degree below deg m, with 0 the empty tuple in
    both; over F_2 they are the ints whose bit i is the coefficient of t^i.
    Every operation costs a polynomial in log q and deg m, q the number
    of elements; nothing of size q is built.  It is a field exactly when
    m is irreducible; root_order decides that."""
    if len(modulus) == 2:
        return _LinearRing(p, modulus)
    if p == 2:
        return _BinaryRing(p, modulus)
    return _PolyRing(p, modulus)


def order_plan(n, primes):
    """What _Residues.unit_order reads to find orders dividing n >= 1,
    given its distinct primes: (l, n / l^e, e) for each prime l, with l^e
    exactly dividing n."""
    plan = []
    for l in primes:
        e, m = 0, n
        while m % l == 0:
            e, m = e + 1, m // l
        plan.append((l, m, e))
    return tuple(plan)


class _Residues:
    """What the rings of quotient_ring share: p, the modulus, its degree
    and the order q = p^deg m, and the algorithms written in their add,
    sub, mul and residue alone, pow among them."""

    def __init__(self, p, modulus):
        self.p, self.modulus = p, modulus
        self.degree = len(modulus) - 1
        self.order = p ** self.degree

    @cached_property
    def unit_tables(self):
        """The (exp, log) tables of a field (_unit_tables), built on a
        walk's first read and then kept with the ring, one per root."""
        return _unit_tables(self)

    def evaluate(self, f):
        """The Laurent polynomial f at xi: t^e g is the residue of its
        coefficients shifted up for e >= 0, and g's times (1/xi)^-e
        otherwise."""
        if f.shift >= 0:
            return self.residue([0] * f.shift + list(f.coeffs))
        return self.mul(self.residue(f.coeffs), self.pow(self.gen, f.shift))

    def pow(self, a, n):
        """a^n for any integer n.  For n < 0, a is xi, whose inverse
        inv_gen is read off the modulus in every ring, or a unit of a
        field, whose inverse is a^(q-2)."""
        if n < 0:
            a, n = (self.inv_gen if a == self.gen
                    else power_by_squaring(a, self.order - 2, self.mul, self.one)), -n
        return power_by_squaring(a, n, self.mul, self.one)

    def unit_order(self, a, plan):
        """The multiplicative order of a when a^n = 1, and None otherwise,
        for plan = order_plan(n, primes of n).  For each prime l with l^e
        exactly dividing n, y = a^(n / l^e) has order l^j, j the first
        exponent up to e with y^(l^j) = 1, and the order of a is the
        product of those l^j.  If a^n != 1, then some l^(e+1) or a prime
        outside n divides the order of a, and some y does not reach 1."""
        one, power, found = self.one, self.pow, 1
        if a == one:
            return 1
        for l, m, e in plan:
            y = power(a, m)
            for _ in range(e):
                if y == one:
                    break
                y, found = power(y, l), found * l
            if y != one:
                return None
        return found if plan else None  # n = 1 has no primes


class _LinearRing(_Residues):
    """F_p = F_p[t]/(t + m0) on ints mod p (see quotient_ring)."""

    zero, one = 0, 1

    def __init__(self, p, modulus):
        super().__init__(p, modulus)
        self.gen = -modulus[0] % p

    def residue(self, coeffs):
        """The class of the polynomial with these integer coefficients,
        ascending: its value at xi, by Horner."""
        return _fp_eval(coeffs, self.gen, self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def pow(self, a, n):
        """a^n for any integer n, a a unit when n < 0."""
        return pow(a, n, self.p)


class _PolyRing(_Residues):
    """F_p[t]/(m), deg m >= 2, on trimmed coefficient tuples (see
    quotient_ring).  A product is formed without reduction and then folded
    from its top coefficient down by t^d = -(m - t^d), d = deg m, each
    folded coefficient taken mod p once, so no term product is reduced on
    its own; at d = 2, the most frequent degree, that is written out
    (_mul2)."""

    zero, one, gen = (), (1,), (0, 1)

    def __init__(self, p, modulus):
        super().__init__(p, modulus)
        d = self.degree
        self.low = [-c % p for c in modulus[:d]]  # t^d = sum low[j] t^j
        # 1/xi = -(m - m(0)) / (m(0) t), read off the modulus
        inverse = pow(-modulus[0], -1, p)
        self.inv_gen = tuple(c * inverse % p for c in modulus[1:])
        if d == 2:
            self.mul = self._mul2

    def residue(self, coeffs):
        """The class of the polynomial with these integer coefficients,
        ascending."""
        return self._fold(list(coeffs))

    def _fold(self, c):
        """The reduced tuple of the integer list c, which is modified: its
        coefficients from the top down to t^d folded into the lower ones,
        each taken mod p as it is folded, then the zeros left on top
        dropped and the rest taken mod p."""
        p, d, low = self.p, self.degree, self.low
        for top in range(len(c) - 1, d - 1, -1):
            x = c.pop() % p
            if x:
                for j, y in enumerate(low, top - d):
                    c[j] += x * y
        while c and not c[-1] % p:
            c.pop()
        return tuple([x % p for x in c])

    def add(self, a, b):
        """a + b in one pass, each coefficient sum taken mod p once: the
        longer term's own top coefficients are already reduced and end
        nonzero, and only terms of one length can cancel on top."""
        p = self.p
        if len(a) != len(b):
            if len(a) < len(b):
                a, b = b, a
            return tuple([(x + y) % p for x, y in zip(a, b)]) + a[len(b):]
        c = [(x + y) % p for x, y in zip(a, b)]
        while c and not c[-1]:
            c.pop()
        return tuple(c)

    def sub(self, a, b):
        p = self.p
        return self.add(a, tuple([-y % p for y in b]))

    def _mul2(self, a, b):
        """mul at d = 2, with t^2 = low[0] + low[1] t."""
        if not a or not b:
            return ()
        a0, a1 = a if len(a) == 2 else (a[0], 0)
        b0, b1 = b if len(b) == 2 else (b[0], 0)
        p, (l0, l1), h = self.p, self.low, a1 * b1
        c0, c1 = (a0 * b0 + h * l0) % p, (a0 * b1 + a1 * b0 + h * l1) % p
        return (c0, c1) if c1 else (c0,) if c0 else ()

    def mul(self, a, b):
        if not a or not b:
            return ()
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    c[j] += x * y
        return self._fold(c)


class _BinaryRing(_Residues):
    """F_2[t]/(m), deg m >= 2, on ints whose bit i is the coefficient of
    t^i (see quotient_ring): a sum is an exclusive or, and a product is
    carry-less, with the shifted factor reduced by m's bits at each step."""

    zero, one, gen = 0, 1, 2

    def __init__(self, p, modulus):
        super().__init__(p, modulus)
        self.bits = _bits(modulus)
        self.inv_gen = self.bits >> 1  # 1/xi = (m - 1) / t, m(0) = 1

    def residue(self, coeffs):
        """The class of the polynomial with these integer coefficients,
        ascending."""
        r, bits, d = _bits(coeffs), self.bits, self.degree
        while r.bit_length() > d:
            r ^= bits << (r.bit_length() - 1 - d)
        return r

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        bits, top, r = self.bits, self.order, 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= bits
        return r


def _bits(coeffs):
    """The int whose bit i is the i-th of these integer coefficients mod
    2."""
    return sum(c % 2 << i for i, c in enumerate(coeffs))


def root_order(ring, plan):
    """N = ord(-xi) in ring = quotient_ring(p, m), given
    plan = order_plan(q - 1, primes of q - 1), when m is irreducible,
    that is when the ring is the field F_q, and None otherwise: the proof
    of irreducibility, with no table.

    m is accepted exactly when (-xi)^(q-1) = 1, m divides phi_N(-t) mod p
    for the order N of -xi, and deg m = ord_N(p).  If m is irreducible,
    -xi lies in F_q*, of order q - 1, so its order N divides q - 1 and is
    prime to p; -xi is then a primitive N-th root of unity, a root of
    phi_N, and F_p(xi) = F_p(-xi) has degree ord_N(p).  Conversely,
    N | q - 1 makes p prime to N, so phi_N(-t) is squarefree mod p and
    its irreducible factors all have degree ord_N(p) (Lidl-Niederreiter,
    Finite Fields, Thm 2.47); a divisor m of that degree is one of them.
    N is read over the primes of q - 1 (_Residues.unit_order).
    """
    minus_xi = ring.sub(ring.zero, ring.gen)
    N = ring.unit_order(minus_xi, plan)
    if N is None or ring.residue(_neg_cyclotomic(N)):
        return None
    # a linear m is irreducible, and there N | p - 1 gives ord_N(p) = 1
    if ring.degree > 1 and not has_order(ring.p, ring.degree, N):
        return None
    return N


@lru_cache(maxsize=None)
def _neg_cyclotomic(N):
    """The coefficients of phi_N(-t), once per N."""
    return substitute_neg(cyclotomic(N)).coeffs


# ---------------------------------------------------------------------------
# finite fields


def monic_modulus(p, modulus):
    """A modulus (text or IntPoly) as its coefficients mod p; ValueError
    unless p is prime and it is monic, of degree >= 1 and not t.  Only
    root_order's proof shows it irreducible."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(modulus, str):
        modulus = parse_poly(modulus)
    if modulus.is_zero or modulus.valuation < 0:
        raise ValueError("modulus must be an ordinary polynomial")
    coeffs = _fp_trim([0] * modulus.shift + [c % p for c in modulus.coeffs])
    if _deg(coeffs) < 1:
        raise ValueError("modulus must have degree >= 1")
    if coeffs[-1] != 1:
        raise ValueError("modulus must be monic")
    if coeffs[0] == 0:
        raise ValueError("modulus t is rejected: the root must be invertible")
    return coeffs


def _unit_tables(ring):
    """(exp, log) of the field F_q = quotient_ring(p, m), for a modulus
    root_order has proved irreducible: the list of the powers
    w^0..w^(q - 2) of the first element w of order q - 1, and the dict
    from each of them to its discrete logarithm.  They cost O(q) time and
    memory; a walk over lines builds them on its first read
    (_Residues.unit_tables), and no closed form reads them.

    F_q* is cyclic (Lidl-Niederreiter, Finite Fields, Thm 2.8).  The
    elements are tried in the order of the base-p numbers whose digits are
    their coefficients, lowest power first.  For deg m > 1 the first p,
    the prime field, whose units have orders dividing p - 1, are skipped;
    so is 0.  A unit's order divides q - 1, and it is q - 1 exactly when
    no w^((q - 1)/l), l a prime of q - 1, is 1, as every proper divisor
    of q - 1 divides some (q - 1)/l; no order is computed.  Each power is
    the last one times w, by ring.mul.
    """
    p, d, q = ring.p, ring.degree, ring.order
    one, power = ring.one, ring.pow
    cofactors = [(q - 1) // l for l in prime_factors(q - 1)]
    # product() counts with its last place fastest, a number with its first
    tried = (ring.residue(c[::-1]) for c in product(range(p), repeat=d))
    w = next(a for a in islice(tried, 1 if d == 1 else p, None)
             if all(power(a, n) != one for n in cofactors))
    exp_t = [ring.one]
    for _ in range(q - 2):
        exp_t.append(ring.mul(exp_t[-1], w))
    return exp_t, {a: i for i, a in enumerate(exp_t)}
