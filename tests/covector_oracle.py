"""Reference implementations the tests hold the package to.

`FieldElem` is finite-field arithmetic on reduced coefficient tuples with
an extended-Euclid inverse, on the tests' own polynomial arithmetic
(`fp_reference`); it shares no code with the package's `quotient_ring`,
which the tests check against it.  `covector_bfs` is the
breadth-first coset enumeration over covectors that the package replaced
by the lift of its walk over projective lines; it computes in the
root's `quotient_ring`, with no exp or log table, and the tests compare
the lift's permutations with it edge for edge.  `product_skeletons` builds
every component of a fibered product as a skeleton, which the package
replaced by counting each component's edges and genus in one labelling
pass.  The skeleton checks at the end (width divisibility, the incidence
lemma, isomorphism) have no caller in the pipeline and serve the tests
only.
"""

import operator
from collections import namedtuple

import sympy

from fp_reference import fp_add, fp_divmod, fp_mul, fp_trim
from helpers import checked_skeleton, cycle_tuples

from burausieve.burau import BraidWord, to_burau
from burausieve.exactalg import poly_text, power_by_squaring
from burausieve.skeleton import EnumerationCapExceeded
from burausieve.typesys import type_coefficient_laurent


class Presentation(namedtuple("Presentation", "p modulus degree order")):
    """F_p[t]/(modulus) as the reference sees it: p, the modulus, its
    degree and the order, as a quotient_ring holds them, with no
    arithmetic of the package's."""

    @staticmethod
    def of(p, modulus):
        """modulus is a monic coefficient tuple, lowest power first."""
        return Presentation(p, tuple(modulus), len(modulus) - 1,
                            p ** (len(modulus) - 1))


class FieldElem:
    """An element of a quotient_ring's (or a Presentation's) field, always
    reduced modulo its modulus."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        c = tuple(x % spec.p for x in coeffs)
        if len(c) > spec.degree:
            c = fp_divmod(c, spec.modulus, spec.p)[1]
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", fp_trim(c))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    @staticmethod
    def xi(spec):
        """The class of t."""
        return FieldElem(spec, (0, 1))

    @staticmethod
    def decode(spec, code):
        """The element whose coefficients are the base-p digits of code."""
        out = []
        for _ in range(spec.degree):
            code, r = divmod(code, spec.p)
            out.append(r)
        return FieldElem(spec, out)

    def code(self):
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.spec.p + c
        return v

    def element(self):
        """The element as quotient_ring holds it: an int mod p over F_p,
        the int whose bit i is the coefficient of t^i over F_2, and the
        coefficient tuple otherwise."""
        if self.spec.degree == 1:
            return self.coeffs[0] if self.coeffs else 0
        if self.spec.p == 2:
            return sum(c << i for i, c in enumerate(self.coeffs))
        return self.coeffs

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElem(self.spec, fp_add(self.coeffs, other.coeffs, self.spec.p))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElem(self.spec, fp_mul(self.coeffs, other.coeffs, self.spec.p))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.spec, tuple(-c for c in self.coeffs))

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in F_p[t]
        p = self.spec.p
        r0, r1 = self.spec.modulus, self.coeffs
        s0, s1 = (), (1,)
        while r1:
            q, r = fp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, fp_add(s0, [-c for c in fp_mul(q, s1, p)], p)
        inv_lead = pow(r0[0], p - 2, p)
        return FieldElem(self.spec, tuple((c * inv_lead) % p for c in s0))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power_by_squaring(self, n, operator.mul, FieldElem(self.spec, 1))

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, int):
            return FieldElem(self.spec, other)
        raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")

    def __eq__(self, other):
        if isinstance(other, int):
            other = FieldElem(self.spec, other)
        return (isinstance(other, FieldElem) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec.p, self.spec.modulus, self.coeffs))

    def __str__(self):
        return poly_text(self.coeffs) if self.coeffs else "0"

    def __repr__(self):
        return f"FieldElem({self}, {self.spec!r})"


def evaluate(f, x):
    """The Laurent polynomial f at the FieldElem x (negative shifts invert)."""
    acc = FieldElem(x.spec, ())
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc * x ** f.shift


def element_order(x):
    """Least n >= 1 with x^n = 1, by descending through the group order."""
    if x.is_zero:
        raise ValueError("order of zero")
    n = x.spec.order - 1
    for q in sympy.factorint(n):
        while n % q == 0 and x ** (n // q) == 1:
            n //= q
    return n


def field_elements(spec):
    """Every element of the field of spec (a quotient_ring), as it holds
    them, 0 first, in the order of FieldElem.code."""
    return [FieldElem.decode(spec, code).element() for code in range(spec.order)]


def specialize(m, spec):
    """The BurauMatrix m evaluated entrywise at xi, as elements of spec (a
    quotient_ring)."""
    xi = FieldElem.xi(spec)
    return tuple(evaluate(e, xi).element() for e in (m.a, m.b, m.c, m.d))


def type_coefficient(tag, root):
    """a_T(xi) of a RootSpec, evaluated by the reference arithmetic."""
    a = type_coefficient_laurent(tag, root.M, root.p == 3)
    return evaluate(a, FieldElem.xi(root.ring))


def _specialized(text, ring):
    return specialize(to_burau(BraidWord.parse(text)), ring)


def covector_bfs(spec, state_cap):
    """Breadth-first coset enumeration of a universal subgroup.

    States are annihilator covectors w = v_T_perp * m up to scalar multiples
    xi^s (s in Z for the bu3 ambient, s in 3Z for b3), seeded at w = v_T_perp
    and expanded by right multiplication by the specialized images of s2*s1
    and s2*s1^2; the region permutation is the action of s1 on the same
    states and is cross-checked against the composition convention.  It
    computes in the root's quotient_ring, inverses by its pow, with no
    exp or log table.
    """
    root = spec.root
    ring = root.ring
    add, mul, one = ring.add, ring.mul, ring.one

    step = 3 if spec.ambient == "b3" else 1
    scalar = (FieldElem.xi(ring) ** step).element()
    scalars = [one]
    x = scalar
    while x != one:
        scalars.append(x)
        x = mul(x, scalar)

    # canonical scalar-class representatives: mu[y] y is the first element
    # of y's scalar class, for each nonzero y
    mu = {}
    inv_scalars = [ring.pow(s, -1) for s in scalars]
    for leader in field_elements(ring)[1:]:
        if leader in mu:
            continue
        for s, s_inv in zip(scalars, inv_scalars):
            mu[mul(s, leader)] = s_inv

    def canon(w0, w1):
        if w0:
            m = mu[w0]
            return (mul(m, w0), mul(m, w1))
        return (w0, mul(mu[w1], w1))

    g_black = _specialized("s2 s1", ring)
    g_white = _specialized("s2 s1 s1", ring)
    g_region = _specialized("s1", ring)

    def act(w, g):
        w0, w1 = w
        return (add(mul(w0, g[0]), mul(w1, g[2])),
                add(mul(w0, g[1]), mul(w1, g[3])))

    # v_T_perp = (-1, a_T(xi)) annihilates v_T = a_T(xi) e1 + e2
    seed = canon(FieldElem(ring, -1).element(),
                 type_coefficient(spec.type_tag, root).element())
    index = {seed: 0}
    states = [seed]
    i = 0
    while i < len(states):
        w = states[i]
        for g in (g_black, g_white):
            w2 = canon(*act(w, g))
            if w2 not in index:
                if len(states) >= state_cap:
                    raise EnumerationCapExceeded(
                        f"more than {state_cap} cosets for {spec}")
                index[w2] = len(states)
                states.append(w2)
        i += 1

    n = len(states)
    black = tuple(index[canon(*act(states[k], g_black))] for k in range(n))
    white = tuple(index[canon(*act(states[k], g_white))] for k in range(n))
    region = tuple(index[canon(*act(states[k], g_region))] for k in range(n))
    sk = checked_skeleton(black, white)
    if sk.region != region:
        raise AssertionError("region permutation violates the composition "
                             "convention")
    return sk


def product_skeletons(s1, s2):
    """Product skeleton over the one-edge base, split into components.

    Edges are pairs, the black and white permutations act coordinatewise,
    and each orbit of the pair action is returned as its own skeleton (the
    region permutation is recomputed from the fixed convention).
    """
    e1, e2 = s1.edge_count, s2.edge_count

    def black(k):
        i, j = divmod(k, e2)
        return s1.black[i] * e2 + s2.black[j]

    def white(k):
        i, j = divmod(k, e2)
        return s1.white[i] * e2 + s2.white[j]

    n = e1 * e2
    comp_of = [-1] * n
    comps = []
    for start in range(n):
        if comp_of[start] >= 0:
            continue
        stack = [start]
        comp_of[start] = len(comps)
        members = [start]
        while stack:
            k = stack.pop()
            for f in (black(k), white(k)):
                if comp_of[f] < 0:
                    comp_of[f] = len(comps)
                    members.append(f)
                    stack.append(f)
        comps.append(sorted(members))
    skeletons = []
    for members in comps:
        local = {k: idx for idx, k in enumerate(members)}
        b = tuple(local[black(k)] for k in members)
        w = tuple(local[white(k)] for k in members)
        skeletons.append(checked_skeleton(b, w))
    return tuple(skeletons)


def verify_region_widths(sk, N):
    """True iff every region width divides N."""
    return all(N % w == 0 for w in sk.region_cycles().lengths)


def verify_distinct_lemma(sk, N):
    """Combinatorial check of the three incidence constraints.

    With 'essential' meaning region width not divisible by N: (1) each
    trivalent black vertex has at most one corner on an essential region,
    (2) the region at each monovalent vertex is trivial, (3) no edge joins
    two monovalent vertices.
    """
    region_of = {}
    essential = {}
    for idx, cyc in enumerate(cycle_tuples(sk.region_cycles())):
        for e in cyc:
            region_of[e] = idx
        essential[idx] = len(cyc) % N != 0
    for cyc in cycle_tuples(sk.black_cycles()):
        if len(cyc) == 3:
            corners = sum(1 for e in cyc if essential[region_of[e]])
            if corners > 1:
                return False
        else:
            if essential[region_of[cyc[0]]]:
                return False
    for cyc in cycle_tuples(sk.white_cycles()):
        if len(cyc) == 1 and essential[region_of[cyc[0]]]:
            return False
    for e in range(sk.edge_count):
        if sk.black[e] == e and sk.white[e] == e:
            return False
    return True


def skeleton_isomorphic(s1, s2):
    """Equivariant bijection test.

    The action is transitive and generated by the two permutations, so an
    isomorphism is determined by the image of one edge; every candidate
    image is tried and propagated.
    """
    if s1.edge_count != s2.edge_count:
        return False
    n = s1.edge_count
    for j0 in range(n):
        mapping = {0: j0}
        stack = [0]
        ok = True
        while stack and ok:
            e = stack.pop()
            f = mapping[e]
            for p1, p2 in ((s1.black, s2.black), (s1.white, s2.white)):
                e2, f2 = p1[e], p2[f]
                if e2 in mapping:
                    if mapping[e2] != f2:
                        ok = False
                        break
                else:
                    mapping[e2] = f2
                    stack.append(e2)
        if ok and len(mapping) == n and len(set(mapping.values())) == n:
            return True
    return False
