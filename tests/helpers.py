"""Checks and conveniences the tests use that nothing in the pipeline calls.

`resultant` is the subresultant PRS over Z, the reference for the sieve's
resultants by evaluation at the roots of unity, and `reference_fp_gcd`,
Euclid by quotient and remainder, is the reference for the package's
remainder-only gcd over F_p; `reference_fp_factor`, the equal-degree
split that divides f by one gcd, on the tests' own arithmetic
(`fp_reference`), is the reference for the package's split, which
divides nothing; `reference_unit_tables`, which takes each
power as a polynomial product of the last with a division, on base-p
codes, is the reference for the field tables the package steps by its
ring's product.  `sigma1_power`,
`sieve_determinant`, `determinant_D` and `resultant_with_cyclotomic`
build one sieve determinant and take its resultant in isolation, where
the sieve evaluates each unordered {u, w} once for every l;
`ordered_resultants` reads the pass's tuple of {u, w} in the orientation
(u, w), `nonunit_entries` lists a word set's nonunit resultants one by
one, and `reference_triples` takes its triples by the gcd of each
determinant with phi_N(-t) mod p, the reference for the sieve's orbit
rule, and `reference_orbit_key` keys one vector with an inverse of beta,
the reference for the pass's keys, which take none over an extension
field; `sweep_pairs` flattens a sweep to its classification;
`check_type_specification` and `type_ii_odd_width_excluded` state
lifting conditions of the paper that the pipeline does not apply; `bdeg`, `det` and `single_edge` are a braid
word's degree, a Burau matrix's determinant and the smallest skeleton;
`checked_skeleton` builds a Skeleton from any pair of sequences after
checking it on the edges, the validating constructor the package had
before its cache entries carried a certificate;
`reference_skeleton_fault` is its checks made with sets, the reference
for its set-free ones; `discovery_ordered` is the reference for the
breadth-first certificate of a cache entry;
`reference_cycles` walks the cycles of any permutation, the reference for
the skeleton's cycles, which read black's and white's off their orders,
and `cycle_tuples` cuts a skeleton's flat `Cycles` into one tuple per
cycle;
`reference_fibered_product` is the fibered product of two lifted
skeletons, pair by pair, the reference for the package's closed-form
product and the only product of the pairs it refuses, and
`reference_product_count` is the list-based count of one generator's
cycles on the edge pairs, the reference for the package's fused count;
`count_calls`
records the calls of a package function; `realized_types_alone` is the
addendum's conjugacy check with each type lifted and tested on its own;
`reference_trace_generates` decides by powers in the field's ring
whether xi + 1/xi generates F_q, the reference for the package's test on
p^e mod M; `reference_generator_cycles` reads the generator cycles off
the field's log tables, the closed form the package had before it read them with no
table, `reference_closed_form` lifts them to a signature, and
`reference_root_orders` reads N = ord(-xi) and M = ord(xi) off
`reference_unit_tables`; `generator_cycles_certified` compares the
package's integer logs with that reference, and
`closed_form_certified` compares the closed form with the walk over
lines and with the reference, cycle by cycle.
"""

import random
import sys
from collections import Counter
from itertools import islice, product
from math import gcd, lcm
from operator import eq

import sympy
from fp_reference import fp_add, fp_divmod, fp_mul, fp_trim

from burausieve.burau import BurauMatrix, specialize
from burausieve.exactalg import IntPoly, cyclotomic, fp_factor, order_mod, \
    power_by_squaring, quotient_ring, substitute_neg
from burausieve.intersect import FiberedProduct, conjugate_to_e2
from burausieve.sieve import _INFINITY, _UNDEFINED, _ZERO, \
    ExceptionalTriple, _SievePass, _require_distinct_projections
from burausieve.skeleton import _GENERATORS, Skeleton, UniversalGroupSpec, \
    _closed_form, _compose, _euler_genus, _fiber_cycles, _fiber_order, \
    _generator_cycles, _LineWalk, _signature_of, enumerate_universal, genus
from burausieve.typesys import admissible_types


# -- the subresultant PRS ----------------------------------------------------


def resultant(f, g):
    """Resultant over Z of the shift-cleared parts of f and g.

    Computed by the subresultant PRS, so it is exact for arbitrary integer
    coefficients.  Zero iff the inputs share a nonconstant factor over Q.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero polynomial")
    return _resultant_z(f.coeffs, g.coeffs)


def _deg(c):
    return len(c) - 1


def _content(c):
    return gcd(*c) or 1


def _prem(a, b):
    """Pseudo-remainder: lc(b)^(da-db+1) * a modulo b, in Z[t]."""
    a = list(a)
    da, db = _deg(a), _deg(b)
    lb = b[-1]
    for i in range(da - db, -1, -1):
        top = a[i + db]
        for j in range(len(a)):
            a[j] *= lb
        if top:
            for j in range(db + 1):
                a[i + j] -= top * b[j]
        a[i + db] = 0
    while a and a[-1] == 0:
        a.pop()
    return a


def _resultant_z(a, b):
    # subresultant PRS with content extraction
    a, b = list(a), list(b)
    s = 1
    if _deg(a) < _deg(b):
        if _deg(a) % 2 == 1 and _deg(b) % 2 == 1:
            s = -s
        a, b = b, a
    if _deg(b) < 0:
        raise ValueError("resultant of a zero polynomial")
    if _deg(a) == 0:
        return 1
    if _deg(b) == 0:
        return s * b[0] ** _deg(a)
    ca, cb = _content(a), _content(b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    scale = ca ** _deg(b) * cb ** _deg(a)
    g = h = 1
    while True:
        da, db = _deg(a), _deg(b)
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        a = b
        denom = g * h ** delta
        b = [x // denom for x in r]
        g = a[-1]
        h = _int_pow_div(g, delta, h)
        if _deg(b) == 0:
            break
    da = _deg(a)
    h = _int_pow_div(b[0], da, h)
    return s * scale * h


def _int_pow_div(g, delta, h):
    """h <- g^delta / h^(delta-1), exact by the subresultant theory."""
    if delta == 0:
        return h
    num = g ** delta
    den = h ** (delta - 1)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("subresultant invariant violated")
    return q


def reference_fp_gcd(a, b, p):
    """The monic gcd over F_p of two trimmed coefficient tuples, by
    Euclid with polynomial division."""
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    # a divided by its leading coefficient
    return fp_divmod(a, a[-1:], p)[0] if a else ()


def reference_fp_factor(f, d, p):
    """The monic irreducible factors of f over F_p, sorted as fp_factor
    sorts them, for f a product of distinct monic irreducibles of degree
    d, none of them t: the equal-degree split that divides.  A draw u of
    degree >= 1 is tried by gcd(u, f) first, and then by the gcd of f
    with u^((p^d - 1)/2) - 1, or with u's trace into F_2 for p = 2; a
    proper gcd g splits f into g and the quotient f / g.  Products are
    reduced by division, and gcds are reference_fp_gcd."""
    rng = random.Random(0x5EED)

    def split(f):
        n = len(f) - 1
        if n == d:
            return [f]

        def times(a, b):
            return fp_divmod(fp_mul(a, b, p), f, p)[1]

        while True:
            u = fp_trim([rng.randrange(p) for _ in range(n)])
            if len(u) < 2:
                continue
            g = reference_fp_gcd(u, f, p)
            if not 0 < len(g) - 1 < n:
                if p == 2:  # the trace map over F_{2^d}
                    w = v = u
                    for _ in range(d - 1):
                        v = times(v, v)
                        w = fp_add(w, v, p)
                else:
                    w = fp_add(power_by_squaring(u, (p ** d - 1) // 2, times, (1,)),
                               (p - 1,), p)
                g = reference_fp_gcd(w, f, p)
            if 0 < len(g) - 1 < n:
                return split(g) + split(fp_divmod(f, g, p)[0])

    return sorted(split(tuple(f)), key=lambda c: (len(c), c[::-1]))


def reference_root_orders(p, modulus):
    """(N, M) = (ord(-xi), ord(xi)) read off reference_unit_tables, or None
    when they refuse the monic modulus as reducible."""
    tables = reference_unit_tables(p, modulus)
    if tables is None:
        return None
    d, q, log = len(modulus) - 1, p ** (len(modulus) - 1), tables[1]
    xi = -modulus[0] % p if d == 1 else p
    minus_xi = -xi % p if d == 1 else (p - 1) * p
    return tuple((q - 1) // gcd(q - 1, log[code]) for code in (minus_xi, xi))


def reference_unit_tables(p, modulus):
    """(exp, log) of F_p[t]/(modulus) on base-p codes, for the generator
    exactalg._unit_tables picks, or None when the monic modulus is
    reducible, so that the powers of no code reach all q - 1 nonzero
    codes; each power is stepped from the last by a product and a
    reduction of polynomials, and the primes of q - 1 are taken from
    sympy."""
    d = len(modulus) - 1
    q = p ** d
    digits = [tuple(code // p ** i % p for i in range(d)) for code in range(q)]

    def times(a, b):
        prod = fp_divmod(fp_mul(digits[a], digits[b], p), modulus, p)[1]
        return sum(c * p ** i for i, c in enumerate(prod))

    cofactors = [(q - 1) // l for l in sympy.primefactors(q - 1)]
    g = next(g for g in range(1 if d == 1 else p, q)
             if all(power_by_squaring(g, c, times, 1) != 1 for c in cofactors))
    exp_t, code = [1], g
    while len(exp_t) < q - 1:
        exp_t.append(code)
        code = times(code, g)
    if code != 1:
        return None
    log_t = [0] * q
    for i, code in enumerate(exp_t):
        log_t[code] = i
    return exp_t, log_t


# -- sieve determinants ------------------------------------------------------


def bdeg(word):
    """Degree homomorphism: s1, s2 count 1, the scalar T counts 2."""
    return sum((2 if abs(c) == 3 else 1) * (1 if c > 0 else -1)
               for c in word.letters)


def det(m):
    """The determinant of a Burau matrix, in Z[t, t^-1]."""
    return m.a * m.d - m.b * m.c


def single_edge():
    """The one-edge skeleton of the full modular group."""
    return checked_skeleton((0,), (0,))


def checked_skeleton(black, white):
    """The Skeleton of black and white, sequences of ints, checked on the
    edges: the validating constructor, which the package no longer needs
    once the lift certifies its skeletons and Skeleton._from_entry checks
    cache entries.

    Every check but connectedness is a C-level pass, and the only
    temporaries are compositions, tuples of n entries: the entries'
    types, then min and max put the values in range(n), and there
    black^3 = 1 and white^2 = 1 make both permutations of range(n),
    since each has an inverse.  black^2 = black^-1 is composed once,
    for black^3 and for region = white o black^2.  Only a rejected pair
    is diagnosed, by `_permutation_fault`'s set-based tests, so that
    the message names the first check it fails.  Raises ValueError,
    also for a bool or a float entry, although True == 1 and 0.0 == 0.
    """
    black = tuple(black)
    white = tuple(white)
    n = len(black)
    if len(white) != n or n == 0:
        raise ValueError("permutations must share a nonempty edge set")
    if {*map(type, black), *map(type, white)} != {int}:
        raise ValueError("permutations must hold ints")
    if not (0 <= min(black) and max(black) < n
            and 0 <= min(white) and max(white) < n):
        raise ValueError(_permutation_fault(black, white))
    black2 = _compose(black, black)
    black3 = _compose(black, black2)
    if not (all(map(eq, black3, range(n)))
            and _compose(white, white) == black3):
        raise ValueError(_permutation_fault(black, white))
    del black3
    # connectedness under the two actions
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]
    for e in reached:
        f = black[e]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
        f = white[e]
        if not seen[f]:
            seen[f] = 1
            reached.append(f)
    if len(reached) != n:
        raise ValueError("skeleton is not connected")
    return Skeleton._certified(black, white, black2)


def _permutation_fault(black, white):
    """Why checked_skeleton rejects black and white, two tuples of ints of
    one nonempty length: the message of the first check they fail, in
    its order, tested with sets and lists.  checked_skeleton calls it
    only for a pair it rejects, so white fails its order when nothing
    else does."""
    identity = list(range(len(black)))
    edges = set(identity)
    if set(black) != edges or set(white) != edges:
        return "not a permutation of the edge set"
    black2 = list(map(black.__getitem__, black))
    if list(map(black.__getitem__, black2)) != identity:
        return "black permutation has order > 3"
    return "white permutation has order > 2"


def reference_skeleton_fault(black, white):
    """checked_skeleton's checks as sets, lists and a breadth-first walk,
    in its order: the ValueError message it raises for these
    permutations, or None when it accepts them.  The reference for its
    min/max and lazy comparisons."""
    black, white = tuple(black), tuple(white)
    n = len(black)
    if len(white) != n or n == 0:
        return "permutations must share a nonempty edge set"
    if not all(type(e) is int for e in black + white):
        return "permutations must hold ints"
    edges = set(range(n))
    if set(black) != edges or set(white) != edges:
        return "not a permutation of the edge set"
    identity = list(range(n))
    black2 = list(map(black.__getitem__, black))
    if list(map(black.__getitem__, black2)) != identity:
        return "black permutation has order > 3"
    if list(map(white.__getitem__, white)) != identity:
        return "white permutation has order > 2"
    reached = {0}
    frontier = [0]
    while frontier:
        e = frontier.pop()
        for f in (black[e], white[e]):
            if f not in reached:
                reached.add(f)
                frontier.append(f)
    if len(reached) != n:
        return "skeleton is not connected"
    return None


def discovery_ordered(black, white):
    """Whether each edge e >= 1 is black[f] or white[f] for some f < e:
    the labels in the order a walk from edge 0 can first meet them,
    tested by collecting images label by label.  The reference for
    Skeleton._from_entry's certificate, which compares each edge with
    its preimages."""
    images = set()
    for e in range(1, len(black)):
        images.update((black[e - 1], white[e - 1]))
        if e not in images:
            return False
    return True


def cycle_tuples(cycles):
    """A skeleton.Cycles as a tuple of its cycles, each the tuple of ints
    that cycles.lengths cuts from cycles.flat, in order."""
    ints = iter(cycles.flat)
    return tuple(tuple(islice(ints, length)) for length in cycles.lengths)


def reference_cycles(perm):
    """The cycles of perm, each walked from its smallest element, in the
    order of those elements."""
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = perm[j]
            cycles.append(tuple(cyc))
    return tuple(cycles)


def sigma1_power(l):
    """sigma1^l for l >= 0: [(-t)^l, ((-t)^l - 1)/(-t - 1); 0, 1]."""
    if l < 0:
        raise ValueError("negative power not needed here")
    # sum_{m<l} (-t)^m
    coeffs = [(-1) ** m for m in range(l)]
    return BurauMatrix(
        IntPoly(((-1) ** l,), l), IntPoly(coeffs),
        IntPoly.zero(), IntPoly.one(),
    )


def sieve_determinant(u, w, l):
    """D = det[s1^l u | w] over Z[t, t^-1], for the sieve's vectors u, w."""
    s1 = sigma1_power(l)
    return (s1.a * u[0] + s1.b * u[1]) * w[1] - u[1] * w[0]


def determinant_D(words, N, branch, t1, t2, i, j, l):
    """The sieve determinant det[s1^l b_i v_T' | b_j v_T''], shift-cleared.

    Whatever Laurent shift the determinant carries is dropped: the
    cyclotomic partner has constant term 1, so shifts never change whether
    a resultant vanishes or which primes divide it.
    """
    _require_distinct_projections(words)
    vecs = _SievePass(N).vectors(words, branch)
    return IntPoly(sieve_determinant(vecs[t1][i], vecs[t2][j], l).coeffs)


def resultant_with_cyclotomic(D, N):
    """Resultant of D against phi_N(-t) over Z."""
    if D.is_zero:
        raise ValueError("degenerate zero determinant")
    return resultant(D, substitute_neg(cyclotomic(N)))


def reference_resultants(u, w, N):
    """The PRS counterpart of exactalg.resultant(u, w, N): |Res| of each
    sieve determinant D_l against phi_N(-t), 0 where D_l is 0."""
    out = []
    for l in range(N):
        d = sieve_determinant(u, w, l)
        out.append(0 if d.is_zero else abs(resultant_with_cyclotomic(d, N)))
    return tuple(out)


def ordered_resultants(sieve_pass, u, w):
    """|Res(phi_N(-t), D_l(u, w))| for each l, as exactalg.resultant(u, w, N)
    gives them, from the pass's one tuple for {u, w}: when the pass holds
    (w, u), each l is read at -l mod N, by the swap identity
    exactalg.resultant(w, u, N)[l] == exactalg.resultant(u, w, N)[-l % N]."""
    res = sieve_pass.resultants_of(u, w)
    if (u, w) in sieve_pass.resultants:
        return res
    return tuple(res[-l % sieve_pass.N] for l in range(sieve_pass.N))


def nonunit_entries(sieve_pass, words, branch):
    """The (T', u, w, l, |Res|) of each nonunit resultant of the word set on
    one branch, for every (T', T'', i, j, l) but the zero (T, T, i, i, 0),
    each ordered pair read by ordered_resultants, where the sieve reads
    each unordered pair once and keeps only the distinct |Res|."""
    vecs = sieve_pass.vectors(words, branch)
    out = []
    for t1, t2 in product(branch.types, repeat=2):
        for (i, u), (j, w) in product(enumerate(vecs[t1]), enumerate(vecs[t2])):
            res = ordered_resultants(sieve_pass, u, w)
            out += [(t1, u, w, l, res[l])
                    for l in range(int(t1 == t2 and i == j), sieve_pass.N)
                    if res[l] != 1]
    return out


def reference_triples(sieve_pass, words, branch):
    """The exceptional triples of one word set on one branch, by the gcd:
    for each prime p of each nonunit |Res| (nonunit_entries) that the
    branch accepts and that does not divide N, the irreducible factors of
    gcd(D_l, phi_N(-t)) mod p, with D_l built on its own and the gcd split
    at degree ord_N(p)."""
    N = sieve_pass.N
    cyc = substitute_neg(cyclotomic(N))
    primes, triples = {}, set()
    for tag, u, w, l, r in nonunit_entries(sieve_pass, words, branch):
        if r not in primes:
            primes[r] = [p for p in sympy.primefactors(r)
                         if N % p and branch.accepts_prime(p)]
        if not primes[r]:
            continue
        d = sieve_determinant(u, w, l)
        for p in primes[r]:
            g = reference_fp_gcd(d.reduce_mod(p), cyc.reduce_mod(p), p)
            if len(g) > 1:
                triples.update(ExceptionalTriple(p, IntPoly(f), tag)
                               for f in fp_factor(g, order_mod(p, N), p))
    return triples


def reference_orbit_key(sieve_pass, v, p, k):
    """The orbit key of the vector v's point [alpha(v) : beta(v)] at the
    k-th factor m of phi_N(-t) mod p, one vector at a time: sigma^N for
    sigma = alpha / beta, with beta inverted in quotient_ring(p, m) (by
    the extended Euclid, or as b^(q-2) over F_2), and the pass's markers
    at the points mu_N fixes."""
    ring = quotient_ring(p, sieve_pass.cyclotomic_factors(p)[k].coeffs)
    alpha, beta = sieve_pass.point(v)
    x, y = ring.residue(alpha), ring.residue(beta)
    if not y:
        return _INFINITY if x else _UNDEFINED
    if not x:
        return _ZERO
    return ring.pow(ring.mul(x, ring.pow(y, -1)), sieve_pass.N)


def sweep_pairs(results):
    """The classification a sweep implies: sorted (p, minPoly, N) survivors."""
    out = []
    for N in sorted(results):
        for s in results[N]["survivors"]:
            out.append((s["p"], s["minPoly"], N))
    return sorted(out)


def type_ii_odd_width_excluded(spec):
    """True when type II cannot be realized on an odd-width region."""
    return spec.p != 2 and spec.M % 2 == 1


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
    widths = sk.region_cycles().lengths
    if len(region_types) != len(widths):
        raise ValueError("one type value per region required")
    blacks = sk.black_cycles().lengths.count(1)
    whites = sk.white_cycles().lengths.count(1)
    if len(black_types) != blacks or len(white_types) != whites:
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


def count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call of owner.name, also
    under any other name a package module binds it to."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("burausieve."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def realized_types_alone(root):
    """(realized, ok): the admissible tags of root whose skeleton, lifted
    on its own, has genus zero, and whether conjugate_to_e2 holds for
    each of them."""
    realized = [tag for tag in sorted(admissible_types(root)) if genus(
        enumerate_universal(UniversalGroupSpec(root, tag, "bu3"))) == 0]
    return realized, all(conjugate_to_e2(UniversalGroupSpec(root, tag, "bu3"))
                         for tag in realized)


# -- the fibered product of lifted skeletons ---------------------------------


def _region_lengths(sk):
    """The length of the region cycle through each edge."""
    out = [0] * sk.edge_count
    for cyc in cycle_tuples(sk.region_cycles()):
        for e in cyc:
            out[e] = len(cyc)
    return out


def reference_product_count(base1, base2, r1, r2):
    """The cycles of one generator on the edge pairs of two factors, from
    its (L, o, count) cycles on each factor's lines with fibers Z/r1 and
    Z/r2, as the package counted them before it fused the count: a list
    of (order 1, order 2, count) for the gcd(L1, L2) pair cycles of each
    two cycles, of length l = lcm(L1, L2), whose voltage has the orders
    o1 / gcd(o1, l / L1) and o2 / gcd(o2, l / L2), then r1 r2 / lcm of
    them lifted cycles for each."""
    cycles = [(o1 // gcd(o1, l // L1), o2 // gcd(o2, l // L2),
               c1 * c2 * gcd(L1, L2))
              for L1, o1, c1 in base1 for L2, o2, c2 in base2
              for l in [lcm(L1, L2)]]
    return sum(count * r1 * r2 // lcm(o1, o2) for o1, o2, count in cycles)


def reference_fibered_product(s1, s2):
    """Edges and genus of each component of the product over the one-edge base.

    Edges are pairs k = i * e2 + j, and the black and white permutations
    act coordinatewise; so does the region permutation, so a pair whose
    coordinates lie on region cycles of lengths x and y lies on one of
    length lcm(x, y).  One labelling pass sums, per component, its pairs E,
    its black- and white-fixed pairs and F * L = sum of L / lcm(x, y), with
    L the lcm of both factors' widths.  Black has order 3 and white order 2
    because they do on the factors, so V = (E + 2 fix_black) / 3 +
    (E + fix_white) / 2 and F = (F * L) / L, and Euler's formula gives the
    genus.  A component is connected because it is labelled by its walk.
    """
    e1, e2 = s1.edge_count, s2.edge_count
    b1, w1, b2, w2 = s1.black, s1.white, s2.black, s2.white
    len1, len2 = _region_lengths(s1), _region_lengths(s2)
    widths1, widths2 = sorted(set(len1)), sorted(set(len2))
    L = lcm(*widths1, *widths2)
    # weight[x1[i] + y2[j]] = L / lcm(x, y) for the widths x, y through i, j
    weight = [L // lcm(x, y) for x in widths1 for y in widths2]
    row = {x: a * len(widths2) for a, x in enumerate(widths1)}
    col = {y: c for c, y in enumerate(widths2)}
    x1 = [row[x] for x in len1]
    y2 = [col[y] for y in len2]

    seen = bytearray(e1 * e2)
    components = []
    for start in range(e1 * e2):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        edges = fix_black = fix_white = faces_l = 0
        while stack:
            k = stack.pop()
            i, j = divmod(k, e2)
            edges += 1
            faces_l += weight[x1[i] + y2[j]]
            f = b1[i] * e2 + b2[j]
            if f == k:
                fix_black += 1
            elif not seen[f]:
                seen[f] = 1
                stack.append(f)
            f = w1[i] * e2 + w2[j]
            if f == k:
                fix_white += 1
            elif not seen[f]:
                seen[f] = 1
                stack.append(f)
        if (edges + 2 * fix_black) % 3 or (edges + fix_white) % 2 or faces_l % L:
            raise AssertionError("product cycle counts are not integral")
        vertices = (edges + 2 * fix_black) // 3 + (edges + fix_white) // 2
        components.append((edges, _euler_genus(vertices, edges, faces_l // L)))
    return FiberedProduct(e1, e2, tuple(components))


def reference_trace_generates(root):
    """N >= 7, and s = xi + 1/xi lies in no proper subfield of F_q:
    s^(p^e) != s for every proper divisor e of deg m, by powers in the
    field's ring."""
    ring = root.ring
    s = ring.add(ring.gen, ring.pow(ring.gen, -1))
    d, p = ring.degree, ring.p
    return root.N >= 7 and all(s and ring.pow(s, p ** e) != s
                               for e in range(1, d) if d % e == 0)


def reference_closed_form_cycles(g, n0, root):
    """The (length, net voltage, count) cycles of the specialized matrix g
    of black, white or region on all q + 1 lines, read off the field's log
    tables.

    g's projective order n divides n0 (3, 2 and N), and g^n = c I.  If
    n > 1, g's fixed lines are its eigenlines: the eigenvalues are the n-th
    roots lambda of c, read off the log table, that solve
    lambda^2 - tr lambda + det = 0, and each fixed line has the voltage
    log lambda.  A power g^L with L < n is not scalar, so it fixes only g's
    eigenlines, and the other lines form cycles of length n, each of net
    voltage log c.  The voltages are logs in F_q*, not yet reduced mod r.
    """
    ring = root.ring
    q, (exp, log) = ring.order, ring.unit_tables
    add, sub, mul = ring.add, ring.sub, ring.mul
    power, n = g, 1
    while power[1] or power[2] or power[0] != power[3]:
        assert n < n0, str(root)
        a0, a1, a2, a3 = power
        power = (add(mul(a0, g[0]), mul(a1, g[2])),
                 add(mul(a0, g[1]), mul(a1, g[3])),
                 add(mul(a2, g[0]), mul(a3, g[2])),
                 add(mul(a2, g[1]), mul(a3, g[3])))
        n += 1
    assert n0 % n == 0, str(root)
    e = log[power[0]]  # g^n = c I, e = log c
    eigen = []  # the logs of g's eigenvalues in F_q
    h = gcd(n, q - 1)
    if n > 1 and e % h == 0:
        tr = add(g[0], g[3])
        det = sub(mul(g[0], g[3]), mul(g[1], g[2]))
        m = (q - 1) // h  # n x = e mod q - 1 iff x = x0 mod m
        x0 = e // h * pow(n // h, -1, m) % m
        for x in range(x0, q - 1, m):
            lam = exp[x]
            if not add(sub(mul(lam, lam), mul(tr, lam)), det):
                eigen.append(x)
    rest = q + 1 - len(eigen)
    assert rest % n == 0, str(root)
    return [(1, x, 1) for x in eigen] + [(n, e, rest // n)]


def reference_generator_cycles(root):
    """reference_closed_form_cycles of black, white and region."""
    return [reference_closed_form_cycles(specialize(_GENERATORS[name],
                                                    root.ring), n0, root)
            for name, n0 in (("black", 3), ("white", 2), ("region", root.N))]


def reference_closed_form(spec):
    """The closed form's signature and genus from
    reference_generator_cycles: each voltage mu has the order
    r / gcd(r, mu) in Z/r."""
    r = _fiber_order(spec)
    return _signature_of(spec, spec.root.ring.order + 1, r, [
        [(length, r // gcd(r, mu), count) for length, mu, count in base]
        for base in reference_generator_cycles(spec.root)])


def generator_cycles_certified(spec):
    """The integer generator cycles of spec's root are the reference's
    (reference_generator_cycles) up to the choice of generator: the same
    lengths and counts, with each log times a unit j of Z/(q - 1) that
    takes c = (q - 1) / M, the package's log of xi, to the table's log of
    xi; and in spec's ambient their orders in Z/r are those of the
    reference's voltages mod r."""
    root = spec.root
    r = _fiber_order(spec)
    n1 = root.ring.order - 1
    c, log_xi = n1 // root.M, root.ring.unit_tables[1][root.ring.gen]
    assert log_xi % c == 0 and gcd(log_xi // c, root.M) == 1, str(spec)
    j = log_xi // c % root.M
    while gcd(j, n1) != 1:
        j += root.M
    reference = reference_generator_cycles(root)
    assert [Counter(base) for base in reference] == \
        [Counter((length, j * a % n1, count) for length, a, count in base)
         for base in _generator_cycles(root)], str(spec)
    assert [Counter((length, r // gcd(r, mu), count)
                    for length, mu, count in base) for base in reference] == \
        [Counter(base) for base in _fiber_cycles(spec)], str(spec)


def closed_form_certified(spec):
    """The walk of spec reaches all q + 1 lines with K = Z/r; it and the
    reference closed form agree on each generator's cycles on lines,
    counted by (length, net voltage mod r); the integer cycles are the
    reference's (generator_cycles_certified); and the closed form gives
    the walk's signature and genus, which it returns."""
    walk = _LineWalk(spec)
    assert len(walk.lines) == spec.root.ring.order + 1 and walk.k == walk.r, \
        str(spec)

    def counted(cycles):
        counts = Counter()
        for length, mu, count in cycles:
            counts[length, mu % walk.r] += count
        return counts

    assert [counted(walk.cycles(step))
            for step in (walk.black, walk.white, walk.region)] == \
        [counted(cycles) for cycles in reference_generator_cycles(spec.root)], \
        str(spec)
    generator_cycles_certified(spec)
    walked = walk.signature()
    assert _closed_form(spec, 10 ** 6) == walked, str(spec)
    return walked
