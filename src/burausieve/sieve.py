"""The resultant sieve.

For a fixed order N >= 7 and a set B of braid words with distinct modular
projections, the sieve takes the resultants against phi_N(-t) of the 2x2
determinants D_{ij,l}(T', T'') = det[s1^l b_i v_{T'} | b_j v_{T''}] over
Z[t, t^-1].  If all resultants are nonzero the set is informative, and its
nonunit resultants carry the only primes p and minimal polynomials m that
can support a genus-zero realization; those (p, m, T) triples are the
exceptional candidates handed to the genus filter.  One pass per N serves
all its word sets and branches.  A determinant depends only on
u = b_i v_{T'}, w = b_j v_{T''} and l, and exactalg.resultant evaluates u
and w once at the roots of phi_N(-t) for the resultants of every l; the
pass hands it each vector's values at the roots, computed once per
prime, and the 1-norms its bound reads, once per vector.  The two
orientations of a pair share their resultants: s1 has determinant -t and
s1^N = I mod phi_N(-t) (the entries of s1^N - I are (-t)^N - 1 and b_N,
multiples of phi_N(-t)), so

    D_l(u, w) = (-t)^l det[u | s1^-l w] = -(-t)^l D_{-l mod N}(w, u)

mod phi_N(-t), where (-t)^l is a unit, and |Res_l(u, w)| equals
|Res_{-l mod N}(w, u)|.  So each unordered pair {u, w} of a set's vectors
is read once, in the orientation it was first evaluated in, and (u, u)
from l = 1, since D_0(u, u) = 0; a set with one vector twice has that
zero D_0 and is not informative.  A set stops at its first zero.

Only the first informative set's nonunit resultants are read, for their
primes, so only its pairs are evaluated exactly.  A later set needs to
know only that none of its resultants is 0, and certifies each pair it
holds no tuple for at one root (_SievePass.nonzero): D_l has integer
coefficients, so Res(phi_N(-t), D_l) is 0 exactly when D_l vanishes at
one zero -zeta of phi_N(-t), zeta a primitive N-th root of unity, and a
value there nonzero mod P = unity_prime(N, 0)[0] proves it does not.
Only a value 0 mod P falls back to the exact resultant.  The sweep
N = 7..26 evaluates 522 pairs, which its first sets read 750 times; its
later sets read 305 held tuples and certify 609 pairs 834 times, with no
fallback.

Every informative set is then decided by an orbit rule on the projective
line.  (p, m, T) is carried when m, an irreducible factor of phi_N(-t) mod
p, divides mod p some determinant D_l(u, w) with u of type T.  With
alpha(v) = (1 + t) v0 - v1 and beta(v) = v1,

    (1 + t) D_l = (-t)^l beta(w) alpha(u) - beta(u) alpha(w),

so at the root theta of m, where zeta = -theta has order N (so neither
theta nor 1 + theta = 1 - zeta is 0), m divides D_l exactly when
zeta^l [alpha(u) : beta(u)] = [alpha(w) : beta(w)] on P^1(F_q),
F_q = F_p[t]/(m), or one point is undefined (alpha = beta = 0).
Some l works exactly when the two points lie in one orbit of mu_N = <zeta>:
{0}, {infinity}, or the points of one value of sigma^N, sigma = alpha/beta.
So each vector gets one key per factor (_SievePass.orbit_keys), and a type
is carried when one of its vectors has a point fixed by mu_N (0, infinity
or undefined: the pair (u, u), l > 0) or shares its key with another
vector of the set; an undefined point carries every type.  A hit forces p
to divide that |Res|, so the first set keys only at the factors of its
nonunit resultants' primes, each |Res| factored once per pass; a later
set can only shrink the intersection, so it keys only at the (p, m) still
held, and intersects their type tags.  No resultant entry is scanned and
no gcd is taken.

The coefficient a_T depends on M = ord(xi), which in turn depends on the
characteristic, so everything runs per branch (p = 2, p = 3, p odd) with M
fixed, and extracted primes inconsistent with the branch are discarded.
So are the primes dividing N: phi_N is separable mod p exactly when p
does not divide N, and its roots are then the primitive N-th roots of
unity, so every factor of phi_N(-t) mod such a p has ord(-xi) = N and
degree ord_N(p), while for p | N none has ord(-xi) = N.  The sieve builds
no field; the genus filter builds one per candidate, which proves the
factor irreducible and finds its order with no table (typesys.root_spec),
and asserts the order there.  All factors of one (N, p) share the field
size q, and a closed form depends only on q, N and the ambient
(skeleton._closed_form), so the filter reads one per (N, p), 65 for the
sweep's 252 closed roots, and checks each root's tags and flatness on
its own.
"""

from __future__ import annotations

from .burau import BraidWord, modular_projection, to_burau
from .exactalg import IntPoly, Value, cyclotomic_factors, prime_factors, \
    quotient_ring, resultant, unity_tables, unity_value, unity_values, \
    vector_norms
from .skeleton import DEFAULT_STATE_CAP, euler_lhs, orbit_signatures
from .typesys import epsilon_p, k_threshold, root_spec, \
    type_coefficient_laurent, type_tags

SWEEP_RANGE = (7, 26)

# the orbit keys of the points of P^1(F_q) that mu_N fixes (see
# _SievePass.orbit_keys); every other key is an element of F_q^*
_UNDEFINED, _ZERO, _INFINITY = "undefined", "zero", "infinity"
_FIXED = frozenset((_UNDEFINED, _ZERO, _INFINITY))


class SieveBranch(Value):
    """One characteristic class of a sweep value N, with its fixed M;
    char_class is "p=2", "p odd" or "p=3"."""

    __slots__ = ("char_class", "M", "types")

    def __init__(self, char_class, M, types):
        self.char_class, self.M, self.types = char_class, M, types

    def accepts_prime(self, p):
        if self.char_class == "p=2":
            return p == 2
        if self.char_class == "p=3":
            return p == 3
        return p % 2 == 1 and p != 3


def branches_for(N):
    """The valid characteristic branches for this N.

    p = 2 needs N odd (xi generates an odd-order group) and p = 3 needs
    3 not dividing N, since N divides the unit group order p^d - 1.
    """
    out = []
    if N % 2 == 1:
        out.append(SieveBranch("p=2", N, type_tags(N, False)))
    M = epsilon_p(N, 0)
    out.append(SieveBranch("p odd", M, type_tags(M, False)))
    if N % 3 != 0:
        out.append(SieveBranch("p=3", M, type_tags(M, True)))
    return out


class ExceptionalTriple(Value):
    """A sieve survivor candidate: prime, minimal polynomial, type tag."""

    __slots__ = ("p", "min_poly", "type_tag")

    def __init__(self, p, min_poly, type_tag):
        self.p, self.min_poly, self.type_tag = p, min_poly, type_tag

    def sort_key(self):
        return (self.p, str(self.min_poly), self.type_tag)

    def __str__(self):
        return f"({self.p}, {self.min_poly}, {self.type_tag})"


def _require_distinct_projections(words):
    seen = {}
    for w in words:
        pr = modular_projection(w)
        if pr in seen:
            raise ValueError(
                f"words {seen[pr]!s} and {w!s} share a modular projection")
        seen[pr] = w


def parse_word_set(texts):
    return [BraidWord.parse(t) for t in texts]


class _Vector(tuple):
    """A vector b_i v_T, a pair of IntPoly, as a pass hands it out.  The
    pass interns every vector it makes, one object per distinct value, so
    identity is equality: its memos key vectors by identity and hash no
    polynomial."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


class _SievePass:
    """What one N fixes, shared by every word set and branch sieved at N.

    A determinant depends only on u = b_i v_T', w = b_j v_T'' and l, which
    recur across word sets (e is in every configured set for N = 7..10)
    and across branches (v_I and v_II do not depend on M).  A pair is
    held in the orientation it was first evaluated in, and read in it
    whichever way it is asked for (see the module docstring).  The memos
    are keyed by the pass's interned vectors (_Vector), and last as long
    as the pass.
    """

    def __init__(self, N):
        self.N = N
        self.branches = branches_for(N)
        self.interned = {}  # (u0, u1) -> its one _Vector in this pass
        self.matrices = {}  # word -> its Burau matrix
        self.word_vectors = {}  # (word, a_T) -> b v_T, interned
        self.resultants = {}  # (u, w) -> |Res(phi_N(-t), D_l)| for each l
        self.values = {}  # (v, index) -> v at the roots of unity_prime(N, index)
        self.root_values = {}  # v -> v at the one root that nonzero reads
        self.vector_norms = {}  # v -> the 1-norms of its two entries
        self.primes = {}  # |Res| -> its primes not dividing N
        self.cyclotomic = {}  # p -> the irreducible factors of phi_N(-t) mod p
        self.points = {}  # v -> the coefficients of alpha(v), beta(v)
        self.keys = {}  # (p, factor index) -> {v: the orbit key of v's point}

    def vectors(self, words, branch):
        """Type tag -> the vectors b_i v_T of the words, on this branch, each
        the pass's one _Vector of its value."""
        out = {}
        for tag in branch.types:
            a = type_coefficient_laurent(tag, branch.M,
                                         branch.char_class == "p=3")
            out[tag] = [self.vector(w, a) for w in words]
        return out

    def vector(self, word, a):
        """b v_T = b (a_T, 1) for the word b and a = a_T, built once per
        pass from the word's one Burau matrix."""
        key = (word, a)
        v = self.word_vectors.get(key)
        if v is None:
            matrix = self.matrices.get(word)
            if matrix is None:
                matrix = self.matrices[word] = to_burau(word)
            v = matrix.apply((a, IntPoly.one()))
            v = self.interned.setdefault(v, _Vector(v))
            self.word_vectors[key] = v
        return v

    def resultants_of(self, u, w):
        """|Res(phi_N(-t), D_l)| for D_l = det[s1^l u | w], indexed by l and
        0 where D_l is 0, evaluated once per unordered {u, w}: the tuple
        held for (w, u) if that one was evaluated first, which is that of
        (u, w) read at -l mod N."""
        res = self.resultants.get((u, w)) or self.resultants.get((w, u))
        if res is None:
            res = self.resultants[u, w] = resultant(
                u, w, self.N, evaluate=self.evaluate, norms=self.norms)
        return res

    def evaluate(self, v, index):
        """exactalg.unity_values(f, N, index) of both entries f of the
        vector v, once per pass."""
        key = (v, index)
        if key not in self.values:
            self.values[key] = [unity_values(f, self.N, index) for f in v]
        return self.values[key]

    def norms(self, v):
        """exactalg.vector_norms(v), once per pass."""
        if v not in self.vector_norms:
            self.vector_norms[v] = vector_norms(v)
        return self.vector_norms[v]

    def nonzero(self, u, w):
        """Whether no |Res(phi_N(-t), D_l)| of the pair is 0, for l from 1
        when w is u (D_0(u, u) = 0) and from 0 otherwise: read off the
        tuple held for {u, w} if there is one, and otherwise certified at
        one root, which evaluates no resultant.

        D_l has integer coefficients and Res(phi_N(-t), D_l) is
        +-prod_zeta D_l(-zeta) over the primitive N-th roots of unity zeta.
        The Galois group of Q(zeta) permutes them transitively, and maps
        D_l(-zeta) to D_l(-zeta'), so the resultant is 0 exactly when
        D_l(-zeta) = 0 at one zeta.  P = unity_prime(N, 0)[0] holds a
        primitive N-th root of unity z, a zero of phi_N mod P, so
        zeta -> z is a ring map Z[zeta] -> F_P, and it sends D_l(-zeta) to
        D_l(-z) mod P: a nonzero D_l(-z) mod P proves D_l(-zeta) nonzero.
        At the first root of unity_tables(N, 0), D_l(-z) = z^l X - Y mod P
        with resultant's X and Y, free of l, from u's and w's values there
        (root_value).  Only a pair with some z^l X - Y = 0 mod P falls back
        to resultants_of, which decides exactly; a certified pair holds
        no tuple."""
        first = int(w is u)
        res = self.resultants.get((u, w)) or self.resultants.get((w, u))
        if res is None:
            P, roots = unity_tables(self.N, 0)
            zeta_powers, inv = roots[0]
            (a0, a1), (b0, b1) = self.root_value(u), self.root_value(w)
            c = a1 * b1 * inv
            X, Y = a0 * b1 + c, a1 * b0 + c
            if all((z * X - Y) % P for z in zeta_powers[first:]):
                return True
            res = self.resultants_of(u, w)
        return 0 not in res[first:]

    def root_value(self, v):
        """Both entries of the vector v at the zero -z of phi_N(-t) mod
        P = unity_prime(N, 0)[0] that nonzero reads, once per pass."""
        if v not in self.root_values:
            P, roots = unity_tables(self.N, 0)
            self.root_values[v] = [unity_value(f, roots[0][0], P) for f in v]
        return self.root_values[v]

    def nonunit(self, words, branches=None, moduli=True):
        """Branch -> (vectors, moduli): the type tag -> vectors map of B on
        the branch (see vectors) and the set of its distinct nonunit
        resultants |Res|, on every branch by default; None if B is not
        informative for N: it has fewer than k_N words, one vector twice,
        or some zero resultant, which proves nothing else, so the pass
        stops there.  The vectors of all types are listed in order, and
        each unordered pair of them decided once by nonzero (see the
        module docstring).  Only carried reads the moduli, and only for
        the first informative set, so only moduli=True evaluates each
        pair's tuple; with moduli=False they are None, and a pair with no
        held tuple is certified at one root."""
        if len(words) < k_threshold(self.N):
            return None
        _require_distinct_projections(words)
        out = {}
        for branch in branches or self.branches:
            vecs = self.vectors(words, branch)
            listed = [v for tag in branch.types for v in vecs[tag]]
            if len(set(listed)) < len(listed):
                return None
            found = set()
            for i, u in enumerate(listed):
                for w in listed[i:]:
                    if moduli:
                        # (u, u, 0) is skipped: its determinant is 0
                        found.update(self.resultants_of(u, w)[int(w is u):])
                    if not self.nonzero(u, w):
                        return None
            out[branch] = vecs, found - {1} if moduli else None
        return out

    def carried(self, vecs, moduli, branch, held=None):
        """(p, k) -> the type tags T such that one branch's vectors carry
        (p, m, T), for m the k-th factor of phi_N(-t) mod p (see
        carried_types), given the type tag -> vectors map and the nonunit
        resultants `moduli` that nonunit gives.  With no `held`, every
        factor of phi_N(-t) mod p is keyed, for each prime p of the moduli
        that the branch accepts and that does not divide N: a hit puts m
        in gcd(D_l, phi_N(-t)) mod p, so p divides that |Res|.  With
        `held`, such a map of the sets before, only its (p, k) are keyed,
        and its tags intersected with those carried."""
        if held is None:
            primes = set()
            for r in moduli:
                if r not in self.primes:
                    self.primes[r] = [p for p in prime_factors(r) if self.N % p]
                primes.update(p for p in self.primes[r] if branch.accepts_prime(p))
            held = {(p, k): set(vecs) for p in primes
                    for k in range(len(self.cyclotomic_factors(p)))}
        kept = {}
        for (p, k), tags in held.items():
            types = self.carried_types(vecs, p, k) & tags
            if types:
                kept[p, k] = types
        return kept

    def triples(self, held):
        """The ExceptionalTriples of a (p, k) -> type tags map (see
        carried)."""
        return {ExceptionalTriple(p, self.cyclotomic_factors(p)[k], tag)
                for (p, k), tags in held.items() for tag in tags}

    def carried_types(self, vecs, p, k):
        """The type tags T of vecs with a vector u such that the k-th factor
        m of phi_N(-t) mod p divides D_l(u, w) mod p for some vector w of
        vecs and some l, l > 0 when w is u, by the orbit rule (see the
        module docstring): w is hit from u exactly when their points on
        P^1(F_q) lie in one mu_N-orbit, that is share an orbit key; u is
        hit from itself exactly when mu_N fixes its point (0, infinity or
        undefined); and an undefined point is hit from every u, so it
        carries every type."""
        keys = self.orbit_keys([v for vs in vecs.values() for v in vs], p, k)
        seen, shared = set(), set()
        for key in keys:
            (shared if key in seen else seen).add(key)
        if _UNDEFINED in seen:
            return set(vecs)
        tags = [tag for tag, vs in vecs.items() for _ in vs]
        return {tag for tag, key in zip(tags, keys)
                if key in shared or key in _FIXED}

    def orbit_keys(self, vectors, p, k):
        """The mu_N-orbit keys of the points [alpha(v) : beta(v)] of
        P^1(F_q) of the vectors v, in order, at the root theta of the k-th
        factor m of phi_N(-t) mod p (see carried_types), each once per
        pass, in one loop per call: _UNDEFINED, _ZERO or _INFINITY at the
        fixed points, and otherwise sigma^N for sigma = alpha/beta, the
        same for two points exactly when they lie in one orbit, since mu_N
        is the whole N-torsion of the cyclic group F_q^*.

        For a linear m, theta = -m(0) is in F_p: alpha and beta are read
        at it by Horner inline (as exactalg._fp_eval), with no call per
        vector, and the key is an int; this path is kept apart from the
        one below on a paired measurement (see CHANGES.md).  Otherwise the
        key is reached in exactalg.quotient_ring(p, m), with no table of
        F_q and no inverse: N divides q - 1, as zeta = -theta has order N
        in F_q^*, so let g = (q - 1) / N.  A nonzero y has y^(q-1) = 1, so
        y^-N = y^(q-1-N) = y^(N(g-1)) and

            (x / y)^N = x^N y^(N(g-1)) = (x y^(g-1))^N.

        When g = 1, mu_N is all of F_q^*, which is then one orbit: every
        point off 0 and infinity has the key (x y^0)^N = x^(q-1) = 1."""
        known = self.keys.setdefault((p, k), {})
        new = [v for v in vectors if v not in known]
        if new:
            N, points = self.N, self.points
            m = self.cyclotomic_factors(p)[k].coeffs
            if len(m) == 2:
                theta = -m[0] % p
                for v in new:
                    alpha, beta = points[v] if v in points else self.point(v)
                    x = y = 0
                    for c in reversed(alpha):
                        x = (x * theta + c) % p
                    for c in reversed(beta):
                        y = (y * theta + c) % p
                    known[v] = (pow(x * pow(y, -1, p), N, p) if x and y
                                else _ZERO if y else
                                _INFINITY if x else _UNDEFINED)
            else:
                ring = quotient_ring(p, m)
                residue, mul, power = ring.residue, ring.mul, ring.pow
                g = (ring.order - 1) // N
                for v in new:
                    alpha, beta = points[v] if v in points else self.point(v)
                    x, y = residue(alpha), residue(beta)
                    known[v] = (power(mul(x, power(y, g - 1)), N) if x and y
                                else _ZERO if y else
                                _INFINITY if x else _UNDEFINED)
        return [known[v] for v in vectors]

    def point(self, v):
        """The coefficient lists of alpha(v) = (1 + t) v0 - v1 and
        beta(v) = v1 (see carried_types), both multiplied by the one power
        of t that makes them polynomials, which leaves their point
        [alpha : beta] unchanged."""
        if v not in self.points:
            v0, v1 = v
            low = min(v0.shift, v1.shift)
            beta = [0] * (v1.shift - low) + list(v1.coeffs)
            alpha = [0] * max(v0.shift + len(v0.coeffs) + 1 - low, len(beta))
            for i, c in enumerate(v0.coeffs, v0.shift - low):
                alpha[i] += c
                alpha[i + 1] += c
            for i, c in enumerate(beta):
                alpha[i] -= c
            self.points[v] = alpha, beta
        return self.points[v]

    def cyclotomic_factors(self, p):
        """The irreducible factors of phi_N(-t) mod p, once per pass."""
        if p not in self.cyclotomic:
            self.cyclotomic[p] = cyclotomic_factors(self.N, p)
        return self.cyclotomic[p]

    def sieve(self, word_sets):
        """Split the word sets into the informative ones and the rest, and
        map each branch to the triples that every informative set recorded
        on it (a genuine root is caught by every informative set).  The
        first informative set's (p, k) -> types are found in full, from its
        resultants; each later set, certified nonzero with none evaluated
        but those a zero mod P needs (nonzero), keys only those and keeps
        the types it also carries."""
        usable, rejected, held = [], [], {}
        for words in word_sets:
            nonunit = self.nonunit(words, moduli=not held)
            if nonunit is None:
                rejected.append(words)
                continue
            held = {branch: self.carried(vecs, moduli, branch, held.get(branch))
                    for branch, (vecs, moduli) in nonunit.items()}
            usable.append(words)
        return usable, rejected, {branch: self.triples(kept)
                                  for branch, kept in held.items()}


def is_informative(words, N, branch):
    """Size at least k_N and every resultant nonzero, on this branch."""
    return _SievePass(N).nonunit(words, [branch], moduli=False) is not None


def exceptional_triples(N, word_sets):
    """Candidate triples for N: per-branch intersection over the sets.

    Every set must be informative for N on every valid branch; the triples
    recorded by each set are intersected per branch, then the branches'
    contributions are united.
    """
    if not word_sets:
        raise ValueError("at least one candidate set required")
    _, rejected, by_branch = _SievePass(N).sieve(word_sets)
    if rejected:
        raise ValueError(f"set {[str(w) for w in rejected[0]]} is not "
                         f"informative for N={N}")
    return frozenset().union(*by_branch.values())


# -- default candidate sets -------------------------------------------------

# beta1 and beta2 below are the denominators-cleared words t*s2*s1^-1 and
# t*s2^-1*s1; the sets for 7 <= N <= 10 need several elements, the rest get
# by with singletons.  Informativeness is never assumed: every run
# re-verifies it, and full_sweep falls back to these sets for an N none of
# whose configured sets is informative.
_B1 = "T s2 s1^-1"
_B2 = "T s2^-1 s1"
_B1B2 = _B1 + " " + _B2
_B2B1 = _B2 + " " + _B1

DEFAULT_INFORMATIVE_SETS = {
    7: [
        ["e", _B1 + " " + _B1, _B1 + " " + _B1 + " " + _B1, _B1B2, _B2B1],
        ["e", _B1 + " " + _B1, _B1B2, _B1B2 + " " + _B1B2, _B2B1],
    ],
    8: [
        ["e", _B1 + " " + _B1, _B1B2],
        ["e", _B1 + " " + _B1, _B1B2 + " " + _B1],
    ],
    9: [["e", _B2], ["e", _B1B2], ["e", _B2B1]],
    10: [["e", _B2], ["e", _B1B2], ["e", _B2B1]],
}
DEFAULT_SINGLETONS = [["e"], [_B2], [_B2B1]]


def candidate_sets_for(N, overrides=None):
    if overrides and N in overrides:
        return [parse_word_set(s) for s in overrides[N]]
    if N in DEFAULT_INFORMATIVE_SETS:
        return [parse_word_set(s) for s in DEFAULT_INFORMATIVE_SETS[N]]
    return [parse_word_set(s) for s in DEFAULT_SINGLETONS]


# -- the sweep ---------------------------------------------------------------


def full_sweep(n_range, informative_sets=None, state_cap=DEFAULT_STATE_CAP,
               raw=False):
    """Run the sieve for each N in n_range = (lo, hi) and genus-filter the
    candidates.

    informative_sets maps an N to word sets that replace that N's
    defaults (candidate_sets_for), and state_cap bounds each coset walk.
    When none of an N's configured sets is informative, the built-in sets
    of that N are sieved instead, on the same pass.  Returns a mapping
    N -> report with the informative sets used, the configured sets
    rejected, the candidate triples per branch label (sorted), and the
    genus-zero survivors (None when `raw` skips the genus filter).  Raises
    ValueError if some N has no informative set, the built-in ones
    included, and EnumerationCapExceeded if a candidate enumeration
    exceeds the state cap.
    """
    lo, hi = n_range
    if lo < SWEEP_RANGE[0] or hi > SWEEP_RANGE[1] or lo > hi:
        raise ValueError(f"sweep range must lie within "
                         f"{SWEEP_RANGE[0]}..{SWEEP_RANGE[1]}")
    results = {}
    for N in range(lo, hi + 1):
        sieve_pass = _SievePass(N)
        usable, rejected, by_branch = sieve_pass.sieve(
            candidate_sets_for(N, informative_sets))
        if not usable and informative_sets and N in informative_sets:
            usable, _, by_branch = sieve_pass.sieve(candidate_sets_for(N))
        if not usable:
            raise ValueError(f"no informative set found for N={N}")
        candidates = set().union(*by_branch.values())
        results[N] = {
            "sets": [[str(w) for w in ws] for ws in usable],
            "rejected": [[str(w) for w in ws] for ws in rejected],
            "branches": {b.char_class: sorted(trs, key=ExceptionalTriple.sort_key)
                         for b, trs in by_branch.items()},
            "survivors": None if raw else _genus_filter(candidates, N, state_cap),
        }
    return results


def _genus_filter(candidates, N, state_cap):
    """Keep the (p, m) pairs whose universal subgroup has genus zero.

    The recorded types of a pair are grouped by braid orbit of their lines
    (orbit_signatures).  When the root's trace field is F_q all its types
    form one orbit, whose signature and genus come in closed form; only a
    root whose trace field is smaller is walked, once per orbit.
    Conjugate types agree on genus, so any recorded type certifies the
    pair.  Every orbit's signature must satisfy
    the flatness identity euler_lhs = 12 - 12 * genus.  A closed form
    depends only on the field size, N and the ambient, so one is read
    per (N, p) and shared by that pair's roots, for this call only; each
    root is still built, checked and tested on its own.
    """
    by_pair = {}  # in (p, str(m)) order, as filled from the sorted triples
    for tr in sorted(candidates, key=ExceptionalTriple.sort_key):
        by_pair.setdefault((tr.p, tr.min_poly), []).append(tr.type_tag)
    survivors, closed_forms = [], {}
    for (p, m), tags in by_pair.items():
        root = root_spec(p, m)
        if root.N != N:
            raise AssertionError(f"candidate ({p}, {m}) has order {root.N}, "
                                 f"not {N}")
        zero_tags = []
        for sig, g, orbit in orbit_signatures(root, tags, "bu3", state_cap,
                                              closed_forms):
            if euler_lhs(sig, N) != 12 - 12 * g:
                raise AssertionError(
                    f"p={p} m={m} types {','.join(orbit)} in bu3: signature "
                    f"{sig} breaks the flatness identity for genus {g}")
            if g == 0:
                zero_tags.extend(orbit)
        if zero_tags:
            survivors.append({
                "p": p, "minPoly": str(m), "N": N, "types": sorted(zero_tags),
            })
    return survivors
