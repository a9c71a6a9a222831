"""The resultant sieve.

For a fixed order N >= 7 and a set B of braid words with distinct modular
projections, the sieve computes the 2x2 determinants
D_{ij,l}(T', T'') = det[s1^l b_i v_{T'} | b_j v_{T''}] over Z[t, t^-1] and
their resultants against phi_N(-t).  If all resultants are nonzero the set
is informative, and its nonunit resultants carry the only primes p and
minimal polynomials m that can support a genus-zero realization; those
(p, m, T) triples are the exceptional candidates handed to the genus
filter.  Each determinant and resultant is computed once: one pass decides
informativeness, and only an informative set's nonunit resultants are
then factored.

The coefficient a_T depends on M = ord(xi), which in turn depends on the
characteristic, so everything runs per branch (p = 2, p = 3, p odd) with M
fixed, and extracted primes inconsistent with the branch are discarded.
So are the primes dividing N: phi_N is separable mod p exactly when p
does not divide N, and its roots are then the primitive N-th roots of
unity, so every factor of phi_N(-t) mod such a p has ord(-xi) = N and
degree ord_N(p), while for p | N none has ord(-xi) = N.  Each nontrivial
gcd of a determinant with phi_N(-t) mod p is therefore split at that known
degree.  The sieve builds no field; the genus filter builds one per
candidate and asserts the order there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import sympy

from .burau import BraidWord, modular_projection, sigma1_power, to_burau
from .exactalg import IntPoly, cyclotomic, fp_factor, order_mod, resultant, \
    substitute_neg, _fp_gcd
from .skeleton import DEFAULT_STATE_CAP, UniversalGroupSpec, euler_lhs, \
    universal_signature
from .typesys import epsilon_p, k_threshold, root_spec, \
    type_coefficient_laurent, type_tags

SWEEP_RANGE = (7, 26)


@dataclass(frozen=True)
class SieveBranch:
    """One characteristic class of a sweep value N, with its fixed M."""

    N: int
    char_class: str  # "p=2" | "p odd" | "p=3"
    M: int
    types: tuple

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
        out.append(SieveBranch(N, "p=2", N, type_tags(N, False)))
    M = epsilon_p(N, 0)
    out.append(SieveBranch(N, "p odd", M, type_tags(M, False)))
    if N % 3 != 0:
        out.append(SieveBranch(N, "p=3", M, type_tags(M, True)))
    return out


@dataclass(frozen=True)
class IndexSeq:
    """One determinant index (T', T'', i, j, l); the all-equal l=0 case is
    excluded because its determinant vanishes identically."""

    t1: str
    t2: str
    i: int
    j: int
    l: int

    def __post_init__(self):
        if self.t1 == self.t2 and self.i == self.j and self.l == 0:
            raise ValueError("excluded index sequence (identically zero)")


def index_sequences(branch, k):
    for t1 in branch.types:
        for t2 in branch.types:
            for i in range(k):
                for j in range(k):
                    for l in range(branch.N):
                        if t1 == t2 and i == j and l == 0:
                            continue
                        yield IndexSeq(t1, t2, i, j, l)


@dataclass(frozen=True)
class ExceptionalTriple:
    """A sieve survivor candidate: prime, minimal polynomial, type tag."""

    p: int
    min_poly: IntPoly
    type_tag: str

    def sort_key(self):
        return (self.p, str(self.min_poly), self.type_tag)

    def __str__(self):
        return f"({self.p}, {self.min_poly}, {self.type_tag})"


class _BranchTable:
    """Precomputed vectors b_i * v_T and powers of s1 for one (branch, B)."""

    def __init__(self, branch, words):
        mats = [to_burau(w) for w in words]
        self.vectors = {}
        for tag in branch.types:
            a = type_coefficient_laurent(tag, branch.M,
                                         branch.char_class == "p=3")
            v = (a, IntPoly.one())
            for i, m in enumerate(mats):
                self.vectors[(i, tag)] = m.apply(v)
        self.s1_powers = [sigma1_power(l) for l in range(branch.N)]

    def determinant(self, seq):
        u0, u1 = self.vectors[(seq.i, seq.t1)]
        w0, w1 = self.vectors[(seq.j, seq.t2)]
        s1l = self.s1_powers[seq.l]
        # s1^l has second row (0, 1), so only its first row moves u
        top = s1l.a * u0 + s1l.b * u1
        return top * w1 - u1 * w0


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


def _nonunit_resultants(words, N, branches, cyc):
    """The one determinant-and-resultant pass over B on each branch.

    Returns None if B is not informative for N: it has fewer than k_N
    words, or some determinant or resultant is zero, which proves nothing
    else, so the pass stops there.  Otherwise returns branch -> the
    (seq, D, |Res|) of every nonunit resultant.
    """
    if len(words) < k_threshold(N):
        return None
    _require_distinct_projections(words)
    out = {}
    for branch in branches:
        table = _BranchTable(branch, words)
        out[branch] = []
        for seq in index_sequences(branch, len(words)):
            d = table.determinant(seq)
            if d.is_zero:
                return None
            r = abs(resultant(d, cyc))
            if r == 0:
                return None
            if r != 1:
                out[branch].append((seq, d, r))
    return out


def _branch_triples(nonunit, N, branch, cyc):
    """The exceptional triples carried by one branch's nonunit resultants,
    over the primes the branch accepts that do not divide N; each gcd with
    phi_N(-t) mod p is split at degree ord_N(p)."""
    triples = set()
    factor_cache = {}
    cyc_mod = {}
    for seq, d, r in nonunit:
        if r not in factor_cache:
            factor_cache[r] = sorted(sympy.factorint(r))
        for p in factor_cache[r]:
            if not branch.accepts_prime(p) or N % p == 0:
                continue
            if p not in cyc_mod:
                cyc_mod[p] = cyc.reduce_mod(p), order_mod(p, N)
            cyc_p, degree = cyc_mod[p]
            g = _fp_gcd(d.reduce_mod(p), cyc_p, p)
            if len(g) <= 1:
                continue
            for fac in fp_factor(g, degree, p):
                triples.add(ExceptionalTriple(p, IntPoly(fac), seq.t1))
    return triples


def _sieve(N, passes, branches, cyc):
    """Split (words, _nonunit_resultants result) pairs into the informative
    sets and the rest, and map each branch to the triples that every
    informative set recorded on it (a genuine root is caught by every
    informative set)."""
    usable, rejected, per_set = [], [], []
    for words, nonunit in passes:
        if nonunit is None:
            rejected.append(words)
            continue
        usable.append(words)
        per_set.append({branch: _branch_triples(found, N, branch, cyc)
                        for branch, found in nonunit.items()})
    by_branch = {branch: set.intersection(*(t[branch] for t in per_set))
                 for branch in branches} if per_set else {}
    return usable, rejected, by_branch


def is_informative(words, N, branch):
    """Size at least k_N and every resultant nonzero, on this branch."""
    cyc = substitute_neg(cyclotomic(N))
    return _nonunit_resultants(words, N, [branch], cyc) is not None


def exceptional_triples(N, word_sets):
    """Candidate triples for N: per-branch intersection over the sets.

    Every set must be informative for N on every valid branch; the triples
    recorded by each set are intersected per branch, then the branches'
    contributions are united.
    """
    if not word_sets:
        raise ValueError("at least one candidate set required")
    branches = branches_for(N)
    cyc = substitute_neg(cyclotomic(N))
    _, rejected, by_branch = _sieve(
        N, [(ws, _nonunit_resultants(ws, N, branches, cyc)) for ws in word_sets],
        branches, cyc)
    if rejected:
        raise ValueError(f"set {[str(w) for w in rejected[0]]} is not "
                         f"informative for N={N}")
    return frozenset().union(*by_branch.values())


# -- default candidate sets -------------------------------------------------

# beta1 and beta2 below are the denominators-cleared words t*s2*s1^-1 and
# t*s2^-1*s1; the sets for 7 <= N <= 10 need several elements, the rest get
# by with singletons.  Informativeness is never assumed: every run
# re-verifies it and falls back to _search_passes.
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


def _word_pool(max_len=4):
    """Short words with pairwise-distinct modular projections, id first."""
    letters = ["s1", "s2", "s1^-1", "s2^-1"]
    pool = [BraidWord.identity()]
    seen = {modular_projection(pool[0])}
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for base in frontier:
            for letter in letters:
                text = (base + " " + letter).strip()
                w = BraidWord.parse(text)
                pr = modular_projection(w)
                nxt.append(text)
                if pr not in seen:
                    seen.add(pr)
                    pool.append(w)
        frontier = nxt
    return pool


def _search_passes(N, branches, cyc, want=2, max_pool=24, max_combos=4000):
    """Fallback search for informative sets of size k_N.

    Tries subsets of a pool of short words (breadth-first by word length)
    until `want` sets informative on every branch are found, and returns
    each as a (words, _nonunit_resultants result) pair.
    """
    k = k_threshold(N)
    pool = _word_pool()[:max_pool]
    found = []
    for combo in islice(combinations(range(len(pool)), k), max_combos):
        words = [pool[i] for i in combo]
        nonunit = _nonunit_resultants(words, N, branches, cyc)
        if nonunit is not None:
            found.append((words, nonunit))
            if len(found) >= want:
                break
    return found


# -- the sweep ---------------------------------------------------------------


def full_sweep(n_range=SWEEP_RANGE, config=None, raw=False):
    """Run the sieve for each N and genus-filter the candidates.

    Returns a mapping N -> report with the informative sets used, the
    candidate triples per branch label (sorted), and the genus-zero
    survivors (None when `raw` skips the genus filter).  Raises ValueError
    if some N has no informative set even after the fallback search, and
    EnumerationCapExceeded if a candidate enumeration exceeds the state cap.
    """
    lo, hi = n_range
    if lo < SWEEP_RANGE[0] or hi > SWEEP_RANGE[1] or lo > hi:
        raise ValueError(f"sweep range must lie within "
                         f"{SWEEP_RANGE[0]}..{SWEEP_RANGE[1]}")
    config = config or {}
    overrides = config.get("informative_sets")
    state_cap = config.get("state_cap", DEFAULT_STATE_CAP)
    results = {}
    for N in range(lo, hi + 1):
        branches = branches_for(N)
        cyc = substitute_neg(cyclotomic(N))
        usable, rejected, by_branch = _sieve(
            N, [(ws, _nonunit_resultants(ws, N, branches, cyc))
                for ws in candidate_sets_for(N, overrides)], branches, cyc)
        if not usable:
            usable, _, by_branch = _sieve(
                N, _search_passes(N, branches, cyc), branches, cyc)
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

    Each candidate triple gets its signature and genus from the voltage walk
    over lines with its own type vector; conjugate types agree on genus, so
    any recorded type certifies the pair.  Every signature must satisfy the
    flatness identity euler_lhs = 12 - 12 * genus.
    """
    by_pair = {}
    for tr in sorted(candidates, key=ExceptionalTriple.sort_key):
        by_pair.setdefault((tr.p, tr.min_poly), []).append(tr.type_tag)
    survivors = []
    for (p, m), tags in sorted(by_pair.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        root = root_spec(p, m)
        assert root.N == N
        zero_tags = []
        for tag in tags:
            spec = UniversalGroupSpec(root, tag, "bu3")
            sig, g = universal_signature(spec, state_cap)
            if euler_lhs(sig, N) != 12 - 12 * g:
                raise AssertionError(f"{spec}: signature {sig} breaks the "
                                     f"flatness identity for genus {g}")
            if g == 0:
                zero_tags.append(tag)
        if zero_tags:
            survivors.append({
                "p": p, "minPoly": str(m), "N": N, "types": sorted(zero_tags),
            })
    return survivors
