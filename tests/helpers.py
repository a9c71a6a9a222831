"""Checks and conveniences the tests use that nothing in the pipeline calls.

`determinant_D` and `resultant_with_cyclotomic` compute one sieve
determinant and its resultant in isolation, where the sieve computes them
in one pass per N; `sweep_pairs` flattens a sweep to its
classification; `check_type_specification` and `type_ii_odd_width_excluded`
state lifting conditions of the paper that the pipeline does not apply;
`bdeg`, `det` and `single_edge` are a braid word's degree, a Burau
matrix's determinant and the smallest skeleton.
"""

from burausieve.exactalg import IntPoly, cyclotomic, resultant, substitute_neg
from burausieve.sieve import _SievePass, _require_distinct_projections
from burausieve.skeleton import Skeleton


def bdeg(word):
    """Degree homomorphism: s1, s2 count 1, the scalar T counts 2."""
    return sum((2 if abs(c) == 3 else 1) * (1 if c > 0 else -1)
               for c in word.letters)


def det(m):
    """The determinant of a Burau matrix, in Z[t, t^-1]."""
    return m.a * m.d - m.b * m.c


def single_edge():
    """The one-edge skeleton of the full modular group."""
    return Skeleton((0,), (0,))


def determinant_D(words, N, branch, t1, t2, i, j, l):
    """The sieve determinant det[s1^l b_i v_T' | b_j v_T''], shift-cleared.

    Whatever Laurent shift the determinant carries is dropped: the
    cyclotomic partner has constant term 1, so shifts never change whether
    a resultant vanishes or which primes divide it.
    """
    _require_distinct_projections(words)
    sieve_pass = _SievePass(N)
    vecs = sieve_pass.vectors(words, branch)
    d, _ = sieve_pass.determinant(vecs[t1][i], vecs[t2][j], l)
    return IntPoly(d.poly_part())


def resultant_with_cyclotomic(D, N):
    """Resultant of D against phi_N(-t) over Z."""
    if D.is_zero:
        raise ValueError("degenerate zero determinant")
    return resultant(D, substitute_neg(cyclotomic(N)))


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
