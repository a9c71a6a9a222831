"""Skeletons of modular-group subgroups and universal-subgroup enumeration.

A skeleton is a finite edge set with two permutations: an order-dividing-3
action (orbits are black vertices) and an order-dividing-2 action (orbits
are white vertices); regions are the orbits of the derived third action.
Universal subgroups are enumerated without ever materializing cosets: a
coset is represented by the annihilator covector it carries, states are
covectors up to scalar, and the three permutations are read off the same
orbit.  The sweep's genus filter, the table check and the addendum's
realized types need only the signature and the genus, which
`universal_signature` reads off a voltage graph on at most q + 1 projective
lines instead of walking the cosets; conjugacy to the e2 line reads the
same walk's lines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

import sympy

from .burau import BraidWord, specialize_word
from .typesys import RootSpec, root_spec, type_vector

DEFAULT_STATE_CAP = 10 ** 6

_BLACK_WORD = BraidWord.parse("s2 s1")
_WHITE_WORD = BraidWord.parse("s2 s1 s1")
_REGION_WORD = BraidWord.parse("s1")


class EnumerationCapExceeded(RuntimeError):
    """Raised when the coset enumeration outgrows the configured cap."""


class Skeleton:
    """An edge set with its black/white/region permutations.

    The region permutation is determined by the other two through the fixed
    convention region = white o black^-1 (acting on the right by s1 =
    (s2 s1)^-1 (s2 s1^2)); the constructor asserts that identity.
    """

    __slots__ = ("edge_count", "black", "white", "region", "_cycles")

    def __init__(self, black, white, region=None):
        black = tuple(black)
        white = tuple(white)
        n = len(black)
        if len(white) != n or n == 0:
            raise ValueError("permutations must share a nonempty edge set")
        if sorted(black) != list(range(n)) or sorted(white) != list(range(n)):
            raise ValueError("not a permutation of the edge set")
        black_inv = [0] * n
        for i, j in enumerate(black):
            black_inv[j] = i
        derived = tuple(white[black_inv[i]] for i in range(n))
        if region is None:
            region = derived
        else:
            region = tuple(region)
            if region != derived:
                raise ValueError("region permutation violates the composition "
                                 "convention")
        for i in range(n):
            if black[black[black[i]]] != i:
                raise ValueError("black permutation has order > 3")
            if white[white[i]] != i:
                raise ValueError("white permutation has order > 2")
        # connectedness under the two actions
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            e = stack.pop()
            for f in (black[e], white[e]):
                if not seen[f]:
                    seen[f] = True
                    count += 1
                    stack.append(f)
        if count != n:
            raise ValueError("skeleton is not connected")
        object.__setattr__(self, "edge_count", n)
        object.__setattr__(self, "black", black)
        object.__setattr__(self, "white", white)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "_cycles", {})

    def __setattr__(self, name, value):
        raise AttributeError("Skeleton is immutable")

    @staticmethod
    def single_edge():
        """The one-edge skeleton of the full modular group."""
        return Skeleton((0,), (0,))

    def _cycles_of(self, which):
        if which not in self._cycles:
            perm = getattr(self, which)
            n = self.edge_count
            seen = [False] * n
            cycles = []
            for i in range(n):
                if not seen[i]:
                    cyc = []
                    j = i
                    while not seen[j]:
                        seen[j] = True
                        cyc.append(j)
                        j = perm[j]
                    cycles.append(tuple(cyc))
            self._cycles[which] = tuple(cycles)
        return self._cycles[which]

    def black_cycles(self):
        return self._cycles_of("black")

    def white_cycles(self):
        return self._cycles_of("white")

    def region_cycles(self):
        return self._cycles_of("region")

    def region_widths(self):
        return sorted(len(c) for c in self.region_cycles())

    def to_json_dict(self):
        sig = signature(self)
        return {
            "edges": self.edge_count,
            "black": [list(c) for c in self.black_cycles()],
            "white": [list(c) for c in self.white_cycles()],
            "regions": [list(c) for c in self.region_cycles()],
            "signature": str(sig),
            "genus": genus(self),
        }

@dataclass(frozen=True)
class SkeletonSignature:
    """(e; v_white, v_black; region width partition)."""

    edges: int
    v_white: int
    v_black: int
    widths: tuple

    def partition_text(self):
        counts = Counter(self.widths)
        return " ".join(f"{w}^{counts[w]}" for w in sorted(counts))

    def __str__(self):
        return (f"({self.edges};{self.v_white},{self.v_black};"
                f"{self.partition_text()})")


def signature(sk):
    """Monovalent vertex counts and the region width partition."""
    v_black = sum(1 for c in sk.black_cycles() if len(c) == 1)
    v_white = sum(1 for c in sk.white_cycles() if len(c) == 1)
    widths = tuple(sk.region_widths())
    return SkeletonSignature(sk.edge_count, v_white, v_black, widths)


def genus(sk):
    """Genus of the minimal supporting surface, from Euler's formula."""
    return _euler_genus(len(sk.black_cycles()) + len(sk.white_cycles()),
                        sk.edge_count, len(sk.region_cycles()))


def _euler_genus(V, E, F):
    chi = V - E + F
    if (2 - chi) % 2 != 0 or chi > 2:
        raise AssertionError(f"impossible Euler characteristic {chi}")
    return (2 - chi) // 2


def euler_lhs(sig, N):
    """3*v_white + 4*v_black + sum (6 - i) n_i; equals 12 iff genus zero."""
    if sig.widths and max(sig.widths) > N:
        raise ValueError("region width exceeds N")
    counts = Counter(sig.widths)
    return (3 * sig.v_white + 4 * sig.v_black
            + sum((6 - w) * n for w, n in counts.items()))


def verify_region_widths(sk, N):
    """True iff every region width divides N."""
    return all(N % len(c) == 0 for c in sk.region_cycles())


def verify_distinct_lemma(sk, N):
    """Combinatorial check of the three incidence constraints.

    With 'essential' meaning region width not divisible by N: (1) each
    trivalent black vertex has at most one corner on an essential region,
    (2) the region at each monovalent vertex is trivial, (3) no edge joins
    two monovalent vertices.
    """
    region_of = {}
    essential = {}
    for idx, cyc in enumerate(sk.region_cycles()):
        for e in cyc:
            region_of[e] = idx
        essential[idx] = len(cyc) % N != 0
    for cyc in sk.black_cycles():
        if len(cyc) == 3:
            corners = sum(1 for e in cyc if essential[region_of[e]])
            if corners > 1:
                return False
        else:
            if essential[region_of[cyc[0]]]:
                return False
    for cyc in sk.white_cycles():
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


@dataclass(frozen=True)
class UniversalGroupSpec:
    """A root, a type tag, and the ambient group (bu3 or b3)."""

    root: RootSpec
    type_tag: str
    ambient: str = "bu3"

    def __post_init__(self):
        if self.ambient not in ("bu3", "b3"):
            raise ValueError("ambient must be 'bu3' or 'b3'")


def _spec_matrix_codes(word, field):
    ops = field.ops()
    m = specialize_word(word, field)
    return (ops.encode(m.a), ops.encode(m.b), ops.encode(m.c), ops.encode(m.d))


def enumerate_universal(spec, state_cap=DEFAULT_STATE_CAP):
    """Breadth-first coset enumeration of a universal subgroup.

    States are annihilator covectors w = v_T_perp * m up to scalar multiples
    xi^s (s in Z for the bu3 ambient, s in 3Z for b3), seeded at w = v_T_perp
    and expanded by right multiplication by the specialized images of s2*s1
    and s2*s1^2; the region permutation is the action of s1 on the same
    states and is cross-checked against the composition convention.
    """
    root = spec.root
    field = root.field
    ops = field.ops()
    tv = type_vector(spec.type_tag, root)

    step = 3 if spec.ambient == "b3" else 1
    scalar = ops.pow(ops.xi, step)
    scalars = [ops.one]
    x = scalar
    while x != ops.one:
        scalars.append(x)
        x = ops.mul(x, scalar)

    # canonical scalar-class representatives: one lookup per nonzero element
    mu = [0] * ops.q
    assigned = [False] * ops.q
    inv_scalars = [ops.inv(s) for s in scalars]
    for leader in range(1, ops.q):
        if assigned[leader]:
            continue
        for s, s_inv in zip(scalars, inv_scalars):
            y = ops.mul(s, leader)
            if not assigned[y]:
                assigned[y] = True
                mu[y] = s_inv
    add, mul = ops.add, ops.mul

    def canon(w0, w1):
        if w0:
            m = mu[w0]
            return (mul(m, w0), mul(m, w1))
        return (0, mul(mu[w1], w1))

    g_black = _spec_matrix_codes(_BLACK_WORD, field)
    g_white = _spec_matrix_codes(_WHITE_WORD, field)
    g_region = _spec_matrix_codes(_REGION_WORD, field)

    def act(w, g):
        w0, w1 = w
        return (add(mul(w0, g[0]), mul(w1, g[2])),
                add(mul(w0, g[1]), mul(w1, g[3])))

    vp0, vp1 = tv.v_perp
    seed = canon(ops.encode(vp0), ops.encode(vp1))
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
    return Skeleton(black, white, region=region)


class _LineWalk:
    """The projective lines reached from the line of v_T_perp.

    The walk follows s2 s1 and s2 s1^2 breadth-first over the lines of
    P^1(F_q) that carry the covectors of enumerate_universal's orbit, so it
    visits at most q + 1 lines and needs no state cap.  The line (1, x) has
    code x and the line (0, 1) has code q; lines[i] is the i-th line reached
    and index[line] its position.  black[i] and white[i] are the steps
    (j, lambda) with rep(lines[i]) g = lambda rep(lines[j]), and
    potential[i] is the net voltage of the tree path from the seed line.
    """

    def __init__(self, spec):
        field = spec.root.field
        ops = field.ops()
        q, one = ops.q, ops.one
        add, mul, inv = ops.add, ops.mul, ops.inv

        def move(line, g):
            """(line', lambda) with rep(line) g = lambda rep(line')."""
            if line < q:
                a0 = add(g[0], mul(line, g[2]))
                a1 = add(g[1], mul(line, g[3]))
            else:
                a0, a1 = g[2], g[3]
            if a0:
                return mul(a1, inv(a0)), a0
            return q, a1

        g_black = _spec_matrix_codes(_BLACK_WORD, field)
        g_white = _spec_matrix_codes(_WHITE_WORD, field)
        tv = type_vector(spec.type_tag, spec.root)
        vp0, vp1 = (ops.encode(c) for c in tv.v_perp)
        seed = mul(vp1, inv(vp0)) if vp0 else q
        index = {seed: 0}
        lines = [seed]
        potential = [one]
        black, white = [], []
        i = 0
        while i < len(lines):
            for g, images in ((g_black, black), (g_white, white)):
                line2, lam = move(lines[i], g)
                j = index.get(line2)
                if j is None:
                    j = index[line2] = len(lines)
                    lines.append(line2)
                    potential.append(mul(potential[i], lam))
                images.append((j, lam))
            i += 1
        self.ops, self.move = ops, move
        self.lines, self.index, self.potential = lines, index, potential
        self.black, self.white = black, white


def universal_signature(spec, state_cap=DEFAULT_STATE_CAP):
    """Signature and genus of a universal subgroup, by a walk over lines.

    The states of enumerate_universal are covectors modulo the scalar
    subgroup S, a cyclic cover of P^1(F_q) with fiber F_q*/S, so its orbit
    is the lift of a voltage graph on the projective lines of _LineWalk.
    The orbit's local group K <= F_q*/S is generated by the net voltages of
    the non-tree steps, the orbit has lines * |K| edges, and a cycle of g
    on lines of length L and net voltage mu lifts to |K| / ord(mu) cycles
    of length L ord(mu), orders taken modulo S.  This is exact on every
    orbit, transitive or not.  Returns (SkeletonSignature, genus); raises
    EnumerationCapExceeded exactly when enumerate_universal would, i.e.
    when the orbit has more than state_cap edges.
    """
    root = spec.root
    walk = _LineWalk(spec)
    ops = walk.ops
    q, one = ops.q, ops.one
    mul, inv, power = ops.mul, ops.inv, ops.pow
    potential = walk.potential

    s = root.M // gcd(root.M, 3 if spec.ambient == "b3" else 1)  # |S|
    r = (q - 1) // s  # |F_q*/S|
    primes = sympy.primefactors(r)

    def order_mod_s(x):
        # x -> x^s maps F_q*/S isomorphically onto the subgroup of order r
        y, n = power(x, s), r
        for ell in primes:
            while n % ell == 0 and power(y, n // ell) == one:
                n //= ell
        return n

    k = 1  # |K|
    for i, steps in enumerate(zip(walk.black, walk.white)):
        if k == r:
            break
        for j, lam in steps:
            # the step closes a cycle of net voltage x (1 on tree steps); x
            # lies in K iff it lies in the preimage of K, of order k * s
            x = mul(mul(potential[i], lam), inv(potential[j]))
            if power(x, k * s) != one:
                o = order_mod_s(x)
                k = k * o // gcd(k, o)
    n = len(walk.lines)
    if n * k > state_cap:
        raise EnumerationCapExceeded(f"more than {state_cap} cosets for {spec}")
    g_region = _spec_matrix_codes(_REGION_WORD, root.field)
    region = []
    for line in walk.lines:
        line2, lam = walk.move(line, g_region)
        region.append((walk.index[line2], lam))

    def lifted_cycles(step):
        """(length, count) of the cycles over each cycle of step on lines."""
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            length, mu, j = 0, one, start
            while not seen[j]:
                seen[j] = True
                length += 1
                j, lam = step[j]
                mu = mul(mu, lam)
            o = order_mod_s(mu)
            if k % o:
                raise AssertionError(f"cycle voltage outside the local group "
                                     f"for {spec}")
            out.append((length * o, k // o))
        return out

    black_cycles = lifted_cycles(walk.black)
    white_cycles = lifted_cycles(walk.white)
    widths = []
    for width, count in lifted_cycles(region):
        widths.extend([width] * count)
    edges = n * k
    sig = SkeletonSignature(
        edges,
        sum(c for length, c in white_cycles if length == 1),
        sum(c for length, c in black_cycles if length == 1),
        tuple(sorted(widths)))
    vertices = (sum(c for _, c in black_cycles)
                + sum(c for _, c in white_cycles))
    return sig, _euler_genus(vertices, edges, len(widths))


def table_verify(state_cap=DEFAULT_STATE_CAP, rows=None):
    """Recompute every golden row and compare against the embedded data.

    For each row and each of its factors the bu3-ambient universal subgroup
    must reproduce the printed signature with genus zero, and the b3-ambient
    genus must vanish exactly for the starred rows.  Both come from
    universal_signature; no skeleton is built.  Returns a report dict;
    report['ok'] is the overall verdict.
    """
    from .golden import GOLDEN_ROWS

    wanted = GOLDEN_ROWS if rows is None else [
        r for r in GOLDEN_ROWS if r.index in rows]
    if rows is not None and len(wanted) != len(set(rows)):
        raise ValueError("unknown row index requested")
    report = {"rows": [], "ok": True}
    for row in wanted:
        want_sig = SkeletonSignature(row.edges, row.v_white, row.v_black,
                                     tuple(row.widths))
        entry = {
            "row": row.index, "p": row.p, "N": row.N,
            "starred": row.starred, "expected": str(want_sig), "factors": [],
        }
        row_ok = True
        for text in row.factors:
            root = root_spec(row.p, text)
            sig, g0 = universal_signature(
                UniversalGroupSpec(root, "I", "bu3"), state_cap)
            _, g3 = universal_signature(
                UniversalGroupSpec(root, "I", "b3"), state_cap)
            ok = (sig == want_sig and g0 == 0 and (g3 == 0) == row.starred
                  and root.N == row.N)
            fac_entry = {
                "minPoly": text,
                "signature": str(sig),
                "genus": g0,
                "b3Genus": g3,
                "widthsDivideN": all(row.N % w == 0 for w in sig.widths),
                "tableAmbient": "bu3" if sig == want_sig else "unmatched",
                "ok": ok,
            }
            entry["factors"].append(fac_entry)
            row_ok = row_ok and ok and fac_entry["widthsDivideN"]
        entry["ok"] = row_ok
        report["rows"].append(entry)
        report["ok"] = report["ok"] and row_ok
    return report
