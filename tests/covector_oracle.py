"""Reference implementations the tests hold the package to.

`covector_bfs` is the breadth-first coset enumeration over covectors that
the package replaced by the lift of its walk over projective lines; the
tests compare the lift's permutations with it edge for edge.  The skeleton
checks below it (width divisibility, the incidence lemma, isomorphism)
have no caller in the pipeline and serve the tests only.
"""

from burausieve.skeleton import (
    _BLACK_WORD,
    _REGION_WORD,
    _WHITE_WORD,
    EnumerationCapExceeded,
    Skeleton,
    _spec_matrix_codes,
)
from burausieve.typesys import type_vector


def covector_bfs(spec, state_cap):
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
    scalar = ops.encode(field.gen() ** step)
    scalars = [1]
    x = scalar
    while x != 1:
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
