"""Pairwise exclusion via fibered products, and module conjugacy.

Two distinct classification rows cannot coexist in one subgroup: the
skeletons of the intersections of conjugates are exactly the connected
components of the fibered product over the one-edge base, and every such
component must have positive genus.  fibered_product reads the product in
closed form from the two factors' generator cycles on lines, the cycles
skeleton._closed_form lifts a signature from, integer logs in
Z/(q - 1), and visits no pair of lines or edges, specializes no matrix
and builds no field table.  verify_addendum_pairwise reads each
representative's inputs once, its trace-field test, fiber cycles and
link data (_product_input), and computes each unlinked product once per
distinct pair of them; addendum_report reads a row's first factor once
for both of its checks.
Conjugacy of a module to the span of e2 is decided on the projective
line, where scalars act trivially: it is membership of e2's line in the
braid orbit of the module's line.  addendum_report runs both
checks of the paper's addendum without a walk: orbit_signatures gives
each row's braid orbits of type lines in closed form, and a realized type
is conjugate to e2 when its orbit holds I, whose line is e2's.
"""

from __future__ import annotations

from math import gcd, lcm

from .golden import GOLDEN_ROWS
from .skeleton import DEFAULT_STATE_CAP, UniversalGroupSpec, _euler_genus, \
    _fiber_cycles, _fiber_order, _generator_cycles, _LineWalk, \
    _trace_generates, _xi_logs, orbit_signatures
from .typesys import admissible_types, root_spec


class FiberedProduct:
    """Connected components of the product action on edge pairs, as a
    tuple of (edges, genus)."""

    __slots__ = ("left_edges", "right_edges", "components")

    def __init__(self, left_edges, right_edges, components):
        self.left_edges, self.right_edges = left_edges, right_edges
        self.components = components

    def __eq__(self, other):
        if type(other) is not FiberedProduct:
            return NotImplemented
        return (self.left_edges, self.right_edges, self.components) == \
            (other.left_edges, other.right_edges, other.components)

    def __hash__(self):
        return hash((self.left_edges, self.right_edges, self.components))

    def __repr__(self):
        return (f"FiberedProduct(left_edges={self.left_edges!r}, "
                f"right_edges={self.right_edges!r}, "
                f"components={self.components!r})")

    @property
    def total_edges(self):
        return self.left_edges * self.right_edges

    def min_genus(self):
        return min(g for _, g in self.components)


def _reciprocal(modulus, p):
    """The monic reciprocal of a modulus over F_p: the minimal polynomial
    of 1/xi."""
    inverse = pow(modulus[0], -1, p)
    return tuple(c * inverse % p for c in reversed(modulus))


def _product_count(base1, base2, r1, r2):
    """The cycles of one generator on the edge pairs, from its cycles
    (L, o, count) on each factor's lines with fibers Z/r1 and Z/r2, in
    one pass with no list (see fibered_product): c1 c2 g pair cycles of
    orders a and b, g = gcd(L1, L2), each lifting to r1 r2 / lcm(a, b)
    cycles.  An order o = 1, as most are, gives a or b = 1 with no gcd,
    and then lcm(a, b) = a b."""
    rr = r1 * r2
    total = 0
    for L1, o1, c1 in base1:
        for L2, o2, c2 in base2:
            g = gcd(L1, L2)
            a = o1 // gcd(o1, L2 // g) if o1 > 1 else 1
            b = o2 // gcd(o2, L1 // g) if o2 > 1 else 1
            ab = lcm(a, b) if a > 1 and b > 1 else a * b
            total += c1 * c2 * g * (rr // ab)
    return total


def _components(n, vertices, edges, faces):
    """n isomorphic components that share these cycle counts."""
    if vertices % n or edges % n or faces % n:
        raise AssertionError("product cycle counts are not integral")
    edges //= n
    return [(edges, _euler_genus(vertices // n, edges, faces // n))] * n


def _require_closed(spec):
    """ValueError unless spec's root passes _trace_generates, so that its
    product has a closed form."""
    if not _trace_generates(spec.root):
        raise ValueError(f"no closed-form product for {spec}: its trace "
                         f"field is smaller than its field")


def _linked(link1, link2):
    """Whether two roots share p and m2 is m1 or its monic reciprocal,
    given the link (p, m, monic reciprocal of m) of each (_product_input)."""
    return link2[0] == link1[0] and link2[1] in link1[1:]


def _product_input(spec):
    """(product, link): all that fibered_product reads of spec but a
    linked root's logs.  product is what an unlinked product reads, q, r
    and its _fiber_cycles, each as a sorted tuple; link is what _linked
    reads, p, the modulus m and its monic reciprocal.  ValueError as
    fibered_product raises for spec."""
    _require_closed(spec)
    p, m = spec.root.p, spec.root.ring.modulus
    return ((spec.root.ring.order, _fiber_order(spec),
             tuple(tuple(sorted(base)) for base in _fiber_cycles(spec))),
            (p, m, _reciprocal(m, p)))


def fibered_product(spec1, spec2, inputs=None):
    """Edges and genus of each component of the product over the one-edge base.

    inputs, if given, is the pair of the factors' _product_input, which a
    caller that multiplies one factor many times reads once; otherwise
    they are read here.

    Both roots must pass _trace_generates, so each factor is transitive on
    its (q + 1) r edges, the nonzero covectors modulo the scalars S, and
    _fiber_cycles gives the cycles (L, o, count) of black, white and
    region on its q + 1 lines, o the order of the net voltage mu in Z/r.
    These act coordinatewise on edge pairs: cycles of lengths L1 and L2
    meet in g = gcd(L1, L2) cycles of line pairs, of length l = lcm(L1, L2)
    and voltage (mu1 l / L1, mu2 l / L2) in Z/r1 x Z/r2.  As l = L1 L2 / g,
    l / L1 = L2 / g and l / L2 = L1 / g, so the coordinates have the
    orders a = o1 / gcd(o1, L2 / g) and b = o2 / gcd(o2, L1 / g), as
    j k mu = 0 in a cyclic group exactly when o divides j k, that is when
    o / gcd(o, k) divides j; and one of voltage of order lcm(a, b) lifts
    to r1 r2 / lcm(a, b) cycles.  _product_count sums that over the
    cycle pairs of each generator, which gives V and F of all components
    together, with E = E1 E2, from orders alone.

    Unlinked roots (m2 neither m1 nor its monic reciprocal) give one
    component.  The commutator subgroup of the braid group maps onto
    SL2(F_q) in each factor (see _closed_form), so by Goursat's lemma its
    image in SL2(F_q1) x SL2(F_q2) is the pairs that agree under an
    isomorphism of quotients SL2(F_q1)/N1 = SL2(F_q2)/N2.  As q >= 8
    (N >= 7), the normal subgroups are 1, {+-1} and SL2, and PSL2(F_q) is
    simple and determines q.  A nontrivial quotient would thus give
    q1 = q2 and make the image in PSL2(F_q)^2 the graph of an automorphism
    of PSL2(F_q), conjugation by some beta in PGammaL2(F_q).  The braid
    image normalizes that graph and only 1 in PGammaL2(F_q) centralizes
    PSL2(F_q), so every braid would have g2 = beta g1 beta^-1
    projectively.  On s1, tr^2 / det = 2 - xi - 1/xi, so xi2 + 1/xi2 would
    be a Frobenius conjugate of xi1 + 1/xi1, and m2 m1 or its reciprocal.
    So the image is all of SL2 x SL2, which is transitive on the pairs of
    nonzero covectors.

    Linked roots are read over one prime field, with xi2 = 1/xi1 and one
    ambient, so r1 = r2 = r.  B(1/xi) = C B(xi) C^-1 / det B(xi) with
    C = [[1, -1 - 1/xi], [1 + 1/xi, -1/xi]], as it holds on s1, s2 and T
    (Squier's unitarity of Burau; det C = 1 + 1/xi + 1/xi^2 != 0).  So
    phi(v) = v C^-1 carries factor 1's lines to factor 2's, and a step of
    voltage d has voltage d - log det there.  PSL2(F_p) is 2-transitive on
    lines, so the line pairs form the diagonal D = {(l, phi(l))} and one
    other orbit O.  On D the cycles are factor 1's, with
    mu2 = mu1 - L log det g and det g = (-xi)^k, k = 2, 3, 1, so a cycle
    of voltage a in factor 1 has voltage a - L k x in factor 2, for the
    logs a and x = log(-xi) to one generator of F_p* (skeleton._xi_logs),
    and its order in Z/r is r / gcd(r, a - L k x).  A braid fixing l
    acts over (l, phi(l)) by (lambda, lambda / det): diag(a, 1/a) in SL2
    makes lambda any unit at det 1, and the determinants are the powers
    of -xi, so r / [<-xi> S : S] = gcd(r, log(-xi)) isomorphic components
    lie over D, where [<-xi> S : S] = N / gcd(N, |S|) is the order of
    -xi S.  A braid fixing l and m != l has eigenvalues lambda and mu
    there and acts over (l, phi(m)) by (lambda, 1 / lambda), so r lie
    over O, sharing the cycles not on D.

    Any other pair raises ValueError: a root failing _trace_generates, the
    same root twice, or reciprocal roots over an extension field or in two
    ambients.
    """
    (q1, r1, fiber1), link1 = inputs[0] if inputs else _product_input(spec1)
    (q2, r2, fiber2), link2 = inputs[1] if inputs else _product_input(spec2)
    e1, e2 = (q1 + 1) * r1, (q2 + 1) * r2
    black, white, region = (_product_count(base1, base2, r1, r2)
                            for base1, base2 in zip(fiber1, fiber2))
    if not _linked(link1, link2):
        return FiberedProduct(e1, e2, tuple(
            _components(1, black + white, e1 * e2, region)))
    root = spec1.root
    ring, N = root.ring, root.N
    if (ring.degree > 1 or link2[1] == link1[1]
            or spec1.ambient != spec2.ambient):
        raise ValueError(f"no closed-form product of the linked {spec1} "
                         f"and {spec2}")
    s = (ring.order - 1) // r1  # |S|
    x = _xi_logs(root)[2]  # log -xi = log det s1
    black_d, white_d, region_d = (sum(
        count * r1 * r1 // lcm(r1 // gcd(r1, a), r1 // gcd(r1, a - L * k * x))
        for L, a, count in base)
        for base, k in zip(_generator_cycles(root), (2, 3, 1)))
    e_d = (ring.order + 1) * r1 * r1
    return FiberedProduct(e1, e2, tuple(
        _components(r1 // (N // gcd(N, s)), black_d + white_d, e_d, region_d)
        + _components(r1, black + white - black_d - white_d, e1 * e2 - e_d,
                      region - region_d)))


def conjugate_to_e2(spec):
    """True iff the line of v_T lies in the braid orbit of the line of e2.

    Decided on the dual side: g e2 is proportional to v_T iff
    e2_perp g^-1 is proportional to v_T_perp, s2 s1 and s2 s1^2 generate
    the same group as s1 and s2, and T acts trivially on lines, so the
    answer is whether the annihilator line of e2, the covector (1, 0),
    the line of the ring's zero, is among the lines the walk of spec
    reaches.
    """
    return spec.root.ring.zero in _LineWalk(spec).index


def _counts(prod):
    """(components, minimum genus) of a fibered product, whose components'
    edges must partition it."""
    if sum(e for e, _ in prod.components) != prod.total_edges:
        raise AssertionError("component edges do not partition the product")
    return len(prod.components), prod.min_genus()


def verify_addendum_pairwise(row_specs, inputs=None):
    """Fibered products of every unordered pair of row representatives.

    Input: list of (label, UniversalGroupSpec), one representative per
    table row.  Each pair must produce components of genus >= 1 only; a
    genus-zero component would mean two distinct factors coexisting in one
    subgroup.  Returns a report dict with per-pair component counts and
    minimum genus, ok when the lowest genus seen is >= 1.  Each
    representative's _product_input is read once, or taken from inputs,
    their list in the same order, when the caller has read them, and
    handed to every fibered_product of it, so no product tests a root's
    trace field or reads its fiber cycles again.  An unlinked product is
    computed once per distinct pair of product inputs, a linked one on
    its own, and each through _counts' partition check.
    """
    if inputs is None:
        inputs = [_product_input(spec) for _, spec in row_specs]
    numbers = {}  # each distinct product input, numbered once
    ids = [numbers.setdefault(product, len(numbers)) for product, _ in inputs]
    links = [link for _, link in inputs]
    pairs, unlinked, lowest = [], {}, 1  # unlinked products' counts by ids
    for i, (label_a, spec_a) in enumerate(row_specs):
        link_a, id_a, input_a = links[i], ids[i], inputs[i]
        for j in range(i + 1, len(row_specs)):
            label_b, spec_b = row_specs[j]
            pair = input_a, inputs[j]
            if _linked(link_a, links[j]):
                counts = _counts(fibered_product(spec_a, spec_b, pair))
            else:
                key = id_a, ids[j]
                counts = unlinked.get(key)
                if counts is None:
                    counts = unlinked[key] = _counts(
                        fibered_product(spec_a, spec_b, pair))
            pairs.append({"rowA": label_a, "rowB": label_b,
                          "components": counts[0], "minGenus": counts[1]})
            if counts[1] < lowest:
                lowest = counts[1]
    return {"pairs": pairs, "ok": lowest >= 1}


def addendum_report(state_cap=DEFAULT_STATE_CAP, all_groups=False):
    """The addendum: distinct rows exclude each other, and every realized
    module line is conjugate to the line of e2.

    Each row is represented by the type-I subgroup of its first factor, or
    with all_groups each of its factor groups by that of the group's first
    factor; every pair of representatives must pass
    verify_addendum_pairwise.  A row's realized types are the tags of its
    genus-zero braid orbits of type lines, from orbit_signatures, which
    raises at the state cap.  v_I = e2 and I is always admissible, so a
    realized type is conjugate to e2 exactly when its orbit holds I.
    Each representative's _product_input is read once; for a row's first
    factor it also hands orbit_signatures its fiber cycles, as its trace
    field test has passed, so the first factor is read once for both
    checks.  Returns {"pairs", "conjugacy", "ok"}.
    """
    reps, inputs, conjugacy = [], [], []
    for row in GOLDEN_ROWS:
        root = root_spec(row.p, row.factors[0])
        first = UniversalGroupSpec(root, "I", "bu3")
        first_input = _product_input(first)
        realized, ok = [], True
        tags = sorted(admissible_types(root))
        for _, g, orbit in orbit_signatures(root, tags, "bu3", state_cap,
                                            cycles=first_input[0][2]):
            if g == 0:
                realized.extend(orbit)
                ok = ok and "I" in orbit
        conjugacy.append({"row": row.label, "minPoly": row.factors[0],
                          "types": sorted(realized), "ok": ok})
        groups = row.factor_groups if all_groups else row.factor_groups[:1]
        for n, grp in enumerate(groups):
            label = f"{row.label} {grp[0]}" if all_groups else row.label
            if n == 0:
                spec, product_input = first, first_input
            else:
                spec = UniversalGroupSpec(root_spec(row.p, grp[0]), "I", "bu3")
                product_input = _product_input(spec)
            reps.append((label, spec))
            inputs.append(product_input)
    report = verify_addendum_pairwise(reps, inputs)
    report["conjugacy"] = conjugacy
    report["ok"] = report["ok"] and all(c["ok"] for c in conjugacy)
    return report
