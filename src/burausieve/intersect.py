"""Pairwise exclusion via fibered products, and module conjugacy.

Two distinct classification rows cannot coexist in one subgroup: the
skeletons of the intersections of conjugates are exactly the connected
components of the fibered product over the one-edge base, and every such
component must have positive genus.  The product is computed on the base
of the two factors' walks over lines, as a voltage graph over the pairs
of lines (Gross and Tucker's lifting, as _LineWalk.signature reads one
walk).  Each factor's black and white steps are lifted to its edges by
_LineWalk.edge_steps, the rule enumerate_universal lifts a skeleton by.
One pass over the pairs of each base component gives the component's
local group, and with it the edges, vertices and regions of the
isomorphic components that lie over it, which go straight into Euler's
formula; no product skeleton is built.  Conjugacy of a module to the
span of e2 is decided on the projective line, where scalars act
trivially: it is membership of e2's line in the braid orbit of the
module's line.  addendum_report runs both checks of the paper's
addendum from one walk per braid orbit of type lines: the orbit of
type I, whose line is e2's, gives each row's representative, and the
conjugacy is membership of the module's type in that orbit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import lcm

from .golden import GOLDEN_ROWS
from .skeleton import DEFAULT_STATE_CAP, UniversalGroupSpec, _euler_genus, \
    _LineWalk, _orbit_walks
from .typesys import admissible_types, root_spec


@dataclass(frozen=True)
class FiberedProduct:
    """Connected components of the product action on edge pairs."""

    left_edges: int
    right_edges: int
    components: tuple  # of (edges, genus), grouped by the base component below

    @property
    def total_edges(self):
        return self.left_edges * self.right_edges

    def min_genus(self):
        return min(g for _, g in self.components)


def _region_classes(walk):
    """(widths, class_of): the distinct widths of the walk's region cycles,
    and for each line the position in widths of those over it."""
    cycle_of, cycles = walk.lifted_cycles(walk.region)
    widths = sorted({width for width, _ in cycles})
    position = {width: c for c, width in enumerate(widths)}
    return widths, [position[cycles[c][0]] for c in cycle_of]


def _group_order(generators, k1, k2):
    """The order of the subgroup of Z/k1 x Z/k2 that generators generate."""
    group = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        a, b = frontier.pop()
        for da, db in generators:
            h = ((a + da) % k1, (b + db) % k2)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return len(group)


def fibered_product(w1, w2):
    """Edges and genus of each component of the product over the one-edge base.

    The factors are the skeletons lifted from the walks w1 and w2.  Their
    edges (i, t) are lines with a fiber coordinate in Z/k, numbered
    i * k + t, and the black and white steps add a voltage in Z/k: both
    are lifted to these edges by _LineWalk.edge_steps, the rule that
    enumerate_universal lifts a skeleton by.  So the product is a voltage
    graph over the pairs of lines with group Z/k1 x Z/k2.  One
    walk over each base component C keeps, for each pair, its potential:
    the edge pair over it first reached, as one integer code.  A step that
    reaches a pair with another potential closes a cycle of nonzero net
    voltage, and these generate C's local group H.  Over C lie
    k1 k2 / |H| isomorphic components, each with |H| edges over every pair
    of C.  An edge pair is fixed by black or white exactly when its base
    pair is, with zero voltage.  The region permutation acts
    coordinatewise, so an edge pair whose coordinates lie on region
    cycles of widths x and y lies on one of width lcm(x, y); the walk sums
    F * L = sum of L / lcm(x, y) over C's pairs, with L the lcm of both
    factors' widths.  Black has order 3 and white order 2 because they do
    on the factors, so V = (E + 2 fix_black) / 3 + (E + fix_white) / 2 and
    F = (F * L) / L, and Euler's formula gives the genus.
    """
    n1, n2, k1, k2 = len(w1.lines), len(w2.lines), w1.k, w2.k
    e2 = n2 * k2
    widths1, class1 = _region_classes(w1)
    widths2, class2 = _region_classes(w2)
    L = lcm(*widths1, *widths2)
    # weight[row1[s1] + col2[s2]] = L / lcm(x, y) for the widths through s1, s2
    weight = [L // lcm(x, y) for x in widths1 for y in widths2]
    row1 = [class1[s // k1] * len(widths2) for s in range(n1 * k1)]
    col2 = [class2[s // k2] for s in range(e2)]
    # edge s1 of w1 steps to the pair code s1' * e2 + s2' over pair i1' * n2 + i2'
    black1, white1 = ([(s * e2, s // k1 * n2) for s in w1.edge_steps(step)]
                      for step in (w1.black, w1.white))
    black2, white2 = ([(s, s // k2) for s in w2.edge_steps(step)]
                      for step in (w2.black, w2.white))

    code = array("q", [-1]) * (n1 * n2)
    components = []
    for start in range(len(code)):
        if code[start] >= 0:
            continue
        i1, i2 = divmod(start, n2)
        code[start] = i1 * k1 * e2 + i2 * k2
        stack = [code[start]]
        pairs = fix_black = fix_white = faces_l = 0
        closing = set()  # (code reached, code held) of the nonzero cycles
        while stack:
            c = stack.pop()
            s1, s2 = divmod(c, e2)
            pairs += 1
            faces_l += weight[row1[s1] + col2[s2]]
            (x, f1), (y, f2) = black1[s1], black2[s2]
            c2, f = x + y, f1 + f2
            held = code[f]
            if held < 0:
                code[f] = c2
                stack.append(c2)
            elif held != c2:
                closing.add((c2, held))
            elif c2 == c:
                fix_black += 1
            (x, f1), (y, f2) = white1[s1], white2[s2]
            c2, f = x + y, f1 + f2
            held = code[f]
            if held < 0:
                code[f] = c2
                stack.append(c2)
            elif held != c2:
                closing.add((c2, held))
            elif c2 == c:
                fix_white += 1
        # both codes lie over one pair, so their edges differ in t alone
        h = _group_order({((a // e2 - b // e2) % k1, (a % e2 - b % e2) % k2)
                          for a, b in closing}, k1, k2)
        edges, fix_black, fix_white, faces_l = (
            h * pairs, h * fix_black, h * fix_white, h * faces_l)
        if (edges + 2 * fix_black) % 3 or (edges + fix_white) % 2 or faces_l % L:
            raise AssertionError("product cycle counts are not integral")
        vertices = (edges + 2 * fix_black) // 3 + (edges + fix_white) // 2
        components.extend([(edges, _euler_genus(vertices, edges, faces_l // L))]
                          * (k1 * k2 // h))
    return FiberedProduct(n1 * k1, e2, tuple(components))


def conjugate_to_e2(spec):
    """True iff the line of v_T lies in the braid orbit of the line of e2.

    Decided on the dual side: g e2 is proportional to v_T iff
    e2_perp g^-1 is proportional to v_T_perp, s2 s1 and s2 s1^2 generate
    the same group as s1 and s2, and T acts trivially on lines, so the
    answer is whether the annihilator line of e2, the covector (1, 0)
    with code 0, is among the lines the walk of spec reaches.
    """
    return 0 in _LineWalk(spec).index


def verify_addendum_pairwise(row_walks):
    """Fibered products of every unordered pair of row representatives.

    Input: list of (label, _LineWalk), the walk of one representative per
    table row.  Each pair must produce components of genus >= 1 only; a
    genus-zero component would mean two distinct factors coexisting in one
    subgroup.  Returns a report dict with per-pair component counts and
    minimum genus.
    """
    report = {"pairs": [], "ok": True}
    for i in range(len(row_walks)):
        for j in range(i + 1, len(row_walks)):
            label_a, walk_a = row_walks[i]
            label_b, walk_b = row_walks[j]
            prod = fibered_product(walk_a, walk_b)
            if sum(e for e, _ in prod.components) != prod.total_edges:
                raise AssertionError("component edges do not partition the product")
            mg = prod.min_genus()
            entry = {
                "rowA": label_a,
                "rowB": label_b,
                "components": len(prod.components),
                "minGenus": mg,
            }
            report["pairs"].append(entry)
            if mg < 1:
                report["ok"] = False
    return report


def addendum_report(state_cap=DEFAULT_STATE_CAP, all_groups=False):
    """The addendum: distinct rows exclude each other, and every realized
    module line is conjugate to the line of e2.

    Each row is represented by the type-I walk of its first factor, or
    with all_groups each of its factor groups by that of the group's first
    factor; every pair of representatives must pass
    verify_addendum_pairwise.  A row's realized types are the tags of its
    genus-zero braid orbits of type lines.  v_I = e2 and I is always
    admissible, so a realized type is conjugate to e2 exactly when its
    orbit holds I.  I sorts first among the tags, so the row's first
    orbit is I's, and its walk is the row's representative.  Returns
    {"pairs", "conjugacy", "ok"}.
    """
    reps, row_orbits = [], []
    for row in GOLDEN_ROWS:
        # one root per row serves all its walks, which then share the
        # field's specialized matrices
        root = root_spec(row.p, row.factors[0])
        orbits = list(_orbit_walks(root, sorted(admissible_types(root)),
                                   "bu3", state_cap))
        row_orbits.append(orbits)
        groups = row.factor_groups if all_groups else row.factor_groups[:1]
        for n, grp in enumerate(groups):
            label = f"{row.label} {grp[0]}" if all_groups else row.label
            reps.append((label, orbits[0][0] if n == 0 else _LineWalk(
                UniversalGroupSpec(root_spec(row.p, grp[0]), "I", "bu3"),
                state_cap)))
    report = verify_addendum_pairwise(reps)
    report["conjugacy"] = []
    for row, orbits in zip(GOLDEN_ROWS, row_orbits):
        realized, ok = [], True
        for walk, orbit in orbits:
            if walk.signature()[1] == 0:
                realized.extend(orbit)
                ok = ok and "I" in orbit
        report["conjugacy"].append({"row": row.label, "minPoly": row.factors[0],
                                    "types": sorted(realized), "ok": ok})
        report["ok"] = report["ok"] and ok
    return report
