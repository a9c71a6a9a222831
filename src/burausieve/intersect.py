"""Pairwise exclusion via fibered products, and module conjugacy.

Two distinct classification rows cannot coexist in one subgroup: the
skeletons of the intersections of conjugates are exactly the connected
components of the fibered product over the one-edge base, and every such
component must have positive genus.  The genus of a component is counted
during the one pass that labels the pairs, so no component skeleton is
built: its edges, its vertices (from the pairs fixed by black and by
white) and its regions (from the region widths of the two coordinates)
go straight into Euler's formula.  Conjugacy of a module to the span of
e2 is decided on the projective line, where scalars act trivially: it is
membership of e2's line in the braid orbit of the module's line.
addendum_report runs both checks of the paper's addendum: the skeletons
it multiplies are lifted from the walk over lines, and it reads the
conjugacy off orbit_signatures, as membership of the module's type in
the orbit of type I, whose line is e2's.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .golden import GOLDEN_ROWS
from .skeleton import DEFAULT_STATE_CAP, UniversalGroupSpec, _euler_genus, \
    _LineWalk, enumerate_universal, orbit_signatures
from .typesys import admissible_types, root_spec


@dataclass(frozen=True)
class FiberedProduct:
    """Connected components of the product action on edge pairs."""

    left_edges: int
    right_edges: int
    components: tuple  # of (edges, genus), ordered by their first pair

    @property
    def total_edges(self):
        return self.left_edges * self.right_edges

    def min_genus(self):
        return min(g for _, g in self.components)


def _region_lengths(sk):
    """The length of the region cycle through each edge."""
    out = [0] * sk.edge_count
    for cyc in sk.region_cycles():
        for e in cyc:
            out[e] = len(cyc)
    return out


def fibered_product(s1, s2):
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


def conjugate_to_e2(spec):
    """True iff the line of v_T lies in the braid orbit of the line of e2.

    Decided on the dual side: g e2 is proportional to v_T iff
    e2_perp g^-1 is proportional to v_T_perp, s2 s1 and s2 s1^2 generate
    the same group as s1 and s2, and T acts trivially on lines, so the
    answer is whether the annihilator line of e2, the covector (1, 0)
    with code 0, is among the lines the walk of spec reaches.
    """
    return 0 in _LineWalk(spec).index


def verify_addendum_pairwise(row_skeletons):
    """Fibered products of every unordered pair of row skeletons.

    Input: list of (label, Skeleton), one representative per table row.
    Each pair must produce components of genus >= 1 only; a genus-zero
    component would mean two distinct factors coexisting in one subgroup.
    Returns a report dict with per-pair component counts and minimum genus.
    """
    report = {"pairs": [], "ok": True}
    for i in range(len(row_skeletons)):
        for j in range(i + 1, len(row_skeletons)):
            label_a, sk_a = row_skeletons[i]
            label_b, sk_b = row_skeletons[j]
            prod = fibered_product(sk_a, sk_b)
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

    Each row is represented by the type-I skeleton of its first factor, or
    with all_groups each of its factor groups by that of the group's first
    factor; every pair of representatives must pass
    verify_addendum_pairwise.  A row's realized types are the tags of its
    genus-zero braid orbits of type lines.  v_I = e2 and I is always
    admissible, so a realized type is conjugate to e2 exactly when its
    orbit holds I.  The representatives are lifted first, so a capped run
    names the first representative over the cap.  Returns {"pairs",
    "conjugacy", "ok"}.
    """
    # one root per row serves its representative and its conjugacy walks,
    # which then share the field's specialized matrices
    row_roots = [root_spec(row.p, row.factors[0]) for row in GOLDEN_ROWS]
    reps = []
    for row, root in zip(GOLDEN_ROWS, row_roots):
        groups = row.factor_groups if all_groups else row.factor_groups[:1]
        for n, grp in enumerate(groups):
            label = f"{row.label} {grp[0]}" if all_groups else row.label
            rep_root = root if n == 0 else root_spec(row.p, grp[0])
            reps.append((label, enumerate_universal(
                UniversalGroupSpec(rep_root, "I", "bu3"), state_cap)))
    report = verify_addendum_pairwise(reps)
    report["conjugacy"] = []
    for row, root in zip(GOLDEN_ROWS, row_roots):
        realized, ok = [], True
        for _, g, orbit in orbit_signatures(root, sorted(admissible_types(root)),
                                            "bu3", state_cap):
            if g == 0:
                realized.extend(orbit)
                ok = ok and "I" in orbit
        report["conjugacy"].append({"row": row.label, "minPoly": row.factors[0],
                                    "types": sorted(realized), "ok": ok})
        report["ok"] = report["ok"] and ok
    return report
