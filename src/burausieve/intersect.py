"""Pairwise exclusion via fibered products, and module conjugacy.

Two distinct classification rows cannot coexist in one subgroup: the
skeletons of the intersections of conjugates are exactly the connected
components of the fibered product over the one-edge base, and every such
component must have positive genus.  Conjugacy of each realized module to
the span of e2 is decided on the projective line, where scalars act
trivially, by the same walk over lines that gives the genus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .skeleton import Skeleton, _LineWalk, genus


@dataclass(frozen=True)
class FiberedProduct:
    """Connected components of the product action on edge pairs."""

    left_edges: int
    right_edges: int
    components: tuple  # of Skeleton

    @property
    def total_edges(self):
        return self.left_edges * self.right_edges

    def min_genus(self):
        return min(genus(c) for c in self.components)


def fibered_product(s1, s2):
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
        skeletons.append(Skeleton(b, w))
    return FiberedProduct(e1, e2, tuple(skeletons))


def conjugate_to_e2(spec):
    """True iff the line of v_T lies in the braid orbit of the line of e2,
    decided by the walk over lines (see _LineWalk.reaches_e2)."""
    return _LineWalk(spec).reaches_e2()


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
            if sum(c.edge_count for c in prod.components) != prod.total_edges:
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
