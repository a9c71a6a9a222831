"""The embedded reference classification table.

Thirteen (p, N) rows, each with its list of minimal-polynomial factors,
the star flag (realizable inside the braid group itself), and the skeleton
signature (e; v_white, v_black; region width partition).  Factors are
grouped so that polynomials inside one group have isomorphic skeletons;
the signature is shared by the whole row.
"""

from __future__ import annotations


class GoldenRow:
    """One row: factor_groups is a tuple of tuples of canonical polynomial
    text, partition ((width, count), ...) with widths ascending."""

    __slots__ = ("index", "p", "N", "factor_groups", "starred", "edges",
                 "v_white", "v_black", "partition")

    def __init__(self, index, p, N, factor_groups, starred, edges, v_white,
                 v_black, partition):
        self.index, self.p, self.N = index, p, N
        self.factor_groups, self.starred = factor_groups, starred
        self.edges, self.v_white, self.v_black = edges, v_white, v_black
        self.partition = partition

    def _fields(self):
        return (self.index, self.p, self.N, self.factor_groups, self.starred,
                self.edges, self.v_white, self.v_black, self.partition)

    def __eq__(self, other):
        if type(other) is not GoldenRow:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "GoldenRow(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields())) + ")"

    @property
    def factors(self):
        return tuple(f for grp in self.factor_groups for f in grp)

    @property
    def label(self):
        return f"p={self.p} N={self.N}"


GOLDEN_ROWS = (
    GoldenRow(1, 2, 7, (("t^3+t+1", "t^3+t^2+1"),), True,
              9, 1, 0, ((1, 2), (7, 1))),
    GoldenRow(2, 2, 15, (("t^4+t+1", "t^4+t^3+1"),), True,
              17, 1, 2, ((1, 2), (15, 1))),
    GoldenRow(3, 3, 8, (("t^2+2t+2", "t^2+t+2"),), True,
              10, 0, 1, ((1, 2), (8, 1))),
    GoldenRow(4, 5, 8, (("t^2+2", "t^2+3"),), True,
              78, 0, 0, ((1, 6), (8, 9))),
    GoldenRow(5, 5, 12, (("t^2+2t+4", "t^2+3t+4"),), False,
              52, 0, 4, ((1, 4), (12, 4))),
    GoldenRow(6, 11, 10, (("t+2",), ("t+6",), ("t+7",), ("t+8",)), True,
              24, 2, 0, ((1, 2), (2, 1), (10, 2))),
    GoldenRow(7, 13, 12, (("t+2", "t+7"), ("t+6", "t+11")), True,
              14, 0, 2, ((1, 2), (12, 1))),
    GoldenRow(8, 17, 8, (("t+2", "t+9"), ("t+8", "t+15")), True,
              36, 0, 0, ((1, 4), (8, 4))),
    GoldenRow(9, 19, 9, (("t+4", "t+5"), ("t+6", "t+16"), ("t+9", "t+17")),
              False, 20, 0, 2, ((1, 2), (9, 2))),
    GoldenRow(10, 19, 18, (("t+2",), ("t+3",), ("t+10",), ("t+13",),
                           ("t+14",), ("t+15",)), False,
              40, 2, 4, ((1, 2), (2, 1), (18, 2))),
    GoldenRow(11, 29, 7, (("t+7", "t+25"), ("t+16", "t+20"), ("t+23", "t+24")),
              True, 60, 0, 0, ((1, 4), (7, 8))),
    GoldenRow(12, 37, 9, (("t+7", "t+16"), ("t+9", "t+33"), ("t+12", "t+34")),
              False, 76, 0, 4, ((1, 4), (9, 8))),
    GoldenRow(13, 43, 7, (("t+4", "t+11"), ("t+16", "t+35"), ("t+21", "t+41")),
              True, 132, 0, 0, ((1, 6), (7, 18))),
)

STARRED_COUNT = sum(1 for r in GOLDEN_ROWS if r.starred)


def self_check():
    """Structural sanity of the embedded data (run at CLI startup); a
    partition out of width order fails in SkeletonSignature."""
    from .skeleton import SkeletonSignature, euler_lhs
    for row in GOLDEN_ROWS:
        if sum(w * n for w, n in row.partition) != row.edges:
            raise AssertionError(f"width sum mismatch in row {row.index}")
        sig = SkeletonSignature(row.edges, row.v_white, row.v_black,
                                row.partition)
        if euler_lhs(sig, row.N) != 12:
            raise AssertionError(f"row {row.index} is not genus zero")
    if STARRED_COUNT != 9:
        raise AssertionError("starred row count drifted")
    return True
