"""The paper's 13-row classification, typed in for the benchmark's checks.

This is a second, independent copy of the table: the benchmark compares
the program's output against it instead of against the program's own
embedded data.  Each row is (index, p, N, factor groups, starred,
signature).  Factors inside one group are reciprocal partners with
isomorphic skeletons; the signature is (edges; monovalent white, monovalent
black; region width partition) and is shared by the whole row.
"""

ROWS = (
    (1, 2, 7, (("t^3+t+1", "t^3+t^2+1"),), True, "(9;1,0;1^2 7^1)"),
    (2, 2, 15, (("t^4+t+1", "t^4+t^3+1"),), True, "(17;1,2;1^2 15^1)"),
    (3, 3, 8, (("t^2+2t+2", "t^2+t+2"),), True, "(10;0,1;1^2 8^1)"),
    (4, 5, 8, (("t^2+2", "t^2+3"),), True, "(78;0,0;1^6 8^9)"),
    (5, 5, 12, (("t^2+2t+4", "t^2+3t+4"),), False, "(52;0,4;1^4 12^4)"),
    (6, 11, 10, (("t+2",), ("t+6",), ("t+7",), ("t+8",)), True,
     "(24;2,0;1^2 2^1 10^2)"),
    (7, 13, 12, (("t+2", "t+7"), ("t+6", "t+11")), True, "(14;0,2;1^2 12^1)"),
    (8, 17, 8, (("t+2", "t+9"), ("t+8", "t+15")), True, "(36;0,0;1^4 8^4)"),
    (9, 19, 9, (("t+4", "t+5"), ("t+6", "t+16"), ("t+9", "t+17")), False,
     "(20;0,2;1^2 9^2)"),
    (10, 19, 18, (("t+2",), ("t+3",), ("t+10",), ("t+13",), ("t+14",),
                  ("t+15",)), False, "(40;2,4;1^2 2^1 18^2)"),
    (11, 29, 7, (("t+7", "t+25"), ("t+16", "t+20"), ("t+23", "t+24")), True,
     "(60;0,0;1^4 7^8)"),
    (12, 37, 9, (("t+7", "t+16"), ("t+9", "t+33"), ("t+12", "t+34")), False,
     "(76;0,4;1^4 9^8)"),
    (13, 43, 7, (("t+4", "t+11"), ("t+16", "t+35"), ("t+21", "t+41")), True,
     "(132;0,0;1^6 7^18)"),
)


def row_label(row):
    """The label the CLI prints for a row: 'p=<p> N=<N>'."""
    return f"p={row[1]} N={row[2]}"


def edges(row):
    """The edge count, the first field of the row's signature."""
    return int(row[5][1:row[5].index(";")])


def factors(row):
    return tuple(f for group in row[3] for f in group)


def survivor_pairs():
    """Every (p, minimal polynomial, N) the sweep must return: 52 of them."""
    return sorted((row[1], f, row[2]) for row in ROWS for f in factors(row))


def group_labels():
    """One label per skeleton iso-class, as `addendum --all-groups` prints it."""
    return [f"{row_label(row)} {group[0]}" for row in ROWS for group in row[3]]
