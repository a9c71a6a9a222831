"""The package's value classes: equality by value, the hash of the tuple of
compared fields (so sets and dicts keep their order), and the repr that
names each field; and importing the command-line front end loads no
`dataclasses`."""

import os
import subprocess
import sys

import pytest

from burausieve.burau import BraidWord, BurauMatrix
from burausieve.exactalg import IntPoly
from burausieve.golden import GOLDEN_ROWS, GoldenRow
from burausieve.intersect import FiberedProduct
from burausieve.sieve import ExceptionalTriple, SieveBranch
from burausieve.skeleton import SkeletonSignature, UniversalGroupSpec
from burausieve.typesys import RootSpec, root_spec

ROOT = root_spec(2, "t^3+t+1")
ROW = GOLDEN_ROWS[5]
ROW_FIELDS = (ROW.index, ROW.p, ROW.N, ROW.factor_groups, ROW.starred,
              ROW.edges, ROW.v_white, ROW.v_black, ROW.partition)

# (class, its compared fields by name, two different sets of values)
CASES = [
    (BraidWord, ("letters",), ((1, -2, 3),), ((1, -2),)),
    (BurauMatrix, ("a", "b", "c", "d"),
     (IntPoly((-1,), 1), IntPoly.one(), IntPoly.zero(), IntPoly.one()),
     (IntPoly.one(), IntPoly.zero(), IntPoly.zero(), IntPoly.one())),
    (GoldenRow, ("index", "p", "N", "factor_groups", "starred", "edges",
                 "v_white", "v_black", "partition"),
     ROW_FIELDS, ROW_FIELDS[:4] + (not ROW.starred,) + ROW_FIELDS[5:]),
    (SieveBranch, ("char_class", "M", "types"),
     ("p odd", 14, ("I", "II", "IV")), ("p=3", 14, ("I", "II", "IV"))),
    (ExceptionalTriple, ("p", "min_poly", "type_tag"),
     (5, IntPoly((2, 0, 1)), "I"), (5, IntPoly((2, 0, 1)), "II")),
    (SkeletonSignature, ("edges", "v_white", "v_black", "partition"),
     (9, 1, 0, ((1, 2), (7, 1))), (9, 0, 1, ((1, 2), (7, 1)))),
    (UniversalGroupSpec, ("root", "type_tag", "ambient"),
     (ROOT, "I", "bu3"), (ROOT, "I", "b3")),
    (FiberedProduct, ("left_edges", "right_edges", "components"),
     (9, 17, ((153, 3),)), (9, 17, ((150, 3), (3, 0)))),
]


@pytest.mark.parametrize("cls, names, values, other", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_equal_values_hash_as_their_fields(cls, names, values, other):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != cls(*other) and hash(cls(*other)) == hash(other)
    assert a != values and values != a
    assert cls(**dict(zip(names, values))) == a
    assert tuple(getattr(a, name) for name in names) == values
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"


def test_default_fields():
    assert BraidWord() == BraidWord(()) == BraidWord.identity()
    assert UniversalGroupSpec(ROOT, "I") == UniversalGroupSpec(ROOT, "I", "bu3")


def test_root_spec_equality_ignores_the_ring():
    # each root_spec call builds its own ring; equality, hash and repr
    # read p, the minimal polynomial and the orders alone
    a, b = root_spec(2, "t^3+t+1"), root_spec(2, "t^3+t+1")
    assert a.ring is not b.ring and a == b
    fields = (a.p, a.min_poly, a.N, a.M)
    assert hash(a) == hash(b) == hash(fields)
    bare = RootSpec(p=a.p, min_poly=a.min_poly, N=a.N, M=a.M, ring=None)
    assert bare == a and hash(bare) == hash(a)
    assert repr(bare) == repr(a) == (
        f"RootSpec(p=2, min_poly={a.min_poly!r}, N=7, M=7)")
    assert a != root_spec(2, "t^3+t^2+1")
    assert len({a, b, bare}) == 1


def test_checks_keep_their_text():
    with pytest.raises(ValueError, match=r"^partition \(\(7, 1\), \(1, 2\)\) "
                       r"is not in increasing width with positive counts$"):
        SkeletonSignature(9, 1, 0, ((7, 1), (1, 2)))
    with pytest.raises(ValueError, match=r"^partition \(\(1, 0\),\) is not"):
        SkeletonSignature(0, 0, 0, ((1, 0),))
    with pytest.raises(ValueError, match=r"^ambient must be 'bu3' or 'b3'$"):
        UniversalGroupSpec(ROOT, "I", "b4")


def test_importing_the_cli_loads_no_dataclasses():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, burausieve.cli; "
         "print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert done.stdout == "False\n"
