"""The benchmark's per-layer tracer names functions that exist, and finds
on their results the attributes it reads.

`perfbench/layertrace.py` wraps the package's functions by name, so a
renamed or deleted function would break `perfbench/run.py --trace 1`.  The
module is loaded read-only from its file; nothing is installed.
"""

import importlib
import importlib.util
import os

from burausieve.golden import GOLDEN_ROWS
from burausieve.intersect import fibered_product
from burausieve.skeleton import UniversalGroupSpec, _LineWalk
from burausieve.typesys import root_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_layertrace():
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    layertrace = load_layertrace()
    for mod_name in layertrace.PACKAGE_MODULES:
        importlib.import_module(f"burausieve.{mod_name}")
    for mod_name, fn_names in layertrace.TRACED.items():
        module = importlib.import_module(f"burausieve.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), \
                f"{mod_name}.{fn_name}"
    mod_name, cls_name = layertrace.SKELETON_CTOR.split(".")
    assert isinstance(getattr(importlib.import_module(f"burausieve.{mod_name}"),
                              cls_name), type)


def test_fibered_product_reports_total_edges():
    # the tracer's product observer reads total_edges off every result: the
    # edge pairs of the lifted factors, 9 x 9 for row 1's walk with itself
    row = GOLDEN_ROWS[0]
    walk = _LineWalk(UniversalGroupSpec(root_spec(row.p, row.factors[0]), "I"))
    assert fibered_product(walk, walk).total_edges == 81
