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
from burausieve.skeleton import UniversalGroupSpec
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
    # edge pairs of the lifted factors, 9 x 17 for rows 1 and 2
    spec1, spec2 = (UniversalGroupSpec(root_spec(row.p, row.factors[0]), "I")
                    for row in GOLDEN_ROWS[:2])
    assert fibered_product(spec1, spec2).total_edges == 153
