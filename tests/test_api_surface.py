"""Every public top-level name in the package, and every public method or
property in its class bodies, has a caller in the package; every private
top-level name is referenced in the package; no check in
the package is an `assert` statement, which `python -O` strips;
`cli._dump` is the package's one indenting JSON printer; and no module
imports a private name of `exactalg`.

A function or method only the tests call belongs in a tests helper module.
The allowed exceptions are wrapped by name by `perfbench/layertrace.py`.
"""

import ast
import glob
import os

import burausieve

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(burausieve.__file__),
                                       "*.py")))
TRACED_ONLY = {"sieve.is_informative", "sieve.exceptional_triples",
               "intersect.conjugate_to_e2"}


def scan_package():
    """(defined, used): each top-level name and each public method of a
    top-level class, as (name, qualified name) in source order, and every
    name the package reads or imports."""
    defined, used = [], set()
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(name, f"{module}.{name}") for name in names]
            if isinstance(node, ast.ClassDef):
                defined += [(item.name, f"{module}.{node.name}.{item.name}")
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, used


def test_every_public_name_is_used_in_the_package():
    defined, used = scan_package()
    public = {name: qualified for name, qualified in defined
              if not name.startswith("_")}
    unused = {qualified for name, qualified in public.items() if name not in used}
    assert unused <= TRACED_ONLY, sorted(unused - TRACED_ONLY)


def test_every_private_name_is_referenced_in_the_package():
    # a private top-level helper that nothing reads is dead code; dunders
    # are read by Python itself
    defined, used = scan_package()
    private = [(name, qualified) for name, qualified in defined
               if name.startswith("_") and not name.startswith("__")]
    unused = [qualified for name, qualified in private if name not in used]
    assert private and not unused, unused


def test_no_assert_statements_in_the_package():
    # the checks must hold under python -O: raise AssertionError instead
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_one_indenting_json_printer():
    # every --json output goes through cli._dump, which alone may ask json
    # for indented text
    found = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            found += [f"{module}.{name}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("dumps", "dump")
                      and any(kw.arg == "indent" for kw in node.keywords)]
    assert found == ["cli._dump"], found


def test_no_private_imports_from_exactalg():
    # exactalg's public names are its interface to the other modules
    found = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [f"{module}: {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "exactalg"
                  for alias in node.names if alias.name.startswith("_")]
    assert SOURCES and not found, found
