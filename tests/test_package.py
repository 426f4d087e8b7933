"""The package root re-exports each submodule's public API, every public
name has a caller outside the tests, the package runs on numpy alone, its
count of settable values is pinned, and every function the benchmark's
tracer wraps still exists."""

import argparse
import ast
import glob
import importlib
import os
import pathlib
import subprocess
import sys
import types

import markup_guarantee as mg
from markup_guarantee.cli import build_parser

SUBMODULES = ("distributions", "technology", "mechanisms", "screening",
              "functionals", "guarantees", "quadrature")


def test_root_exports_every_submodule_all():
    missing = []
    for name in SUBMODULES:
        module = importlib.import_module(f"markup_guarantee.{name}")
        missing += [f"{name}.{n}" for n in module.__all__
                    if getattr(mg, n, None) is not getattr(module, n)]
    assert missing == []


# public names that need no caller in the package, its demos or its
# benchmark, each with the reason it stays
_UNCALLED = {
    # the one non-separable demand model verify_quantity_guarantee accepts;
    # it backs the general-demand quantity guarantee
    "NonlinearDemandModel",
}

# methods and properties of public classes that need no caller there,
# each with the reason it stays
_UNCALLED_MEMBERS = {
    # the error half of the (value, error) pair, named as the value half
    # is; callers unpack the pair
    "QuadResult.error",
}


def _sources(root):
    """Parsed modules of the package, its demos and its benchmark, test
    files excluded, as (module name, tree)."""
    paths = [*(root / "src" / "markup_guarantee").glob("*.py"),
             *(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    return [(path.stem, ast.parse(path.read_text())) for path in paths
            if not path.name.startswith("test_")]


def _callers(root):
    """Names loaded, and attributes read off the package or a submodule, in
    the package, its demos and its benchmark (test files excluded), each
    outside the module-level definition of that name."""
    homes = {"mg", "markup_guarantee", *SUBMODULES,
             *(f"markup_guarantee.{name}" for name in SUBMODULES)}
    used = set()
    for _, tree in _sources(root):
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)):
                    name = node.id
                elif (isinstance(node, ast.Attribute)
                        and ast.unparse(node.value) in homes):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def _attributes_read(root):
    """Attribute names read in the package, its demos and its benchmark
    (test files excluded): the set read off any object but self, and the
    (module, class, name) triples read off self in a class body."""
    anywhere, on_self = set(), set()
    for module, tree in _sources(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                on_self |= {(module, node.name, sub.attr)
                            for sub in ast.walk(node)
                            if isinstance(sub, ast.Attribute)
                            and ast.unparse(sub.value) == "self"}
            elif (isinstance(node, ast.Attribute)
                    and ast.unparse(node.value) != "self"):
                anywhere.add(node.attr)
    return anywhere, on_self


def _public_members():
    """(class, member name) for each public method and property that a
    public class of a submodule defines itself."""
    for name in SUBMODULES:
        module = importlib.import_module(f"markup_guarantee.{name}")
        for cls in (getattr(module, n) for n in module.__all__):
            if not isinstance(cls, type):
                continue
            for member, obj in vars(cls).items():
                if not member.startswith("_") and isinstance(
                        obj, (types.FunctionType, property, staticmethod,
                              classmethod)):
                    yield cls, member


def _related(module, class_name, cls):
    """Whether the class class_name of a package module is cls, one of its
    bases or one of its subclasses: self there may be a cls."""
    if module not in SUBMODULES:
        return False
    other = getattr(importlib.import_module(f"markup_guarantee.{module}"),
                    class_name, None)
    return isinstance(other, type) and (issubclass(cls, other)
                                        or issubclass(other, cls))


def test_every_public_name_has_a_caller():
    root = pathlib.Path(__file__).resolve().parents[1]
    used = _callers(root)
    uncalled = [f"{name}.{n}" for name in SUBMODULES
                for n in importlib.import_module(
                    f"markup_guarantee.{name}").__all__
                if n not in used and n not in _UNCALLED]
    assert uncalled == []
    assert _UNCALLED.isdisjoint(used)
    # a member counts as called when its name is read off any object but
    # self, or off self in its own class, a base or a subclass
    anywhere, on_self = _attributes_read(root)
    members = [(f"{cls.__name__}.{member}", member in anywhere or any(
                   read == member and _related(module, owner, cls)
                   for module, owner, read in on_self))
               for cls, member in _public_members()]
    assert [m for m, called in members
            if not called and m not in _UNCALLED_MEMBERS] == []
    assert [m for m, called in members
            if called and m in _UNCALLED_MEMBERS] == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test extra: importing it would cost the CLI its start-up
    # time and about 40 MB of resident memory
    root = os.path.dirname(os.path.dirname(os.path.abspath(mg.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, markup_guarantee.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def _library_values():
    """Defaulted parameters of every function, method and constructor in
    the package, plus the defaulted fields of its dataclasses."""
    count = 0
    package = os.path.dirname(os.path.abspath(mg.__file__))
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                count += sum(isinstance(stmt, ast.AnnAssign)
                             and stmt.value is not None for stmt in node.body)
    return count


def _cli_flags():
    """The flags of every subcommand, summed over the subcommands."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sum(1 for parser in sub.choices.values() for a in parser._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction))


def test_settable_value_count():
    # each settable value doubles the configurations to cover: a change
    # that adds or removes one updates this pin and the ROADMAP's count
    assert (_library_values(), _cli_flags()) == (17, 18)


def test_tracer_targets_exist():
    # perfbench/tracer.py wraps these functions at install, and raises
    # AttributeError when one is gone; read its source without importing it
    root = pathlib.Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "perfbench" / "tracer.py").read_text())
    spanned = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["_SPANNED"])
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    # what install() reads besides: screening.iron, quadrature.adaptive_quad,
    # and the methods it replaces, screening.VirtualValueCurve.phi_bar
    targets = {f"{home}.{name}" for home, names in spanned.items()
               for name in names}
    for node in ast.walk(install):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in SUBMODULES):
            targets.add(f"{node.value.id}.{node.attr}")
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == "_replace_method"
                and isinstance(node.args[0], ast.Attribute)
                and isinstance(node.args[1], ast.Constant)):
            targets.add(f"{ast.unparse(node.args[0])}.{node.args[1].value}")
    assert {"screening.iron", "screening.VirtualValueCurve.phi_bar",
            "functionals.consumer_surplus"} <= targets
    missing = []
    for target in sorted(targets):
        home, *path = target.split(".")
        obj = importlib.import_module(f"markup_guarantee.{home}")
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(target)
    assert missing == []


def _unused_imports(path):
    """Names a module-level import binds in path and nothing there reads:
    `__future__` imports, names listed in `__all__` and a package's
    `__init__.py` re-exports are exempt."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)
                for elt in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items())
            if name not in read and name not in exported]


def test_no_unused_module_imports():
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [*(root / "src" / "markup_guarantee").glob("*.py"),
             *(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]
    assert [hit for path in sorted(paths) for hit in _unused_imports(path)] == []
