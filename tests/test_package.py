"""The package root re-exports each submodule's public API, the package
runs on numpy alone, and its count of settable values is pinned."""

import argparse
import ast
import glob
import importlib
import os
import subprocess
import sys

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
    assert (_library_values(), _cli_flags()) == (35, 24)
