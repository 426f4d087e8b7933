"""The package root re-exports each submodule's public API, and the
package runs on numpy alone."""

import importlib
import os
import subprocess
import sys

import markup_guarantee as mg

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
