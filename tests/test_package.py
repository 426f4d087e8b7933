"""The package root re-exports each submodule's public API."""

import importlib

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
