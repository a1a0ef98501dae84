"""The benchmark harness under perfbench/ wraps named package functions and
reads the count-table cache from outside the package.  These names must keep
resolving, or traced benchmark runs break while the rest of the suite
passes."""

import importlib
import runpy
from pathlib import Path

import pytest

from voxsphere import analysis, kernels

# run_path compiles the source without writing a bytecode cache next to it
SPANS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))["SPANS"]


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fns in SPANS.items()
                                  for fn in fns])
def test_span_targets_resolve(name):
    mod, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"voxsphere.{mod}"), fn))


def test_table_cache_and_backend_flag_resolve():
    assert callable(analysis._Tables.grow)
    assert isinstance(analysis._tables.rmax, int)
    assert kernels.using_numba() is False
