"""Bench collection guard: skip (never error) without pytest-benchmark.

The ``benchmark`` fixture comes from the optional pytest-benchmark
plugin.  When the plugin is absent — or disabled with
``-p no:benchmark`` — collecting these modules must degrade to clean
skips so ad-hoc ``pytest benchmarks/`` runs never hard-fail on a
missing optional dependency.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Bench modules import sibling helpers (`from _common import ...`);
# make that work regardless of the invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_collection_modifyitems(config, items):
    if config.pluginmanager.hasplugin("benchmark"):
        return
    skip = pytest.mark.skip(
        reason="pytest-benchmark not installed (or disabled); "
        "timing fixtures unavailable"
    )
    for item in items:
        if "benchmark" in getattr(item, "fixturenames", ()):
            item.add_marker(skip)
