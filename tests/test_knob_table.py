"""docs/operations.md's knob table matches the engine constructors.

Every keyword an engine constructor takes is a configuration someone
may set, so the table must list exactly those keywords, under exactly
the constructors that take them.  The counts are pinned too: a new
keyword is a deliberate change to this file and to the table.
"""

import inspect
import re
from pathlib import Path

import pytest

from repro.cs.server import CsServer
from repro.cs.system import CsSystem
from repro.locking.lock_manager import LockManager
from repro.sd.complex import SDComplex
from repro.storage.disk import SharedDisk

ENGINES = {"SDComplex": SDComplex, "CsSystem": CsSystem, "CsServer": CsServer}

DOC = Path(__file__).resolve().parents[1] / "docs" / "operations.md"


def keywords(cls):
    return set(inspect.signature(cls.__init__).parameters) - {"self"}


def documented_keywords():
    """Engine name -> keywords listed for it in "Configuration knobs"."""
    section = DOC.read_text().split("## Configuration knobs", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = {name: set() for name in ENGINES}
    for line in section.splitlines():
        cells = line.split(" | ")
        if not line.startswith("| `") or len(cells) < 3:
            continue
        names = re.findall(r"`(\w+)`", cells[0])
        for engine in set(re.findall(r"`(\w+)`", cells[1])) & set(ENGINES):
            listed[engine].update(names)
    return listed


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_knob_table_lists_exactly_the_constructor_keywords(engine):
    assert documented_keywords()[engine] == keywords(ENGINES[engine])


def test_engine_keyword_counts():
    assert {name: len(keywords(cls)) for name, cls in ENGINES.items()} == {
        "SDComplex": 10, "CsSystem": 6, "CsServer": 4}
    assert len(keywords(SharedDisk)) == 2
    assert len(keywords(LockManager)) == 1
