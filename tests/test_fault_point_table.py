"""docs/fault_injection.md's point table matches the fault-point catalog.

A fault plan names its point by string, so the table is where a reader
looks up what may be aimed at.  It must list exactly the catalogued
points, in catalog order.
"""

import re
from pathlib import Path

from repro.faults.points import ALL_POINTS

DOC = Path(__file__).resolve().parents[1] / "docs" / "fault_injection.md"


def documented_points():
    """The point column of the table under "## Fault points"."""
    section = DOC.read_text().split("## Fault points", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        match.group(1)
        for line in section.splitlines()
        if (match := re.match(r"\| `([\w.]+)` +\|", line))
    ]


def test_point_table_lists_exactly_the_catalog():
    assert documented_points() == list(ALL_POINTS)
