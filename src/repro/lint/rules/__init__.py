"""Rule registry: one module per protocol concern.

Rule IDs are stable and documented in ``docs/static_analysis.md``;
suppression comments reference them, so never renumber.  R001–R007 are
the original per-function pattern matchers; R008–R013 ride on the
flow-aware layer (``cfg``/``dataflow``/``callgraph``).  R010 (shared
state in thread workers) is retired: ``src/`` has no threads.
"""

from typing import Dict, List

from repro.lint.engine import Rule
from repro.lint.rules.clock import ClockDisciplineRule
from repro.lint.rules.determinism import DeterminismHygieneRule
from repro.lint.rules.errors import ErrorDisciplineRule
from repro.lint.rules.faults import FaultDisciplineRule
from repro.lint.rules.locks import LockPairingRule, LockReleasePathsRule
from repro.lint.rules.lsn import LsnHygieneRule
from repro.lint.rules.seams import SeamThreadingRule
from repro.lint.rules.spans import SpanDisciplineRule
from repro.lint.rules.stats import StatsDisciplineRule
from repro.lint.rules.wal import WalDisciplineRule, WalPathOrderRule

ALL_RULES: List[Rule] = [
    WalDisciplineRule(),
    ClockDisciplineRule(),
    LsnHygieneRule(),
    LockPairingRule(),
    ErrorDisciplineRule(),
    StatsDisciplineRule(),
    FaultDisciplineRule(),
    SeamThreadingRule(),
    LockReleasePathsRule(),
    WalPathOrderRule(),
    DeterminismHygieneRule(),
    SpanDisciplineRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID"]
