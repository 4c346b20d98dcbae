"""repro.faults — deterministic fault injection and retry/degradation.

Public surface:

* :mod:`repro.faults.points` — the named fault-point catalog;
* :class:`FaultPlan` / :class:`FaultRule` — the trigger DSL;
* :class:`FaultInjector` / :data:`NULL_INJECTOR` — the injector seam
  (NULL-object pattern, zero-cost when disabled);
* :class:`RetryPolicy` / :func:`run_with_lock_retry` — bounded retries
  with deterministic :class:`~repro.common.clock.SkewedClock` backoff;
* :mod:`repro.faults.campaign` — the crash campaign, failover drill
  and restart drill, three rows of one survey -> enumerate -> run ->
  audit protocol that the ``python -m repro.chaos`` CLI drives.

See ``docs/fault_injection.md``.
"""

from repro.faults import points
from repro.faults.injector import (
    ALL_ACTIONS,
    CRASH,
    CRASH_COMPLEX,
    DELAY,
    DROP,
    DUPLICATE,
    FAIL,
    NULL_INJECTOR,
    TORN,
    FaultInjector,
    FaultPlan,
    FaultRule,
    NullFaultInjector,
)
from repro.faults.policy import RetryPolicy, run_with_lock_retry

__all__ = [
    "points",
    "ALL_ACTIONS",
    "CRASH",
    "CRASH_COMPLEX",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "FAIL",
    "TORN",
    "NULL_INJECTOR",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "NullFaultInjector",
    "RetryPolicy",
    "run_with_lock_retry",
]
