"""One world's seams: its stats registry, tracer and fault injector.

The SD complex (Figure 1) and the CS server with its clients are each
one system, and every component of a system reports into that system's
one :class:`~repro.common.stats.StatsRegistry`, one tracer
(:mod:`repro.obs`) and one fault injector (:mod:`repro.faults`).
:class:`Seams` is that triple as one frozen value.  ``SDComplex`` and
``CsSystem`` resolve it once, with :meth:`Seams.of`, from their public
``stats=`` / ``tracer=`` / ``injector=`` keywords; every component they
build takes the value as its one ``seams`` argument and binds the
attributes it uses at construction, so hot paths read them directly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.common.stats import StatsRegistry
from repro.faults.injector import NULL_INJECTOR, NullFaultInjector
from repro.obs.tracer import NULL_TRACER, NullTracer


class Seams(NamedTuple):
    """The stats registry, tracer and fault injector of one world."""

    stats: StatsRegistry
    tracer: NullTracer
    injector: NullFaultInjector

    @classmethod
    def of(cls, stats: Optional[StatsRegistry] = None,
           tracer: Optional[NullTracer] = None,
           injector: Optional[NullFaultInjector] = None) -> "Seams":
        """Resolve the defaults — a fresh registry, the null tracer and
        the null injector — and attach an enabled injector to the
        world's registry and tracer, so a campaign-made injector
        reports where the stack under test does.  A leaf component
        built bare calls this too: its seams are fresh and silent."""
        seams = cls(StatsRegistry() if stats is None else stats,
                    NULL_TRACER if tracer is None else tracer,
                    NULL_INJECTOR if injector is None else injector)
        if seams.injector.enabled:
            seams.injector.attach(stats=seams.stats, tracer=seams.tracer)
        return seams
