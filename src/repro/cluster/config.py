"""Config-driven construction of an N-instance scale-out complex."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.stats import StatsRegistry
from repro.faults.injector import NullFaultInjector
from repro.obs.tracer import NullTracer
from repro.sd.complex import SDComplex


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a scale-out SD complex.

    The defaults are the scale-out baseline: four instances, four GLM
    shards.  ``lock_shards == 1`` degrades to the monolithic GLM, so a
    one-instance config reproduces the classic complex exactly.
    """

    n_instances: int = 4
    lock_shards: int = 4
    n_data_pages: int = 512
    transfer_scheme: str = "medium"
    piggyback_enabled: bool = True

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ValueError("a cluster needs at least one instance")
        if self.lock_shards < 1:
            raise ValueError("lock_shards must be >= 1")


def build_cluster(
    config: ClusterConfig,
    stats: Optional[StatsRegistry] = None,
    tracer: Optional[NullTracer] = None,
    injector: Optional[NullFaultInjector] = None,
) -> SDComplex:
    """An :class:`SDComplex` with ``config.n_instances`` instances,
    and a ``config.lock_shards``-way GLM."""
    sd = SDComplex(
        n_data_pages=config.n_data_pages,
        transfer_scheme=config.transfer_scheme,
        piggyback_enabled=config.piggyback_enabled,
        lock_shards=config.lock_shards,
        stats=stats,
        tracer=tracer,
        injector=injector,
    )
    for system_id in range(1, config.n_instances + 1):
        sd.add_instance(system_id)
    return sd
