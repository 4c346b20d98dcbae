"""Seeded scale-out workload: cross-instance hot-page ping-pong.

The multi-instance tests and the redo golden need a workload whose
*sharing ratio* is a first-class knob: with N instances each owning a
private slice of the database, what fraction of operations touch a
small hot set every instance fights over?  Low sharing keeps the
instances' pages and locks disjoint; high sharing maximises page
ping-pong through the coherency layer and lock traffic on the one
GLM.

Built on the primitives of :mod:`repro.workload.generator`: the same
``TxnScript``/``Op`` vocabulary, the same round-robin interleaved
driver with deadlock-retry, the same determinism discipline (one
``random.Random(seed)``, no wall clock).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.workload.generator import (
    Op,
    OpKind,
    RunResult,
    TxnScript,
    populate_pages,
    run_interleaved_sd,
)


@dataclass(frozen=True)
class ScaleoutConfig:
    """Knobs for :func:`build_scaleout_scripts` / :func:`run_scaleout`."""

    n_transactions: int = 48
    ops_per_txn: int = 6
    read_fraction: float = 0.4
    #: Probability an op targets the shared hot set instead of the
    #: running instance's private slice.
    sharing_ratio: float = 0.1
    n_hot_pages: int = 4
    #: Private pages per instance (each populated with records).
    pages_per_instance: int = 4
    records_per_page: int = 8
    payload_bytes: int = 24
    seed: int = 7


#: The two profiles bench S1 sweeps: near-disjoint working sets vs
#: everybody hammering the same hot pages.
LOW_SHARING = ScaleoutConfig(sharing_ratio=0.05)
HIGH_SHARING = ScaleoutConfig(sharing_ratio=0.75)


def populate_scaleout(sd, config: ScaleoutConfig) -> Tuple[
        List[Tuple[int, int]], Dict[int, List[Tuple[int, int]]]]:
    """Create the hot set plus one private page slice per instance.

    Returns ``(hot_handles, private_handles)`` where ``private_handles``
    maps each instance's *script index* (0-based position in the sorted
    instance list) to its (page, slot) handles.  All allocation runs on
    the first instance — allocation is not what the workload measures.
    """
    first = sd.instances[sorted(sd.instances)[0]]
    hot_pages = populate_pages(
        first, config.n_hot_pages, config.records_per_page,
        payload_bytes=config.payload_bytes)
    private: Dict[int, List[Tuple[int, int]]] = {}
    for index, _ in enumerate(sorted(sd.instances)):
        private[index] = populate_pages(
            first, config.pages_per_instance, config.records_per_page,
            payload_bytes=config.payload_bytes)
    return hot_pages, private


def build_scaleout_scripts(
    config: ScaleoutConfig,
    n_systems: int,
    hot_handles: Sequence[Tuple[int, int]],
    private_handles: Dict[int, List[Tuple[int, int]]],
) -> List[TxnScript]:
    """Deterministic transaction scripts with the sharing-ratio split.

    Transaction ``t`` runs on instance ``t % n_systems``; each op rolls
    the sharing die, then picks a handle from the hot set or from that
    instance's private slice.
    """
    rng = random.Random(config.seed)
    scripts: List[TxnScript] = []
    for t in range(config.n_transactions):
        system_index = t % n_systems
        script = TxnScript(system_index=system_index)
        own = private_handles[system_index]
        for _ in range(config.ops_per_txn):
            if hot_handles and rng.random() < config.sharing_ratio:
                page_id, slot = rng.choice(list(hot_handles))
            else:
                page_id, slot = rng.choice(own)
            if rng.random() < config.read_fraction:
                script.ops.append(
                    Op(kind=OpKind.READ, page_id=page_id, slot=slot))
            else:
                payload = bytes(
                    rng.randrange(1, 256)
                    for _ in range(config.payload_bytes))
                script.ops.append(Op(
                    kind=OpKind.UPDATE, page_id=page_id, slot=slot,
                    payload=payload,
                ))
        scripts.append(script)
    return scripts


def run_scaleout(sd, config: ScaleoutConfig) -> RunResult:
    """Populate, script and drive the scale-out workload on ``sd``."""
    hot, private = populate_scaleout(sd, config)
    scripts = build_scaleout_scripts(config, len(sd.instances), hot, private)
    instances = [sd.instances[sid] for sid in sorted(sd.instances)]
    return run_interleaved_sd(instances, scripts)
