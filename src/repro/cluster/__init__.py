"""Scale-out machinery for the SD complex.

The paper's Section 2 global lock manager is a single logical service;
this package lets the reproduction run it as K independent shards
(:mod:`repro.cluster.glm`) and build N-instance complexes from a config
(:mod:`repro.cluster.config`).  See ``docs/scaleout.md`` for the
sharding scheme.
"""

from repro.cluster.config import ClusterConfig, build_cluster
from repro.cluster.glm import PartitionedLockManager, shard_of

__all__ = [
    "ClusterConfig",
    "PartitionedLockManager",
    "build_cluster",
    "shard_of",
]
