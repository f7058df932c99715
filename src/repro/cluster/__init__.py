"""Multi-tenant memory-server cluster: the scale-out layer.

HPBD's memory servers are "daemons allocating memory on behalf of
clients", and §5 notes a server "is able to serve multiple clients
using different swap areas" — but the paper only ever benchmarks one
client.  This package supplies the pieces a shared fleet needs:

* :mod:`.registry`   — fleet capacity book-keeping + heartbeat liveness;
* :mod:`.placement`  — pluggable chunk-map policies (the paper's
  blocking layout, least-loaded bin-packing, consistent-hash sharding);
* :mod:`.admission`  — reserve-on-connect admission control with typed
  NACKs and overcommit;
* :mod:`.qos`        — weighted-fair credit partitioning and service
  scheduling per tenant;
* :mod:`.migration`  — throttled bulk copies between servers over a
  fluid channel (the repair path's transfer).

:mod:`repro.runner` builds a cluster run: its tenant hosts plus the
fleet they share.
"""

from .admission import AdmissionController, AdmissionNack
from .migration import ChunkMigrator
from .placement import plan_placement
from .qos import WeightedFairScheduler, partition_credits
from .registry import CapacityError, FleetRegistry
from .results import ClusterResult, TenantResult
from .runner import run_cluster_scenario

__all__ = [
    "AdmissionController",
    "AdmissionNack",
    "CapacityError",
    "ChunkMigrator",
    "ClusterResult",
    "FleetRegistry",
    "TenantResult",
    "WeightedFairScheduler",
    "partition_credits",
    "plan_placement",
    "run_cluster_scenario",
]
