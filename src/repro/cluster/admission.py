"""Admission control: reserve-on-connect with typed NACKs.

A tenant's whole swap area is reserved against advertised fleet
capacity *before* its driver connects — the cluster-level analogue of
the server's staging-pool NACK: shed load at the door, never wedge
inside.  On a placement failure the controller re-plans once with
least-loaded bin-packing; if that fails too, the tenant gets a typed
:class:`AdmissionNack` and the runner falls back to its local disk or
raises, per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hpbd.striping import Chunk
from ..redundancy.policy import RedundancyPolicy, ShardGroup, parse_policy
from ..simulator import SimulationError, StatsRegistry
from .placement import plan_group, plan_placement
from .registry import CapacityError, FleetRegistry

__all__ = ["Admission", "AdmissionController", "AdmissionNack"]


class AdmissionNack(SimulationError):
    """Typed rejection: the fleet cannot host this tenant's area."""

    def __init__(self, tenant: str, reason: str) -> None:
        super().__init__(f"tenant {tenant} not admitted: {reason}")
        self.tenant = tenant
        self.reason = reason


@dataclass
class Admission:
    """A granted reservation: everything the driver needs to connect."""

    tenant: str
    chunks: list[Chunk]
    #: store offset of this tenant's extent on each server (0 if the
    #: placement left that server unused)
    area_bases: list[int]
    #: bytes reserved per server (diagnostics / release accounting)
    share_bytes: list[int] = field(default_factory=list)
    #: the policy that actually produced the map ("least_loaded" after
    #: a remap retry may differ from the configured one)
    policy: str = "blocking"
    #: redundancy copies' store extents (rs parity shards / nway
    #: replicas); empty for unprotected tenants
    parity_chunks: list[Chunk] = field(default_factory=list)
    #: the shard-role-to-server map for a redundant tenant
    group: ShardGroup | None = None


class AdmissionController:
    """Reserve-on-connect gatekeeper in front of the registry."""

    def __init__(
        self,
        registry: FleetRegistry,
        policy: str = "blocking",
        stats: StatsRegistry | None = None,
    ) -> None:
        self.registry = registry
        self.policy = policy
        self.stats = stats if stats is not None else registry.stats
        self._c_admitted = self.stats.counter("cluster.admitted")
        self._c_remapped = self.stats.counter("cluster.admission_remaps")
        self._c_nacked = self.stats.counter("cluster.admission_nacks")

    def admit(
        self,
        tenant: str,
        total_bytes: int,
        redundancy: str | RedundancyPolicy | None = None,
    ) -> Admission:
        """Plan and reserve ``total_bytes`` for ``tenant``.

        ``redundancy`` selects policy-driven group admission (``nway(r)``
        replica rings, mirroring included, or ``rs(k,m)`` stripe groups).
        Raises :class:`AdmissionNack` when no placement fits.
        """
        if redundancy is not None:
            policy = parse_policy(redundancy)
            if policy.kind != "none":
                return self._admit_group(tenant, total_bytes, policy)
        registry = self.registry
        policy = self.policy
        try:
            chunks = plan_placement(policy, tenant, total_bytes, registry)
        except CapacityError:
            # Remap retry: bin-pack onto whatever capacity is left.
            policy = "least_loaded"
            self._c_remapped.add()
            try:
                chunks = plan_placement(
                    policy, tenant, total_bytes, registry
                )
            except CapacityError as err:
                self._c_nacked.add()
                raise AdmissionNack(tenant, str(err)) from err
        nservers = len(registry.servers)
        shares = [0] * nservers
        for c in chunks:
            shares[c.server] += c.nbytes
        bases = [0] * nservers
        for server, share in enumerate(shares):
            if share:
                bases[server] = registry.reserve(tenant, server, share)
        self._c_admitted.add()
        return Admission(
            tenant=tenant,
            chunks=chunks,
            area_bases=bases,
            share_bytes=shares,
            policy=policy,
        )

    def _admit_group(
        self, tenant: str, total_bytes: int, policy: RedundancyPolicy
    ) -> Admission:
        """Policy-driven group admission: plan the replica ring or
        stripe group, then reserve each member's shard area (rs: one
        shard; nway: own chunk plus its predecessors' replica areas,
        all behind one contiguous base)."""
        registry = self.registry
        try:
            data_chunks, parity_chunks, group = plan_group(
                policy, tenant, total_bytes, registry
            )
        except (CapacityError, ValueError) as err:
            self._c_nacked.add()
            raise AdmissionNack(tenant, str(err)) from err
        n = len(registry.servers)
        shares = [0] * n
        need = group.member_need_bytes()
        for server in group.servers:
            shares[server] = need
        short = [
            s for s in group.servers if need > registry.free_bytes(s)
        ]
        if short:
            self._c_nacked.add()
            raise AdmissionNack(
                tenant,
                f"{policy.label} shares of {need} B do not fit "
                f"servers {short}",
            )
        bases = [0] * n
        for server in group.servers:
            bases[server] = registry.reserve(tenant, server, need)
        group.area_bases = [bases[s] for s in group.servers]
        self._c_admitted.add()
        return Admission(
            tenant=tenant,
            chunks=data_chunks,
            area_bases=bases,
            share_bytes=shares,
            policy=policy.label,
            parity_chunks=parity_chunks,
            group=group,
        )

    def evict(self, admission: Admission) -> None:
        """Return an admitted tenant's reservation to the books."""
        for server, share in enumerate(admission.share_bytes):
            if share:
                self.registry.release(admission.tenant, server, share)
