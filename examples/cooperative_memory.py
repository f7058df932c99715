#!/usr/bin/env python3
"""Cooperative cluster memory: the paper's §7 future work, running.

A small cluster where nodes advertise their idle memory to a broker;
a memory-starved node asks for remote swap and the broker picks the
richest lenders (memory ushering), sizing each server's share to what it
can spare.  The resulting weighted HPBD device then absorbs a quick sort
that is 2x the client's RAM.

Run:  python examples/cooperative_memory.py
"""

from repro import QuicksortWorkload, ScenarioConfig
from repro.hpbd import HPBDClient, HPBDServer, MemoryBroker, lender_chunk_map
from repro.kernel import Node
from repro.net import Fabric
from repro.simulator import Simulator
from repro.units import MiB, fmt_bytes
from repro.workloads import execute


def main() -> None:
    sim = Simulator()
    fabric = Fabric(sim)
    broker = MemoryBroker(sim, self_reserve_bytes=16 * MiB)

    # The cluster: nodes with different amounts of free memory.
    cluster_free = {"nodeA": 96 * MiB, "nodeB": 48 * MiB, "nodeC": 20 * MiB}
    for name, free in cluster_free.items():
        ad = broker.advertise(name, free)
        print(f"{name}: {fmt_bytes(free)} free -> advertises "
              f"{fmt_bytes(ad.idle_bytes)} lendable")

    # A starved client wants 96 MiB of remote swap.
    want = 96 * MiB
    chosen = broker.select_servers(want)
    print(f"\nbroker grants {fmt_bytes(want)} from: "
          + ", ".join(f"{n} ({fmt_bytes(s)})" for n, s in chosen))

    servers = [
        HPBDServer(sim, fabric, name, store_bytes=share)
        for name, share in chosen
    ]
    dist = lender_chunk_map([share for _n, share in chosen])
    client_node = Node(sim, fabric, "client", mem_bytes=32 * MiB)
    client = HPBDClient(
        sim, client_node, servers, total_bytes=want, distribution=dist
    )

    workload = QuicksortWorkload(nelems=(64 * MiB) // 4, target_inmem_sec=6.0)
    aspace = client_node.vmm.create_address_space(workload.npages, "sort")

    def main_proc(sim):
        yield from client.connect()
        client_node.swapon(client.queue, want)
        elapsed = yield from execute(workload, client_node, aspace)
        yield from client_node.vmm.quiesce()
        return elapsed

    proc = sim.spawn(main_proc(sim))
    elapsed = sim.run(until=proc)
    print(f"\nquick sort of {fmt_bytes(64 * MiB)} on a "
          f"{fmt_bytes(32 * MiB)} node: {elapsed / 1e6:.2f} s")
    for srv, (name, share) in zip(servers, chosen):
        used = srv.ramdisk.pages_stored * 4096
        print(f"  {name}: holds {fmt_bytes(used)} of its "
              f"{fmt_bytes(share)} share")
    print(f"\nremaining cluster idle memory: {fmt_bytes(broker.total_idle)}")


if __name__ == "__main__":
    main()
