"""Scalar greedy-forwarding hop choice.

:meth:`repro.net.routing.GreedyForwarding.next_hops` memoizes per topology
version and sweeps neighbour distances in one vectorized call; this
oracle makes one scalar distance/depth query per neighbour instead.
"""

from __future__ import annotations

from repro.net.packet import NetPacket
from repro.net.routing import GreedyForwarding
from repro.net.topology import AcousticNetTopology


def greedy_next_hops_reference(
    routing: GreedyForwarding,
    node: str,
    packet: NetPacket,
    topology: AcousticNetTopology,
) -> tuple[str, ...]:
    """Pre-vectorization greedy hop choice (per-neighbour scalar calls)."""
    destination = packet.destination
    neighbors = topology.neighbors(node)
    if not neighbors:
        return ()
    if destination in neighbors:
        return (destination,)
    if routing.mode == "distance":
        if destination not in topology or not topology.is_active(destination):
            return ()
        own = topology.distance_m(node, destination)
        best = min(neighbors, key=lambda n: topology.distance_m(n, destination))
        if topology.distance_m(best, destination) < own:
            return (best,)
        return ()
    own_depth = topology.position(node).depth_m
    best = min(neighbors, key=lambda n: topology.position(n).depth_m)
    if topology.position(best).depth_m < own_depth:
        return (best,)
    return ()
