"""The XT3 interconnect substrate: topology, routing, links, fabric."""

from .fabric import Fabric, NetworkPort
from .link import LinkModel
from .packet import MessageTrain, WireChunk, chunk_message, next_message_id
from .routing import (
    Router,
    RouteTable,
    axis_span_hops,
    build_route_tables,
    min_cut_hops,
    route_path,
    slab_cut_hops,
)
from .topology import Coord, Torus3D

__all__ = [
    "Torus3D",
    "Coord",
    "Router",
    "RouteTable",
    "build_route_tables",
    "route_path",
    "axis_span_hops",
    "slab_cut_hops",
    "min_cut_hops",
    "LinkModel",
    "WireChunk",
    "MessageTrain",
    "chunk_message",
    "next_message_id",
    "Fabric",
    "NetworkPort",
]
