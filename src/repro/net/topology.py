"""3D mesh/torus topology of the XT3 interconnect.

The SeaStar router supports a 3D torus.  Red Storm, the machine measured in
the paper, is special: its switching cabinets and cable-length limits allow
wraparound links **only in the z dimension** (section 5.1), so the topology
here takes a per-dimension wrap flag.

Nodes are identified by a dense integer id; :class:`Torus3D` converts
between ids and ``(x, y, z)`` coordinates and enumerates neighbor links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Coord", "Torus3D"]


@dataclass(frozen=True, order=True)
class Coord:
    """A node position in the 3D grid."""

    x: int
    y: int
    z: int

    def __iter__(self) -> Iterator[int]:
        return iter((self.x, self.y, self.z))


#: Direction labels in router-port order (matches Fig. 1: X+, X-, Y+, Y-, Z+, Z-).
DIRECTIONS: tuple[str, ...] = ("x+", "x-", "y+", "y-", "z+", "z-")

#: (plus, minus) port labels per axis, x then y then z
_AXIS_PORTS: tuple[tuple[str, str], ...] = (("x+", "x-"), ("y+", "y-"), ("z+", "z-"))

_DELTAS: dict[str, tuple[int, int, int]] = {
    "x+": (1, 0, 0),
    "x-": (-1, 0, 0),
    "y+": (0, 1, 0),
    "y-": (0, -1, 0),
    "z+": (0, 0, 1),
    "z-": (0, 0, -1),
}


class Torus3D:
    """A ``dims = (nx, ny, nz)`` grid with optional wraparound per dimension.

    ``wrap=(False, False, True)`` reproduces Red Storm; ``(True,)*3`` is the
    commercial XT3 full torus.
    """

    def __init__(
        self,
        dims: tuple[int, int, int],
        wrap: tuple[bool, bool, bool] = (False, False, True),
    ):
        if any(d < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        self.dims = tuple(dims)
        self.wrap = tuple(wrap)
        nx, ny, nz = self.dims
        self._num_nodes = nx * ny * nz
        # per axis: (extent, id stride, wraps); x is fastest-varying, and a
        # wrap flag on an extent-1 axis connects nothing
        self._axes = tuple(
            (size, stride, bool(w) and size > 1)
            for size, stride, w in zip(self.dims, (1, nx, nx * ny), self.wrap)
        )

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return self._num_nodes

    # -- id <-> coordinate -------------------------------------------------
    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self._num_nodes:
            raise ValueError(f"node id {node_id} out of range")

    def coord(self, node_id: int) -> Coord:
        """Coordinates of ``node_id`` (x fastest-varying)."""
        self._check(node_id)
        nx, ny, _ = self.dims
        x = node_id % nx
        y = (node_id // nx) % ny
        z = node_id // (nx * ny)
        return Coord(x, y, z)

    def axis_coord(self, node_id: int, axis: int) -> int:
        """Coordinate of ``node_id`` along ``axis`` (0=x, 1=y, 2=z)."""
        self._check(node_id)
        size, stride, _ = self._axes[axis]
        return (node_id // stride) % size

    def node_id(self, coord: Coord) -> int:
        """Dense id of ``coord``."""
        nx, ny, nz = self.dims
        if not (0 <= coord.x < nx and 0 <= coord.y < ny and 0 <= coord.z < nz):
            raise ValueError(f"coordinate {coord} outside {self.dims}")
        return coord.x + coord.y * nx + coord.z * nx * ny

    # -- neighborhood --------------------------------------------------------
    def neighbor(self, coord: Coord, direction: str) -> Coord | None:
        """Neighbor of ``coord`` in ``direction``, or None at a mesh edge."""
        dx, dy, dz = _DELTAS[direction]
        vals = [coord.x + dx, coord.y + dy, coord.z + dz]
        for axis in range(3):
            size = self.dims[axis]
            if vals[axis] < 0 or vals[axis] >= size:
                if self.wrap[axis] and size > 1:
                    vals[axis] %= size
                else:
                    return None
        return Coord(*vals)

    def neighbors(self, node_id: int) -> dict[str, int]:
        """Map of direction -> neighbor id for every connected port.

        Pure id arithmetic (no :class:`Coord`): equal to walking
        :meth:`neighbor` from :meth:`coord` in :data:`DIRECTIONS` order.
        """
        self._check(node_id)
        out: dict[str, int] = {}
        for (plus, minus), (size, stride, wraps) in zip(_AXIS_PORTS, self._axes):
            c = (node_id // stride) % size
            if c + 1 < size:
                out[plus] = node_id + stride
            elif wraps:
                out[plus] = node_id - c * stride
            if c > 0:
                out[minus] = node_id - stride
            elif wraps:
                out[minus] = node_id + (size - 1) * stride
        return out

    # -- distances -----------------------------------------------------------
    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes under this wrap config."""
        self._check(src)
        self._check(dst)
        total = 0
        for size, stride, wraps in self._axes:
            d = abs((src // stride) % size - (dst // stride) % size)
            if wraps and size - d < d:
                d = size - d
            total += d
        return total

    def diameter(self) -> int:
        """Largest minimal hop count over all node pairs."""
        return sum(size // 2 if wraps else size - 1 for size, _, wraps in self._axes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Torus3D(dims={self.dims}, wrap={self.wrap})"
