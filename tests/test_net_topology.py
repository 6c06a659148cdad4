"""3D mesh/torus topology: coordinates, neighbors, distances."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.builder import partition_nodes
from repro.net import Coord, Torus3D
from repro.net.topology import DIRECTIONS

dims_strategy = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
)
wrap_strategy = st.tuples(st.booleans(), st.booleans(), st.booleans())


class TestCoordinates:
    def test_id_coord_round_trip(self):
        topo = Torus3D((3, 4, 5))
        for node in range(topo.num_nodes):
            assert topo.node_id(topo.coord(node)) == node

    def test_x_fastest_varying(self):
        topo = Torus3D((3, 4, 5))
        assert topo.coord(0) == Coord(0, 0, 0)
        assert topo.coord(1) == Coord(1, 0, 0)
        assert topo.coord(3) == Coord(0, 1, 0)
        assert topo.coord(12) == Coord(0, 0, 1)

    def test_out_of_range_rejected(self):
        topo = Torus3D((2, 2, 2))
        with pytest.raises(ValueError):
            topo.coord(8)
        with pytest.raises(ValueError):
            topo.node_id(Coord(2, 0, 0))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            Torus3D((0, 1, 1))

    @settings(max_examples=30, deadline=None)
    @given(dims=dims_strategy)
    def test_round_trip_property(self, dims):
        topo = Torus3D(dims)
        for node in range(topo.num_nodes):
            assert topo.node_id(topo.coord(node)) == node


class TestNeighbors:
    def test_mesh_edge_has_no_neighbor(self):
        topo = Torus3D((3, 3, 3), wrap=(False, False, False))
        corner = topo.neighbors(0)
        assert set(corner) == {"x+", "y+", "z+"}

    def test_full_torus_has_six_neighbors(self):
        topo = Torus3D((3, 3, 3), wrap=(True, True, True))
        for node in range(topo.num_nodes):
            assert len(topo.neighbors(node)) == 6

    def test_redstorm_wrap_only_z(self):
        # Red Storm: mesh in x/y, torus in z (section 5.1)
        topo = Torus3D((3, 3, 3), wrap=(False, False, True))
        corner = topo.neighbors(0)
        assert "x-" not in corner and "y-" not in corner
        assert "z-" in corner  # wraps to z=2 plane

    def test_wrap_ignored_for_size_one_dim(self):
        topo = Torus3D((2, 1, 1), wrap=(True, True, True))
        nbrs = topo.neighbors(0)
        assert set(nbrs.values()) == {1}

    def test_neighbor_symmetry(self):
        topo = Torus3D((4, 3, 5), wrap=(False, True, True))
        for node in range(topo.num_nodes):
            for nbr in topo.neighbors(node).values():
                assert node in topo.neighbors(nbr).values()


class TestDistances:
    def test_mesh_distance_is_manhattan(self):
        topo = Torus3D((5, 5, 5), wrap=(False, False, False))
        a = topo.node_id(Coord(0, 0, 0))
        b = topo.node_id(Coord(4, 3, 2))
        assert topo.distance(a, b) == 9

    def test_torus_distance_wraps(self):
        topo = Torus3D((8, 1, 1), wrap=(True, False, False))
        assert topo.distance(0, 7) == 1
        assert topo.distance(0, 4) == 4

    def test_distance_zero_to_self(self):
        topo = Torus3D((3, 3, 3))
        assert topo.distance(5, 5) == 0

    def test_diameter_mesh(self):
        topo = Torus3D((4, 4, 4), wrap=(False, False, False))
        assert topo.diameter() == 9

    def test_diameter_redstorm_style(self):
        topo = Torus3D((4, 4, 4), wrap=(False, False, True))
        assert topo.diameter() == 3 + 3 + 2

    @settings(max_examples=30, deadline=None)
    @given(dims=dims_strategy, wrap=wrap_strategy)
    def test_distance_symmetric(self, dims, wrap):
        topo = Torus3D(dims, wrap=wrap)
        nodes = list(range(min(topo.num_nodes, 10)))
        for a in nodes:
            for b in nodes:
                assert topo.distance(a, b) == topo.distance(b, a)

    @settings(max_examples=30, deadline=None)
    @given(dims=dims_strategy, wrap=wrap_strategy)
    def test_distance_bounded_by_diameter(self, dims, wrap):
        topo = Torus3D(dims, wrap=wrap)
        diameter = topo.diameter()
        last = topo.num_nodes - 1
        assert topo.distance(0, last) <= diameter

    def test_redstorm_scale(self):
        # the full 27x16x24 Red Storm arrangement
        topo = Torus3D((27, 16, 24), wrap=(False, False, True))
        assert topo.num_nodes == 10368


class TestRedStormGeometry:
    """Full-plane Red Storm geometry the partition-cut logic rests on.

    Two shapes matter: the repo's calibrated 27x16x24 arrangement and
    the 27x20x24 full-machine build-out — both mesh in x/y, torus only
    in z (section 5.1).  The parallel DES driver's lookahead is derived
    from per-axis coordinate distance, so the wraparound asymmetry must
    hold exactly at scale.
    """

    DIMS = [(27, 16, 24), (27, 20, 24)]

    @pytest.mark.parametrize("dims", DIMS)
    def test_node_count_and_diameter(self, dims):
        topo = Torus3D(dims, wrap=(False, False, True))
        assert topo.num_nodes == dims[0] * dims[1] * dims[2]
        # mesh axes contribute extent-1, the z torus only extent/2
        assert topo.diameter() == (dims[0] - 1) + (dims[1] - 1) + dims[2] // 2

    @pytest.mark.parametrize("dims", DIMS)
    def test_z_wraparound_edges_exist(self, dims):
        topo = Torus3D(dims, wrap=(False, False, True))
        lo = topo.node_id(Coord(5, 5, 0))
        hi = topo.node_id(Coord(5, 5, dims[2] - 1))
        # one hop through the z wraparound link, both directions
        assert topo.distance(lo, hi) == 1
        assert topo.neighbors(lo)["z-"] == hi
        assert topo.neighbors(hi)["z+"] == lo

    @pytest.mark.parametrize("dims", DIMS)
    def test_xy_mesh_edges_do_not_wrap(self, dims):
        topo = Torus3D(dims, wrap=(False, False, True))
        x_lo = topo.node_id(Coord(0, 5, 5))
        x_hi = topo.node_id(Coord(dims[0] - 1, 5, 5))
        y_lo = topo.node_id(Coord(5, 0, 5))
        y_hi = topo.node_id(Coord(5, dims[1] - 1, 5))
        assert topo.distance(x_lo, x_hi) == dims[0] - 1
        assert topo.distance(y_lo, y_hi) == dims[1] - 1
        assert "x-" not in topo.neighbors(x_lo)
        assert "x+" not in topo.neighbors(x_hi)
        assert "y-" not in topo.neighbors(y_lo)
        assert "y+" not in topo.neighbors(y_hi)

    def test_z_torus_halves_z_distance(self):
        # the asymmetry the slab-cut math must honor: along z, extreme
        # planes are 1 apart; along x/y they are extent-1 apart
        topo = Torus3D((27, 20, 24), wrap=(False, False, True))
        a = topo.node_id(Coord(0, 0, 0))
        assert topo.distance(a, topo.node_id(Coord(0, 0, 23))) == 1
        assert topo.distance(a, topo.node_id(Coord(0, 0, 12))) == 12
        assert topo.distance(a, topo.node_id(Coord(26, 0, 0))) == 26


def walk_neighbors(topo, node):
    """Neighbors by the coordinate walk: ``coord`` then ``neighbor``."""
    here = topo.coord(node)
    out = {}
    for direction in DIRECTIONS:
        other = topo.neighbor(here, direction)
        if other is not None and other != here:
            out[direction] = topo.node_id(other)
    return out


def walk_distance(topo, src, dst):
    """Hop count by the coordinate walk: per-axis distance of two Coords."""
    total = 0
    for axis, (a, b) in enumerate(zip(topo.coord(src), topo.coord(dst))):
        size = topo.dims[axis]
        direct = abs(a - b)
        wraps = topo.wrap[axis] and size > 1
        total += min(direct, size - direct) if wraps else direct
    return total


class TestIdArithmetic:
    """``distance``, ``neighbors`` and the slab cut work on node ids
    without building Coords; they must equal the coordinate walk on
    every id, including extent-1 axes with the wrap flag set."""

    small_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))

    @settings(max_examples=40, deadline=None)
    @given(dims=small_dims, wrap=wrap_strategy)
    @example(dims=(1, 2, 1), wrap=(True, True, True))
    @example(dims=(4, 1, 3), wrap=(False, True, True))
    def test_distance_and_neighbors_match_coord_walk(self, dims, wrap):
        topo = Torus3D(dims, wrap=wrap)
        for a in range(topo.num_nodes):
            # same ports in the same (router-port) order
            assert list(topo.neighbors(a).items()) == list(
                walk_neighbors(topo, a).items()
            )
            for b in range(topo.num_nodes):
                assert topo.distance(a, b) == walk_distance(topo, a, b)

    @settings(max_examples=40, deadline=None)
    @given(dims=small_dims, wrap=wrap_strategy, nparts=st.integers(1, 5))
    @example(dims=(3, 1, 4), wrap=(False, True, True), nparts=3)
    def test_partition_buckets_match_coord_walk(self, dims, wrap, nparts):
        topo = Torus3D(dims, wrap=wrap)
        for axis in range(3):
            plan = partition_nodes(topo, nparts, axis)
            expected = [[] for _ in plan.ranges]
            for node in range(topo.num_nodes):
                v = tuple(topo.coord(node))[axis]
                for idx, (lo, hi) in enumerate(plan.ranges):
                    if lo <= v < hi:
                        expected[idx].append(node)
            assert [list(b) for b in plan.nodes] == expected
            for idx, bucket in enumerate(plan.nodes):
                for node in bucket:
                    assert plan.owner_of(topo, node) == idx

    @pytest.mark.parametrize("bad", [-1, 8, 100])
    def test_out_of_range_ids_raise(self, bad):
        topo = Torus3D((2, 2, 2), wrap=(True, False, True))
        plan = partition_nodes(topo, 2)
        for call in (
            lambda: topo.distance(bad, 0),
            lambda: topo.distance(0, bad),
            lambda: topo.neighbors(bad),
            lambda: topo.axis_coord(bad, 0),
            lambda: plan.owner_of(topo, bad),
        ):
            with pytest.raises(ValueError, match="out of range"):
                call()
