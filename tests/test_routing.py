"""Unit tests for the mesh, braid paths and router (repro.routing)."""

import pytest

from repro.routing import (
    BraidPath,
    BraidRouter,
    Mesh,
    bfs_detour,
    is_channel_cell,
    lattice_to_tile,
    rectilinear_candidates,
    tile_to_lattice,
)


def make_mesh(positions, width=6, height=6):
    return Mesh.from_placement(positions, width=width, height=height)


class TestLatticeCoordinates:
    def test_tile_to_lattice_roundtrip(self):
        for cell in [(0, 0), (2, 3), (5, 1)]:
            assert lattice_to_tile(tile_to_lattice(cell)) == cell

    def test_tile_cells_are_odd(self):
        row, col = tile_to_lattice((3, 4))
        assert row % 2 == 1 and col % 2 == 1

    def test_channel_cell_classification(self):
        assert is_channel_cell((0, 5))
        assert is_channel_cell((4, 2))
        assert not is_channel_cell((1, 1))

    def test_lattice_to_tile_rejects_channels(self):
        with pytest.raises(ValueError):
            lattice_to_tile((0, 1))


class TestMesh:
    def test_dimensions(self):
        mesh = make_mesh({0: (0, 0)}, width=4, height=3)
        assert mesh.lattice_width == 9
        assert mesh.lattice_height == 7
        assert mesh.area_tiles == 12

    def test_qubit_cells(self):
        mesh = make_mesh({7: (2, 3)})
        assert mesh.qubit_cell(7) == (5, 7)

    def test_out_of_bounds_placement_rejected(self):
        with pytest.raises(ValueError):
            make_mesh({0: (7, 0)}, width=4, height=4)

    def test_neighbors_clipped_at_borders(self):
        mesh = make_mesh({0: (0, 0)}, width=2, height=2)
        assert len(mesh.neighbors((0, 0))) == 2
        assert len(mesh.neighbors((2, 2))) == 4

    def test_channel_utilisation(self):
        mesh = make_mesh({0: (0, 0), 1: (1, 1)}, width=2, height=2)
        assert mesh.channel_utilisation([]) == 0.0
        assert mesh.channel_utilisation([(0, 0), (0, 1)]) > 0.0


class TestBraidPath:
    def test_conflict_detection(self):
        first = BraidPath.from_cells([(0, 0), (0, 1)], endpoints=[(0, 0)])
        second = BraidPath.from_cells([(0, 1), (0, 2)], endpoints=[(0, 2)])
        third = BraidPath.from_cells([(5, 5)], endpoints=[(5, 5)])
        assert first.conflicts_with(second)
        assert not first.conflicts_with(third)

    def test_conflicts_with_cells(self):
        braid = BraidPath.from_cells([(1, 1), (1, 2)], endpoints=[(1, 1)])
        assert braid.conflicts_with_cells(frozenset({(1, 2)}))
        assert not braid.conflicts_with_cells(frozenset({(9, 9)}))

    def test_union_merges_footprints(self):
        first = BraidPath.from_cells([(0, 0)], endpoints=[(0, 0)])
        second = BraidPath.from_cells([(2, 2)], endpoints=[(2, 2)], hop=(1, 1))
        union = first.union(second)
        assert union.cells == frozenset({(0, 0), (2, 2)})
        assert union.hop == (1, 1)

    def test_length(self):
        braid = BraidPath.from_cells([(0, 0), (0, 1), (0, 2)], endpoints=[(0, 0)])
        assert braid.length == 3


class TestRectilinearCandidates:
    def test_candidates_connect_endpoints(self):
        mesh = make_mesh({0: (0, 0), 1: (3, 4)})
        source, target = mesh.qubit_cell(0), mesh.qubit_cell(1)
        for path in rectilinear_candidates(mesh, source, target):
            assert path[0] == source
            assert path[-1] == target
            for a, b in zip(path, path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_candidates_avoid_other_tiles(self):
        # A qubit sits directly between source and target; candidate paths
        # must not pass through its tile cell.
        mesh = make_mesh({0: (2, 0), 1: (2, 2), 2: (2, 4)})
        blocker = mesh.qubit_cell(1)
        for path in rectilinear_candidates(
            mesh, mesh.qubit_cell(0), mesh.qubit_cell(2)
        ):
            assert blocker not in path

    def test_candidates_stay_in_bounds(self):
        mesh = make_mesh({0: (0, 0), 1: (5, 5)})
        for path in rectilinear_candidates(
            mesh, mesh.qubit_cell(0), mesh.qubit_cell(1)
        ):
            for cell in path:
                assert mesh.in_bounds(cell)

    def test_adjacent_qubits(self):
        mesh = make_mesh({0: (1, 1), 1: (1, 2)})
        candidates = rectilinear_candidates(
            mesh, mesh.qubit_cell(0), mesh.qubit_cell(1)
        )
        assert candidates


class TestRouter:
    def test_route_pair_unblocked(self):
        mesh = make_mesh({0: (0, 0), 1: (4, 4)})
        router = BraidRouter(mesh)
        path = router.route_pair(0, 1, frozenset())
        assert path is not None
        assert mesh.qubit_cell(0) in path.cells
        assert mesh.qubit_cell(1) in path.cells

    def test_route_pair_blocked_returns_none(self):
        mesh = make_mesh({0: (2, 0), 1: (2, 5)}, width=6, height=6)
        router = BraidRouter(mesh, max_candidates=2)
        direct = router.route_pair(0, 1, frozenset())
        # Lock everything the direct candidates would use.
        blocked = router.route_pair(
            0, 1, frozenset(direct.cells - set(direct.endpoints))
        )
        assert blocked is None

    def test_detour_router_finds_alternative(self):
        mesh = make_mesh({0: (2, 0), 1: (2, 5)}, width=6, height=6)
        strict = BraidRouter(mesh, allow_detour=False, max_candidates=1)
        loose = BraidRouter(mesh, allow_detour=True, detour_slack=4.0, max_candidates=1)
        direct = strict.route_pair(0, 1, frozenset())
        locked = frozenset(direct.cells - set(direct.endpoints))
        assert strict.route_pair(0, 1, locked) is None
        assert loose.route_pair(0, 1, locked) is not None

    def test_route_with_hop_passes_through_hop(self):
        mesh = make_mesh({0: (0, 0), 1: (5, 5)})
        router = BraidRouter(mesh)
        path = router.route_pair(0, 1, frozenset(), hop=tile_to_lattice((2, 0)))
        assert path is not None
        assert tile_to_lattice((2, 0)) in path.cells

    def test_route_star_covers_all_targets(self):
        mesh = make_mesh({0: (2, 2), 1: (0, 0), 2: (0, 4), 3: (4, 4)})
        router = BraidRouter(mesh)
        star = router.route_star(0, [1, 2, 3], frozenset())
        assert star is not None
        for qubit in (0, 1, 2, 3):
            assert mesh.qubit_cell(qubit) in star.cells

    def test_route_star_blocked(self):
        mesh = make_mesh({0: (2, 2), 1: (2, 5)}, width=6, height=6)
        router = BraidRouter(mesh, max_candidates=1)
        direct = router.route_pair(0, 1, frozenset())
        locked = frozenset(direct.cells - set(direct.endpoints))
        assert router.route_star(0, [1], locked) is None

    def test_unconstrained_pair_deterministic(self):
        mesh = make_mesh({0: (0, 0), 1: (3, 3)})
        router = BraidRouter(mesh)
        assert (
            router.unconstrained_pair(0, 1).cells
            == router.unconstrained_pair(0, 1).cells
        )


class TestBfsDetour:
    def test_detour_avoids_blocked_cells(self):
        mesh = make_mesh({0: (0, 0), 1: (0, 4)}, width=6, height=2)
        source, target = mesh.qubit_cell(0), mesh.qubit_cell(1)
        blocked = frozenset({(1, 4)})
        path = bfs_detour(mesh, source, target, blocked)
        assert path is not None
        assert not (set(path) & blocked)

    def test_detour_respects_max_length(self):
        mesh = make_mesh({0: (0, 0), 1: (0, 4)}, width=6, height=2)
        source, target = mesh.qubit_cell(0), mesh.qubit_cell(1)
        assert bfs_detour(mesh, source, target, frozenset(), max_length=3) is None

    def test_detour_unreachable_returns_none(self):
        mesh = make_mesh({0: (0, 0), 1: (0, 2)}, width=3, height=1)
        source, target = mesh.qubit_cell(0), mesh.qubit_cell(1)
        # Wall of blocked cells across the full lattice column between them.
        blocked = frozenset({(row, 2) for row in range(mesh.lattice_height)} |
                            {(row, 3) for row in range(mesh.lattice_height)})
        assert bfs_detour(mesh, source, target, blocked) is None


class TestCellEncoding:
    """The stable cell <-> flat-int encoding behind the watch cells."""

    def test_index_roundtrip(self):
        mesh = make_mesh({0: (0, 0)}, width=4, height=3)
        for row in range(mesh.lattice_height):
            for col in range(mesh.lattice_width):
                index = mesh.cell_index((row, col))
                assert 0 <= index < mesh.num_lattice_cells
                assert mesh.index_cell(index) == (row, col)

    def test_disjointness_matches_set_semantics(self):
        mesh = make_mesh({0: (0, 0)}, width=4, height=3)
        first = {(0, 0), (0, 1), (1, 1)}
        second = {(1, 1), (2, 2)}
        third = {(5, 5)}

        def indices(cells):
            return {mesh.cell_index(cell) for cell in cells}

        assert indices(first) & indices(second)
        assert not indices(first) & indices(third)
