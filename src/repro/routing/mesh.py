"""The 2-D surface-code mesh and its routing channel lattice.

Fig. 1 of the paper shows the architecture model: logical qubits are tiles of
roughly ``d x d`` physical qubits arranged on a 2-D grid, and two-qubit
interactions are *braids* — pathways through the space between and around
tiles.  Braids may take any route and extend to arbitrary length in a single
step, but two braids may not cross (occupy the same space at the same time).

To represent the space between tiles we use a *doubled channel lattice*: the
tile at grid position ``(r, c)`` sits at lattice cell ``(2r + 1, 2c + 1)``,
and every cell with at least one even coordinate is routing channel.  A braid
is a set of lattice cells connecting two (or more) tile cells through the
channel network; two braids conflict exactly when their cell sets intersect.

The mesh also defines a stable **flat integer encoding** of lattice cells:
cell ``(r, c)`` maps to index ``r * lattice_width + c`` (row-major), the
cell numbering of the reference simulator's watch cells.  The encoding
depends only on the mesh dimensions, never on placements or traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

Cell = Tuple[int, int]
LatticeCell = Tuple[int, int]


def tile_to_lattice(cell: Cell) -> LatticeCell:
    """Lattice coordinates of a tile cell ``(row, col)``."""
    row, col = cell
    return (2 * row + 1, 2 * col + 1)


def lattice_to_tile(cell: LatticeCell) -> Cell:
    """Tile coordinates of a lattice cell that hosts a tile (odd, odd)."""
    row, col = cell
    if row % 2 == 0 or col % 2 == 0:
        raise ValueError(f"lattice cell {cell} is a channel, not a tile")
    return ((row - 1) // 2, (col - 1) // 2)


def is_channel_cell(cell: LatticeCell) -> bool:
    """Whether a lattice cell belongs to the routing channel network."""
    row, col = cell
    return row % 2 == 0 or col % 2 == 0


@dataclass
class Mesh:
    """The routing substrate derived from a qubit placement.

    Attributes
    ----------
    tile_width, tile_height:
        Grid dimensions in logical-qubit tiles.
    qubit_cells:
        Lattice cell of every placed qubit.
    """

    tile_width: int
    tile_height: int
    qubit_cells: Dict[int, LatticeCell]

    @classmethod
    def from_placement(
        cls, positions: Mapping[int, Cell], width: int, height: int
    ) -> "Mesh":
        """Build a mesh from a placement's positions and grid dimensions."""
        qubit_cells = {
            qubit: tile_to_lattice(cell) for qubit, cell in positions.items()
        }
        for qubit, cell in positions.items():
            row, col = cell
            if not (0 <= row < height and 0 <= col < width):
                raise ValueError(
                    f"qubit {qubit} at tile {cell} is outside the {height}x{width} grid"
                )
        return cls(tile_width=width, tile_height=height, qubit_cells=qubit_cells)

    @property
    def lattice_height(self) -> int:
        """Number of lattice rows (2 * tile rows + 1)."""
        return 2 * self.tile_height + 1

    @property
    def lattice_width(self) -> int:
        """Number of lattice columns (2 * tile columns + 1)."""
        return 2 * self.tile_width + 1

    @property
    def area_tiles(self) -> int:
        """Mesh area in logical-qubit tiles."""
        return self.tile_width * self.tile_height

    def in_bounds(self, cell: LatticeCell) -> bool:
        """Whether a lattice cell lies inside the mesh."""
        row, col = cell
        return 0 <= row < self.lattice_height and 0 <= col < self.lattice_width

    def qubit_cell(self, qubit: int) -> LatticeCell:
        """Lattice cell of a placed qubit (KeyError if unplaced)."""
        return self.qubit_cells[qubit]

    @property
    def num_lattice_cells(self) -> int:
        """Total lattice cell count."""
        return self.lattice_height * self.lattice_width

    def cell_index(self, cell: LatticeCell) -> int:
        """Flat row-major index of a lattice cell."""
        row, col = cell
        return row * self.lattice_width + col

    def index_cell(self, index: int) -> LatticeCell:
        """Inverse of :meth:`cell_index`."""
        return divmod(index, self.lattice_width)

    def neighbors(self, cell: LatticeCell) -> List[LatticeCell]:
        """4-neighbourhood of a lattice cell, clipped to the mesh bounds."""
        row, col = cell
        candidates = [
            (row - 1, col),
            (row + 1, col),
            (row, col - 1),
            (row, col + 1),
        ]
        return [c for c in candidates if self.in_bounds(c)]

    def occupied_tile_cells(self) -> frozenset:
        """Lattice cells occupied by placed qubits."""
        return frozenset(self.qubit_cells.values())

    def channel_utilisation(
        self, locked_cells: Iterable[LatticeCell]
    ) -> float:
        """Fraction of channel cells currently locked by braids.

        Used for congestion reporting; returns 0.0 for an empty mesh.
        """
        total_channels = self.lattice_height * self.lattice_width - len(
            self.qubit_cells
        )
        if total_channels <= 0:
            return 0.0
        locked_channels = sum(1 for cell in locked_cells if is_channel_cell(cell))
        return locked_channels / total_channels
