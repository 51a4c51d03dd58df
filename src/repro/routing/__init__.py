"""Surface-code braid routing substrate and cycle-accurate simulator.

This package is the evaluation substrate of the paper (Section VIII-A).  It
models the 2-D surface-code architecture of Fig. 1 and executes gate-level
schedules on it:

* :class:`Mesh` — the doubled channel lattice derived from a qubit
  placement: tiles at odd/odd lattice cells, routing channels everywhere a
  coordinate is even;
* :class:`BraidPath` — the spatial footprint of one braided operation (a
  set of lattice cells); two braids conflict exactly when their footprints
  intersect;
* :class:`BraidRouter` — turns qubit pairs (or single-control multi-target
  stars) into concrete braid paths avoiding the currently locked cells,
  with the paper's **stall** baseline or the ablation's **detour** policy
  (see the router docstring for the semantics of each);
* :func:`simulate` — the event-driven, cycle-accurate simulator: gates
  issue in program order as dependencies retire, braids lock their cells
  for the gate duration, blocked braids stall until a completion frees
  cells.  It runs a point in a runtime-compiled C kernel, which parks
  stalled braids on the cells that blocked them (wakeup on release), and
  on :func:`simulate_reference` — the set-based retry-every-event oracle
  the kernel matches byte for byte — where the kernel cannot plan the
  point or does not load;
* :func:`simulate_batch` — the batched core: groups same-circuit sweep
  points, shares their circuit preparation and route-candidate table
  across the kernel runs, byte-identical to :func:`simulate` at any batch
  size and mesh size;
* :class:`SimulationCache` / :func:`simulation_cache_key` — memoization of
  deterministic simulation results keyed by (circuit fingerprint,
  placement, simulator config), used by the evaluation pipeline so repeated
  sweep points never re-simulate.
"""

from .batchsim import kernel_available, simulate_batch
from .braid import BraidPath
from .mesh import (
    Cell,
    LatticeCell,
    Mesh,
    is_channel_cell,
    lattice_to_tile,
    tile_to_lattice,
)
from .router import BraidRouter, bfs_detour, rectilinear_candidates
from .simulator import (
    RoutingDeadlockError,
    SimulationCache,
    SimulationResult,
    SimulatorConfig,
    circuit_fingerprint,
    simulate,
    simulate_latency,
    simulate_reference,
    simulation_cache_key,
)

__all__ = [
    "BraidPath",
    "Cell",
    "LatticeCell",
    "Mesh",
    "is_channel_cell",
    "lattice_to_tile",
    "tile_to_lattice",
    "BraidRouter",
    "bfs_detour",
    "rectilinear_candidates",
    "RoutingDeadlockError",
    "SimulationCache",
    "SimulationResult",
    "SimulatorConfig",
    "circuit_fingerprint",
    "kernel_available",
    "simulate",
    "simulate_batch",
    "simulate_latency",
    "simulate_reference",
    "simulation_cache_key",
]
