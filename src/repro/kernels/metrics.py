"""Loader and ctypes façade for the compiled mapping-metrics kernel.

The C source (``metrics_kernel.c`` beside this module) implements the
hot path of :class:`repro.graphs.metrics.MappingCostTracker`: crossing
and orientation tests against a dense bucket grid that holds each
segment in the cells its row-band walk touches, tree-folded
midpoint-distance rows for the spacing metric, and the commit-time
maintenance of the per-edge row-sum cache.  It is built through the
shared :class:`repro.kernels.runtime.KernelLoader` with
``-ffp-contract=off`` (no FMA contraction — the compiled engine must be
bit-identical to the scalar engine) and ``-fno-math-errno``
(lets the compiler inline ``sqrt`` without an errno branch; results are
still IEEE correctly rounded).

The façade exposes the raw ``ctypes`` entry points; the tracker passes
cached ``ndarray.ctypes.data`` addresses.  ``mc_sweep`` runs a whole
force-directed annealing sweep per call: the proposal order (a C replica
of CPython's ``random.shuffle``), the force pass and the grid steps
(``mc_forces``, the numpy ``_ForceField.forces`` and ``_step_toward`` in
numpy's float order), then per proposal the target, occupant swap,
evaluate, Boltzmann test and commit, drawing from a C replica of
CPython's MT19937 ``random.random()`` and calling libm ``exp`` like
``math.exp`` does.  Cells, occupancy and the generator state stay in the
caller's buffers between sweeps, so a refinement hands its state across
once and takes it back only when Python needs it.  A proposal counts its
new crossings only until the partial count settles the Boltzmann test
(``SP_SETTLED`` counts the proposals rejected that way), and computes its
midpoint distance rows only when a bound on its spacing term cannot
settle it (``SP_EXACT`` counts those that do).  ``mc_forces``,
``mc_random`` and ``mc_shuffle`` are exported on their own for the
parity tests.  ``mc_hop_sweep`` runs one sweep of the permutation-hop
annealer of :mod:`repro.mapping.stitching` on the same crossing
predicates: the caller pre-draws the visit order and one random cell per
visit with CPython's own generator, and the kernel scores every
candidate hop as an exact integer.  ``mc_bisect`` runs the GP mapper's
whole multilevel bisection (:class:`repro.graphs.partition.Bisector`) on
a CSR graph or a subgraph it induces: heavy-edge matching, contraction,
the initial cut and the refinement of every level, seeding each level's
generator like ``random.Random(seed)`` (``mc_seed``, exported on its own
for the parity test).
"""

from __future__ import annotations

import ctypes
import os
from typing import Optional

from .runtime import KernelLoader

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "metrics_kernel.c")

#: Compile flags required for bitwise parity with the Python engines (see
#: module docstring); folded into the cache digest by the loader.
BASE_CFLAGS = ("-ffp-contract=off", "-fno-math-errno")

#: Slots of ``mc_sweep``'s int64 and double in/out parameter arrays (the
#: ``SP_*`` / ``DP_*`` enums of the C source).
(
    SP_START,
    SP_COUNT,
    SP_HEIGHT,
    SP_WIDTH,
    SP_MT_INDEX,
    SP_PROPOSED,
    SP_ACCEPTED,
    SP_IMPROVING,
    SP_CROSSINGS,
    SP_EXACT,
    SP_SETTLED,
    SP_SLOTS,
) = range(12)
(
    DP_CROSSING_W,
    DP_TEMPERATURE,
    DP_TOTAL_LENGTH,
    DP_SPACING_SUM,
    DP_COST,
    DP_SLOTS,
) = range(6)

#: Slots of the force pass's int64 and double settings arrays, the bits
#: of ``FP_USE`` and the status ``mc_forces``/``mc_sweep`` return for a
#: NaN force (the ``FP_*`` / ``FW_*`` / ``FORCE_*`` enums of the C source).
FP_NODES, FP_EDGES, FP_USE, FP_RADIUS, FP_MAX_STEP, FP_SLOTS = range(6)
FW_ATTRACTION, FW_REPULSION, FW_DIPOLE, FW_SLOTS = range(4)
FORCE_ATTRACTION, FORCE_REPULSION, FORCE_DIPOLE = 1, 2, 4
STATUS_NAN_FORCE = 2

#: Slots of ``mc_bisect``'s int64 parameter array (the ``BP_*`` enum of
#: the C source).
(
    BP_COUNT,
    BP_INDUCED,
    BP_TARGET,
    BP_THRESHOLD,
    BP_COMPENSATED,
    BP_NEGATIVE,
    BP_SEED_WORDS,
    BP_SLOTS,
) = range(8)

_i64 = ctypes.c_int64
_dbl = ctypes.c_double
_ptr = ctypes.c_void_p


class MetricsKernel:
    """ctypes façade over the compiled library.

    Every method takes raw buffer addresses (``ndarray.ctypes.data``
    integers); the owning tracker caches them once per build.
    """

    def __init__(self, lib: ctypes.CDLL, path: str) -> None:
        self.path = path
        self.grid_build = lib.mc_grid_build
        self.grid_build.restype = _i64
        self.grid_build.argtypes = [_ptr, _ptr, _dbl, _ptr, _ptr]
        self.spacing_init = lib.mc_spacing_init
        self.spacing_init.restype = _dbl
        self.spacing_init.argtypes = [_ptr] * 4
        self.count_crossings = lib.mc_count_crossings
        self.count_crossings.restype = _i64
        self.count_crossings.argtypes = [_ptr, _ptr, _dbl] + [_ptr] * 7
        self.eval = lib.mc_eval
        self.eval.restype = None
        self.eval.argtypes = [_ptr, _dbl, _i64] + [_ptr] * 16
        self.commit = lib.mc_commit
        self.commit.restype = _i64
        self.commit.argtypes = [_ptr, _dbl, _i64] + [_ptr] * 15
        self.sweep = lib.mc_sweep
        self.sweep.restype = _i64
        self.sweep.argtypes = [_ptr, _dbl] + [_ptr] * 36
        self.forces = lib.mc_forces
        self.forces.restype = _i64
        self.forces.argtypes = [_ptr] * 8 + [_i64] + [_ptr] * 4
        self.random = lib.mc_random
        self.random.restype = None
        self.random.argtypes = [_ptr, _ptr, _i64, _ptr]
        self.shuffle = lib.mc_shuffle
        self.shuffle.restype = None
        self.shuffle.argtypes = [_ptr, _ptr, _i64, _ptr]
        self.hop_sweep = lib.mc_hop_sweep
        self.hop_sweep.restype = None
        self.hop_sweep.argtypes = [_i64] * 3 + [_ptr] * 6
        self.seed = lib.mc_seed
        self.seed.restype = None
        self.seed.argtypes = [_ptr, _i64, _ptr, _ptr]
        self.bisect = lib.mc_bisect
        self.bisect.restype = _i64
        self.bisect.argtypes = [_ptr] * 11


_LOADER = KernelLoader(
    _SOURCE, stem="metrics", facade=MetricsKernel, base_cflags=BASE_CFLAGS
)


def load() -> Optional[MetricsKernel]:
    """The loaded kernel, compiling on first call; None when unavailable."""
    return _LOADER.load()


def available() -> bool:
    """Whether the compiled fast path can run in this environment."""
    return _LOADER.available()


def reset() -> None:
    """Forget the cached load attempt (tests toggle REPRO_NO_KERNEL)."""
    _LOADER.reset()
