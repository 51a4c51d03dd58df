"""Runtime-compiled C kernel of the batched simulator.

:mod:`repro.routing.batchsim` runs every batchable sweep point through
this kernel: ``build_plans`` writes the compact candidate table (one
fixed-width int32 row per route candidate) and ``simulate_point`` runs one
point's event loop over it.  The compile/cache/load machinery —
host-compiler discovery, source-hash + ``REPRO_KERNEL_CFLAGS`` cache
digest, on-disk ``.so`` cache, the ``REPRO_NO_KERNEL`` opt-out — lives in
the shared :class:`repro.kernels.runtime.KernelLoader`; this module keeps
the batchsim-specific ctypes facade and the public API
(:func:`load` / :func:`available` / :func:`reset`).
"""
from __future__ import annotations

import ctypes
import os
from typing import Optional

from ..kernels.runtime import KernelLoader

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "batchsim_kernel.c")

#: int32 fields per candidate row (the ``F_*`` enum in batchsim_kernel.c):
#: source row/col, target row/col, horizontal run row/first/last column,
#: vertical run column/first/last row, cell count.
CAND_FIELDS = 11

#: Candidate rows reserved per endpoint pair (``MAX_CANDIDATES``).
MAX_CANDIDATES = 8

#: Number of int64 counter slots written by ``simulate_point`` (must match
#: the ``C_*`` enum in batchsim_kernel.c).
COUNTER_SLOTS = 9

#: ``simulate_point`` return codes.
OK = 0
MAX_CYCLES_EXCEEDED = 1
DEADLOCK = 2


class Kernel:
    """ctypes façade over the compiled library."""

    def __init__(self, lib: ctypes.CDLL, path: str) -> None:
        self.path = path
        self._build = lib.build_plans
        self._build.restype = None
        self._build.argtypes = (
            [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2
        )
        self._simulate = lib.simulate_point
        self._simulate.restype = ctypes.c_int64
        self._simulate.argtypes = (
            [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
            + [ctypes.c_void_p] * 6
            + [ctypes.c_int64] * 3
            + [ctypes.c_void_p] * 4
        )

    def build_plans(self, pairs, m, max_row, max_col, rows_out, kept_out) -> None:
        """Candidate rows of ``m`` endpoint pairs (``pairs`` is (m, 4))."""
        self._build(
            pairs.ctypes.data, m, max_row, max_col,
            rows_out.ctypes.data, kept_out.ctypes.data,
        )

    def simulate_point(self, n, kind, dur, block, count, max_legs,
                       star_start, star_count,
                       succ_flat, succ_off, pred_count, table,
                       height, width, max_cycles,
                       gate_start, gate_end, ready_time, counters) -> int:
        return self._simulate(
            n, kind.ctypes.data, dur.ctypes.data,
            block.ctypes.data, count.ctypes.data, max_legs,
            star_start.ctypes.data, star_count.ctypes.data,
            succ_flat.ctypes.data, succ_off.ctypes.data,
            pred_count.ctypes.data, table.ctypes.data,
            height, width, max_cycles,
            gate_start.ctypes.data, gate_end.ctypes.data,
            ready_time.ctypes.data, counters.ctypes.data,
        )


_LOADER = KernelLoader(_SOURCE, stem="batchsim", facade=Kernel)


def load() -> Optional[Kernel]:
    """The loaded kernel, compiling on first call; None when unavailable."""
    return _LOADER.load()


def available() -> bool:
    """Whether the compiled fast path can run in this environment."""
    return _LOADER.available()


def reset() -> None:
    """Forget the cached load attempt (tests toggle REPRO_NO_KERNEL)."""
    _LOADER.reset()
