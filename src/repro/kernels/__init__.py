"""Shared runtime for the optional, runtime-compiled C kernels.

Two hot paths ship an optional C fast engine: the batched braid-route
simulator (:mod:`repro.routing.kernel`, ``batchsim_kernel.c``) and the
mapping kernel (:mod:`repro.kernels.metrics`, ``metrics_kernel.c``): the
incremental mapping-cost tracker, the force-directed and permutation-hop
annealing sweeps and the GP mapper's multilevel bisection.  Both share
the loader in
:mod:`repro.kernels.runtime`: host-compiler discovery, a cache digest
over the kernel source plus ``REPRO_KERNEL_CFLAGS``, an on-disk ``.so``
cache, and the ``REPRO_NO_KERNEL`` opt-out.  Keeping the machinery in
one place means every kernel degrades gracefully the same way (no
compiler, unwritable cache, failed compile -> pure-Python engines) and
CI can sanitize all kernels with a single set of environment knobs.
"""

from .runtime import KernelLoader, compiler_path, extra_cflags

__all__ = ["KernelLoader", "compiler_path", "extra_cflags"]
