"""repro — reproduction of "Magic-State Functional Units" (MICRO 2018).

A toolchain for building, scheduling, mapping and simulating multi-level
Bravyi-Haah magic-state distillation factories on surface-code architectures,
reproducing the optimisation techniques and evaluation of Ding et al.,
"Magic-State Functional Units: Mapping and Scheduling Multi-Level Distillation
Circuits for Fault-Tolerant Quantum Architectures", MICRO 2018.

The public API is organised around three pluggable abstractions in
:mod:`repro.api`:

* **Mappers** — named qubit-mapping procedures in a registry.  The five
  procedures of the paper (``random``, ``linear``, ``force_directed``,
  ``graph_partition``, ``hierarchical_stitching``) are pre-registered;
  third-party procedures join them with
  :func:`repro.api.register_mapper` and immediately work in every sweep,
  figure and CLI run.
* **The pipeline** — :class:`repro.api.Pipeline` evaluates an
  :class:`repro.api.EvaluationRequest` end to end
  (build -> map -> simulate), caching built factory circuits so a sweep
  over many mappers constructs each ``(capacity, levels, reuse)``
  configuration exactly once.  Results are
  :class:`repro.api.FactoryEvaluation` dataclasses with
  ``to_dict``/``from_dict`` JSON round-tripping.
* **Experiments** — the paper's figures and tables register declaratively
  via :func:`repro.api.register_experiment` with typed parameter specs;
  the ``repro-msfu`` command line generates its options from those specs
  and emits machine-readable output with ``--json``.
* **Sweep execution** — :class:`repro.api.SweepPlan` expands a parameter
  grid into independent requests and :class:`repro.api.SweepExecutor`
  schedules them serially or across worker processes with deterministic,
  byte-identical results; simulations are memoized
  (:class:`repro.routing.SimulationCache`) so repeated sweep points never
  re-simulate, and ``repro-msfu bench`` records the performance trajectory
  as ``BENCH_*.json``.

A custom mapper end to end::

    from repro.api import Mapper, Pipeline, EvaluationRequest, register_mapper
    from repro.mapping import random_circuit_placement

    @register_mapper
    class JitterMapper(Mapper):
        name = "jitter"

        def place(self, factory, *, seed=0, context=None):
            return random_circuit_placement(factory.circuit, seed=seed + 1)

    point = Pipeline().evaluate(EvaluationRequest(method="jitter", capacity=4))
    print(point.to_dict())

The underlying layers remain importable directly:
:mod:`repro.distillation` (factory construction and error model),
:mod:`repro.circuits` / :mod:`repro.scheduling` (circuits, DAGs, bounds),
:mod:`repro.graphs` (interaction graphs and mapping metrics),
:mod:`repro.mapping` (the mapping algorithms themselves),
:mod:`repro.routing` (the cycle-accurate braid simulator), and
:mod:`repro.experiments` (one module per paper artifact).
"""

from . import (
    analysis,
    api,
    circuits,
    distillation,
    graphs,
    mapping,
    routing,
    scheduling,
)

__version__ = "1.20.0"

__all__ = [
    "analysis",
    "api",
    "circuits",
    "distillation",
    "graphs",
    "mapping",
    "routing",
    "scheduling",
    "__version__",
]
