#!/usr/bin/env python
"""Plan the resources of a magic-state factory for a target application.

The paper's motivation (Section II-D/II-E) is that practical quantum
algorithms need on the order of 10^12 T gates, each consuming one distilled
magic state.  This example uses the analytic error model and the resource
accounting of the library to answer the planning questions a fault-tolerant
architect would ask:

* how many distillation levels are needed to reach the target fidelity,
* what code distance each round requires (balanced investment),
* how many physical qubits the factory occupies,
* what throughput (states per unit volume) the mapped factory achieves.

Run with::

    python examples/factory_resource_planning.py
"""

from repro.api import EvaluationRequest, Pipeline
from repro.distillation import (
    ErrorBudget,
    FactorySpec,
    factory_resources,
    required_levels,
)


def main() -> None:
    budget = ErrorBudget(
        physical_error=1e-3,
        injection_error=5e-3,
        target_error=1e-5,
    )
    k = 4
    levels = required_levels(k, budget.injection_error, budget.target_error)
    print("Error budget")
    print(f"  physical error rate : {budget.physical_error:.1e}")
    print(f"  injected state error: {budget.injection_error:.1e}")
    print(f"  target output error : {budget.target_error:.1e}")
    print(f"  -> {levels} Bravyi-Haah levels needed with k={k}")
    print()

    spec = FactorySpec(k=k, levels=levels)
    resources = factory_resources(spec, budget)
    print(f"Factory structure (capacity {spec.capacity} states per batch)")
    for round_resources in resources.rounds:
        print(
            f"  round {round_resources.round_index}: "
            f"{round_resources.modules:3d} modules, "
            f"{round_resources.logical_qubits:5d} logical qubits, "
            f"d={round_resources.code_distance:2d}, "
            f"{round_resources.physical_qubits:7d} physical qubits, "
            f"output error {round_resources.output_error:.2e}"
        )
    print(f"  peak physical footprint: {resources.max_physical_qubits} qubits")
    print()

    if levels == 2:
        print("Mapping the factory with hierarchical stitching...")
        evaluation = Pipeline().evaluate(
            EvaluationRequest("hierarchical_stitching", spec.capacity, levels=2)
        )
        print(
            f"  latency {evaluation.latency} cycles, area {evaluation.area} tiles, "
            f"volume {evaluation.volume} qubit-cycles"
        )
        throughput = spec.capacity / evaluation.volume
        print(f"  throughput: {throughput:.2e} magic states per qubit-cycle")
        t_gates_needed = 1e12
        print(
            f"  a 10^12 T-gate application therefore needs about "
            f"{t_gates_needed / spec.capacity:.2e} factory batches"
        )


if __name__ == "__main__":
    main()
