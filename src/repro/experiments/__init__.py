"""One module per reproduced paper artifact (figures and tables).

Every experiment module exposes a ``run(...)`` function returning a
structured result object (with ``to_dict()``/``from_dict`` JSON
round-tripping) and a ``format_result(result)`` helper producing a printable
table.  Experiments are registered declaratively with
:func:`repro.api.register_experiment`, which also drives the auto-generated
command-line options; look them up with :func:`repro.api.get_experiment`
and run them with :func:`repro.api.run_experiment`.
"""

from . import (
    fig6_correlation,
    fig7_scaling,
    fig9_permutation,
    fig9_reuse,
    fig10_resources,
    table1_volumes,
)

__all__ = [
    "fig6_correlation",
    "fig7_scaling",
    "fig9_permutation",
    "fig9_reuse",
    "fig10_resources",
    "table1_volumes",
]
