"""Evaluation machinery: volume accounting, correlation study, sweep tables."""

from .correlation import (
    CorrelationStudy,
    MappingSample,
    collect_samples,
    correlation_study,
)
from .sweeps import (
    MAPPING_METHODS,
    METHOD_LABELS,
    best_volume_by_method,
    format_sweep_table,
)
from .volume import mapping_area, occupied_bounding_box

__all__ = [
    "CorrelationStudy",
    "MappingSample",
    "collect_samples",
    "correlation_study",
    "MAPPING_METHODS",
    "METHOD_LABELS",
    "best_volume_by_method",
    "format_sweep_table",
    "mapping_area",
    "occupied_bounding_box",
]
