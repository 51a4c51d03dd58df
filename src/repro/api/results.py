"""Structured evaluation results with JSON round-tripping.

Every result object in the public API implements ``to_dict()`` (returning
JSON-safe primitives only: dicts with string keys, lists, numbers, strings,
booleans, ``None``) and a ``from_dict`` classmethod inverting it.  The
helpers here keep those implementations small:

* :func:`encode_value` — recursive dataclass/enum/tuple/dict encoder;
* :func:`int_keyed` / :func:`str_keyed` — JSON forces string keys, these
  convert capacity-keyed tables back and forth;
* :func:`filter_fields` — drop derived/extra keys before ``cls(**data)`` so
  ``to_dict`` outputs may carry convenience fields without breaking the
  inverse direction;
* :func:`to_json` / :func:`from_json` — thin :mod:`json` wrappers.

:class:`FactoryEvaluation` — the per-configuration data point produced by
the evaluation pipeline — is defined here.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Type, TypeVar

R = TypeVar("R")


# ----------------------------------------------------------------------
# Generic encoding helpers
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-safe primitives.

    Dataclasses become dicts, enums their ``value``, tuples lists, and
    mapping keys are stringified (JSON object keys must be strings).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if hasattr(value, "to_dict"):
            return value.to_dict()
        return {
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(key): encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    return value


def int_keyed(mapping: Mapping[Any, R]) -> Dict[int, R]:
    """Convert string (JSON) keys back to the integer keys used internally."""
    return {int(key): value for key, value in mapping.items()}


def str_keyed(mapping: Mapping[Any, R]) -> Dict[str, R]:
    """Stringify mapping keys (the encoding inverse of :func:`int_keyed`)."""
    return {str(key): value for key, value in mapping.items()}


def filter_fields(cls: type, data: Mapping[str, Any]) -> Dict[str, Any]:
    """Keep only the keys of ``data`` that are init fields of dataclass ``cls``.

    Lets ``to_dict`` outputs include derived conveniences (e.g. a volume
    ratio) without breaking ``from_dict(cls, to_dict(obj))`` round trips.
    """
    names = {f.name for f in dataclasses.fields(cls) if f.init}
    return {key: value for key, value in data.items() if key in names}


def to_json(result: Any, *, indent: int = 2) -> str:
    """Serialize a result object (anything with ``to_dict``) to JSON text."""
    payload = result.to_dict() if hasattr(result, "to_dict") else encode_value(result)
    return json.dumps(payload, indent=indent)


def from_json(cls: Type[R], text: str) -> R:
    """Parse JSON text produced by :func:`to_json` back into ``cls``."""
    return cls.from_dict(json.loads(text))  # type: ignore[attr-defined]


# ----------------------------------------------------------------------
# The pipeline's per-configuration data point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FactoryEvaluation:
    """One (method, capacity, levels, reuse) evaluation data point."""

    method: str
    capacity: int
    levels: int
    reuse: bool
    latency: int
    area: int
    volume: int
    critical_latency: int
    critical_area: int
    stall_cycles: int

    @property
    def critical_volume(self) -> int:
        """Lower-bound volume (critical latency times minimum area)."""
        return self.critical_latency * self.critical_area

    @property
    def volume_over_critical(self) -> float:
        """How far above the lower bound this configuration landed."""
        if self.critical_volume == 0:
            return float("inf")
        return self.volume / self.critical_volume

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of all fields plus the derived volume metrics."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        data["critical_volume"] = self.critical_volume
        ratio = self.volume_over_critical
        data["volume_over_critical"] = None if ratio == float("inf") else ratio
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FactoryEvaluation":
        """Inverse of :meth:`to_dict` (derived keys are ignored)."""
        return cls(**filter_fields(cls, data))


def evaluation_series_to_dict(levels: int, evaluations: Any) -> Dict[str, Any]:
    """Encode the common ``(levels, [FactoryEvaluation, ...])`` result shape.

    Shared by the figure results that are plain evaluation sweeps (Fig. 7,
    Fig. 10) so their ``to_dict``/``from_dict`` pairs stay one-liners.
    """
    return {
        "levels": levels,
        "evaluations": [evaluation.to_dict() for evaluation in evaluations],
    }


def evaluation_series_from_dict(data: Mapping[str, Any]):
    """Decode :func:`evaluation_series_to_dict` output to ``(levels, list)``."""
    return (
        int(data["levels"]),
        [FactoryEvaluation.from_dict(e) for e in data.get("evaluations", [])],
    )
