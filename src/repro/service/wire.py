"""Structured validation of the JSON wire format.

``EvaluationRequest.from_dict`` / ``SweepPlan.from_dict`` are exact
inverses of ``to_dict`` and assume well-formed input: handed a malformed
payload they surface raw ``KeyError``/``TypeError``s from deep inside the
decoders.  That is fine for trusted round trips but useless as an error
contract for a network service (or a ``--plan`` file typed by a human).

This module is the validating front door both the sweep service and
``repro-msfu sweep run --plan`` decode through:

* :class:`WireFormatError` — a :class:`~repro.api.pipeline.RequestError`
  (a :class:`ValueError`) carrying the dotted ``field`` path of the
  offending value (``requests[3].capacity``), so an HTTP 400 body or an
  exit-2 CLI message can say exactly what to fix;
* :func:`decode_evaluation_request` / :func:`decode_sweep_plan` — type- and
  range-checked decoding into the existing request/plan classes;
* :func:`validate_plan_mappers` — registry validation of every mapper name
  a plan references, with the registered names listed in the message (the
  same fail-fast contract the grid flags already have), applied *before*
  any work is queued so an unknown name can never become a mid-run
  traceback in a worker process;
* :func:`validate_plan_capacities` — the same for a capacity with no
  factory at its level count, which the decoder already rejects for each
  request it decodes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Mapping, Optional

from ..api.executor import SweepPlan
from ..api.mappers import available_mappers
from ..api.pipeline import CONFIG_DECODERS, EvaluationRequest, RequestError
from ..api.sharding import SHARD_STRATEGIES, ShardSpec


class WireFormatError(RequestError):
    """A wire payload failed validation; ``field`` names the offending value.

    ``field`` is a dotted path into the payload (``capacity``,
    ``requests[3].method``) or ``None`` when the problem is the payload as
    a whole (e.g. not a JSON object).  ``str()`` always includes the path.
    """


def _path(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _require_int(value: Any, field: str, minimum: Optional[int] = None) -> int:
    # bool is an int subclass; "capacity": true must not validate.
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(
            f"expected an integer, got {type(value).__name__}", field
        )
    if minimum is not None and value < minimum:
        raise WireFormatError(f"must be >= {minimum}, got {value}", field)
    return value


#: Top-level request keys, with their human-readable type requirement.
_REQUEST_KEYS = {
    "method",
    "capacity",
    "levels",
    "reuse",
    "seed",
    "fd_config",
    "stitch_config",
    "sim_config",
    "options",
}


def decode_evaluation_request(
    data: Any, field_prefix: str = ""
) -> EvaluationRequest:
    """Decode one ``EvaluationRequest.to_dict`` payload, validating it.

    Raises :class:`WireFormatError` naming the offending field on any shape
    problem — a missing/mistyped key, an unknown key (almost always a
    typo'd option name), a config sub-object the typed decoders reject, or
    a capacity with no factory at the request's level count.
    """
    if not isinstance(data, Mapping):
        raise WireFormatError(
            f"expected a JSON object describing an evaluation request, "
            f"got {type(data).__name__}",
            field_prefix or None,
        )
    unknown = sorted(set(data) - _REQUEST_KEYS)
    if unknown:
        raise WireFormatError(
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys are {', '.join(sorted(_REQUEST_KEYS))}",
            _path(field_prefix, unknown[0]),
        )

    method = data.get("method")
    if not isinstance(method, str) or not method:
        raise WireFormatError(
            "expected a non-empty mapper name string"
            + ("" if "method" in data else " (key is missing)"),
            _path(field_prefix, "method"),
        )
    if "capacity" not in data:
        raise WireFormatError("key is missing", _path(field_prefix, "capacity"))
    _require_int(data["capacity"], _path(field_prefix, "capacity"), minimum=1)
    if "levels" in data:
        _require_int(data["levels"], _path(field_prefix, "levels"), minimum=1)
    if "seed" in data and data["seed"] is not None:
        _require_int(data["seed"], _path(field_prefix, "seed"))
    if "reuse" in data and data["reuse"] is not None:
        if not isinstance(data["reuse"], bool):
            raise WireFormatError(
                f"expected a boolean, got {type(data['reuse']).__name__}",
                _path(field_prefix, "reuse"),
            )
    for key in ("fd_config", "stitch_config", "sim_config", "options"):
        value = data.get(key)
        if value is not None and not isinstance(value, Mapping):
            raise WireFormatError(
                f"expected a JSON object or null, got {type(value).__name__}",
                _path(field_prefix, key),
            )

    # The shape is right; the typed config decoders enforce the rest
    # (unknown config fields, malformed durations tables, ...), each in its
    # own try so an error names the config it came from.
    configs = {}
    for key, decode in CONFIG_DECODERS.items():
        if data.get(key):
            try:
                configs[key] = decode(data[key])
            except (KeyError, TypeError, ValueError) as error:
                raise WireFormatError(
                    f"could not be decoded: {error}", _path(field_prefix, key)
                ) from error
    rest = {key: value for key, value in data.items() if key not in configs}
    try:
        request = replace(EvaluationRequest.from_dict(rest), **configs)
    except (KeyError, TypeError, ValueError) as error:
        raise WireFormatError(
            f"could not be decoded: {error}", field_prefix or None
        ) from error
    _require_factory(request, _path(field_prefix, "capacity"))
    return request


def _require_factory(request: EvaluationRequest, field: str) -> None:
    try:
        request.spec()
    except (OverflowError, ValueError) as error:  # overflow: too big for a float
        raise WireFormatError(str(error), field) from error


def decode_sweep_plan(data: Any, field_prefix: str = "") -> SweepPlan:
    """Decode one ``SweepPlan.to_dict`` payload, validating every request."""
    if not isinstance(data, Mapping):
        raise WireFormatError(
            f"expected a JSON object with a 'requests' list, "
            f"got {type(data).__name__}",
            field_prefix or None,
        )
    requests_field = _path(field_prefix, "requests")
    if "requests" not in data:
        raise WireFormatError("key is missing", requests_field)
    items = data["requests"]
    if not isinstance(items, list):
        raise WireFormatError(
            f"expected a list of evaluation requests, got {type(items).__name__}",
            requests_field,
        )
    if not items:
        raise WireFormatError(
            "must contain at least one evaluation request", requests_field
        )
    decoded: List[EvaluationRequest] = [
        decode_evaluation_request(item, field_prefix=f"{requests_field}[{index}]")
        for index, item in enumerate(items)
    ]
    return SweepPlan.from_requests(decoded)


def decode_shard_spec(data: Any, field_prefix: str = "shard") -> ShardSpec:
    """Decode one ``ShardSpec.to_dict`` payload, validating it.

    The shard face of the wire contract: ``POST /v1/sweeps`` (and
    ``sweep shard --spec``) accept an optional ``"shard"`` object of
    ``{"index": i, "count": n, "strategy": ...}``; this decoder turns any
    shape problem into a :class:`WireFormatError` naming the field instead
    of a traceback out of ``ShardSpec.__post_init__``.
    """
    if not isinstance(data, Mapping):
        raise WireFormatError(
            f"expected a JSON object with 'index' and 'count', "
            f"got {type(data).__name__}",
            field_prefix or None,
        )
    unknown = sorted(set(data) - {"index", "count", "strategy"})
    if unknown:
        raise WireFormatError(
            f"unknown key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys are count, index, strategy",
            _path(field_prefix, unknown[0]),
        )
    for key in ("index", "count"):
        if key not in data:
            raise WireFormatError("key is missing", _path(field_prefix, key))
    count = _require_int(data["count"], _path(field_prefix, "count"), minimum=1)
    index = _require_int(data["index"], _path(field_prefix, "index"), minimum=0)
    if index >= count:
        raise WireFormatError(
            f"must be < count ({count}), got {index}",
            _path(field_prefix, "index"),
        )
    strategy = data.get("strategy", "contiguous")
    if not isinstance(strategy, str) or strategy not in SHARD_STRATEGIES:
        raise WireFormatError(
            f"expected one of {', '.join(map(repr, SHARD_STRATEGIES))}, "
            f"got {strategy!r}",
            _path(field_prefix, "strategy"),
        )
    return ShardSpec(index=index, count=count, strategy=strategy)


def validate_mapper_name(name: str, field: str = "method") -> None:
    """Reject an unregistered mapper name, listing what is registered."""
    registered = sorted(available_mappers())
    if name not in registered:
        raise WireFormatError(
            f"unknown mapper {name!r}; registered mappers: "
            f"{', '.join(registered)}",
            field,
        )


def validate_plan_mappers(plan: SweepPlan) -> None:
    """Reject a plan referencing any unregistered mapper name.

    Runs before anything is queued or dispatched, so a typo'd name is a
    clean client error (HTTP 400 / CLI exit 2 listing the registered
    names), never a traceback out of a worker process mid-run.
    """
    registered = set(available_mappers())
    unknown = sorted({request.method for request in plan} - registered)
    if unknown:
        raise WireFormatError(
            f"unknown mapper(s) {', '.join(map(repr, unknown))}; "
            f"registered mappers: {', '.join(sorted(registered))}",
            "requests[].method",
        )


def validate_plan_capacities(plan: SweepPlan, field: Optional[str] = None) -> None:
    """Reject a plan holding a capacity with no factory at its level count.

    Like :func:`validate_plan_mappers`, runs before anything is queued.
    The error names ``field`` (the ``capacities`` option of a grid) or
    else ``requests[i].capacity`` of the first such request.
    """
    for index, request in enumerate(plan):
        _require_factory(request, field or f"requests[{index}].capacity")
