"""Tests for the validating wire-format decoders (:mod:`repro.service.wire`).

The contract: malformed ``EvaluationRequest``/``SweepPlan`` JSON raises a
:class:`WireFormatError` *naming the offending field* — never a raw
``KeyError``/``TypeError`` from deep inside ``from_dict`` — so the service
can answer a useful 400 and the CLI a useful exit-2 message.  Well-formed
payloads decode exactly as ``from_dict`` would.
"""

from __future__ import annotations

import json

import pytest

from repro.api import EvaluationRequest, SweepPlan
from repro.circuits.gates import DEFAULT_DURATIONS, GateKind
from repro.mapping.force_directed import ForceDirectedConfig
from repro.routing.simulator import SimulatorConfig
from repro.service.wire import (
    WireFormatError,
    decode_evaluation_request,
    decode_sweep_plan,
    validate_mapper_name,
    validate_plan_mappers,
)


def wire_request(**overrides) -> dict:
    payload = EvaluationRequest(method="linear", capacity=2).to_dict()
    payload.update(overrides)
    return payload


class TestDecodeEvaluationRequest:
    def test_round_trip_matches_from_dict(self):
        request = EvaluationRequest(
            method="force_directed",
            capacity=4,
            levels=2,
            reuse=True,
            seed=3,
            fd_config=ForceDirectedConfig(seed=7),
            sim_config=SimulatorConfig(max_candidates=3),
            options={"k": 1},
        )
        data = json.loads(json.dumps(request.to_dict()))
        assert decode_evaluation_request(data) == EvaluationRequest.from_dict(data)

    def test_minimal_payload_decodes(self):
        request = decode_evaluation_request({"method": "linear", "capacity": 2})
        assert request == EvaluationRequest(method="linear", capacity=2)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([1, 2], None),
            ("linear", None),
            ({"capacity": 2}, "method"),
            ({"method": "", "capacity": 2}, "method"),
            ({"method": 7, "capacity": 2}, "method"),
            ({"method": "linear"}, "capacity"),
            ({"method": "linear", "capacity": "big"}, "capacity"),
            ({"method": "linear", "capacity": True}, "capacity"),
            ({"method": "linear", "capacity": 0}, "capacity"),
            (wire_request(levels=0), "levels"),
            (wire_request(levels=None), "levels"),
            (wire_request(levels="two"), "levels"),
            (wire_request(capacity=3, levels=2), "capacity"),
            (wire_request(capacity=10**400), "capacity"),
            (wire_request(reuse="yes"), "reuse"),
            (wire_request(seed=1.5), "seed"),
            (wire_request(options=[1]), "options"),
            (wire_request(sim_config=5), "sim_config"),
            (wire_request(mehtod="linear"), "mehtod"),
        ],
    )
    def test_malformed_payload_names_the_field(self, payload, field):
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(payload)
        assert excinfo.value.field == field
        if field:
            assert field in str(excinfo.value)

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(wire_request(capcity=2))
        assert "'capcity'" in str(excinfo.value)
        assert "capacity" in str(excinfo.value)

    def test_bad_nested_config_is_wire_error_not_typeerror(self):
        payload = wire_request(fd_config={"no_such_knob": 1})
        with pytest.raises(WireFormatError):
            decode_evaluation_request(payload)

    @pytest.mark.parametrize(
        "fd_config",
        [
            {"sweeps": 2.5},
            {"sweeps": -3},
            {"sweeps": True},
            {"max_step": -1},
            {"max_step": 0},
            {"neighborhood_radius": 0},
            {"community_patience": -1},
            {"max_community_moves": -2},
            {"seed": 1.5},
            {"temperature": -1.0},
            {"temperature": float("inf")},
            {"cooling": float("nan")},
            {"cooling": 1.5},
            {"cooling": -0.1},
            {"attraction_weight": float("inf")},
            # Finite weights past +-1e6 could overflow a force sum to NaN.
            {"attraction_weight": 1e308},
            {"attraction_weight": -2e6},
            {"repulsion_weight": 1e308},
            {"repulsion_weight": -2e6},
            {"dipole_weight": 1e308},
            {"dipole_weight": -2e6},
            {"cost_crossing_weight": float("nan")},
            {"dipole_weight": "heavy"},
            {"use_dipole": 1},
            {"use_communities": "yes"},
        ],
    )
    def test_invalid_fd_config_names_fd_config(self, fd_config):
        payload = wire_request(method="force_directed", fd_config=fd_config)
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(payload)
        assert excinfo.value.field == "fd_config"
        (key,) = fd_config
        assert key in str(excinfo.value)

    @pytest.mark.parametrize(
        "stitch_config",
        [
            {"hop_mode": "bogus"},
            {"module_mapper": "nope"},
            {"hop_sweeps": -3},
            {"hop_sweeps": "3"},
            {"hop_sweeps": 2.5},
            {"hop_sweeps": True},
            {"gap": -1},
            {"gap": 1.5},
            {"seed": 1.5},
            {"refine_modules": 1},
            {"reassign_ports": "yes"},
        ],
    )
    def test_invalid_stitch_config_names_stitch_config(self, stitch_config):
        payload = wire_request(
            method="hierarchical_stitching", stitch_config=stitch_config
        )
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(payload)
        assert excinfo.value.field == "stitch_config"
        (key,) = stitch_config
        assert key in str(excinfo.value)

    @pytest.mark.parametrize(
        "sim_config",
        [
            {"max_candidates": "x"},
            {"max_candidates": -5},
            {"max_candidates": 0},
            {"max_candidates": 2.5},
            {"allow_detour": "yes"},
            {"detour_slack": -1.0},
            {"detour_slack": float("inf")},
            {"max_cycles": -1},
            {"durations": {"cnot": -2}},
            {"durations": {"cnot": 2.7}},
            {"durations": {"h": True}},
            {"hops": {"-1": [1, 2]}},
            {"hops": {"3": [-1, 0]}},
            {"hops": {"3": [1, 2, 3]}},
            {"hops": {"3": [1.5, 0]}},
        ],
    )
    def test_invalid_sim_config_names_sim_config(self, sim_config):
        payload = wire_request(sim_config=sim_config)
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(payload)
        assert excinfo.value.field == "sim_config"
        (key,) = sim_config
        assert f"SimulatorConfig.{key}" in str(excinfo.value)

    @pytest.mark.parametrize(
        "sim_config",
        [{"durations": {"no_such_gate": 2}}, {"hops": {"a": [1, 2]}}],
    )
    def test_undecodable_sim_config_names_sim_config(self, sim_config):
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(wire_request(sim_config=sim_config))
        assert excinfo.value.field == "sim_config"

    @pytest.mark.parametrize(
        "configs, field",
        [
            (
                {"fd_config": {"seed": 1}, "stitch_config": {"seed": 1.5}},
                "stitch_config",
            ),
            (
                {
                    "fd_config": {"seed": 1},
                    "sim_config": {"max_candidates": "x", "seed": 2},
                },
                "sim_config",
            ),
            (
                {"stitch_config": {"seed": 1}, "sim_config": {"hops": {"a": [1, 2]}}},
                "sim_config",
            ),
        ],
    )
    def test_error_names_the_config_it_came_from(self, configs, field):
        # Matching config keys in the error text once named the first
        # config sharing a key with the failing one (or none at all).
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request(wire_request(**configs))
        assert excinfo.value.field == field

    def test_partial_durations_override_the_defaults(self):
        request = decode_evaluation_request(
            wire_request(sim_config={"durations": {"cnot": 3}, "max_candidates": 3})
        )
        expected = {**DEFAULT_DURATIONS, GateKind.CNOT: 3}
        assert request.sim_config == SimulatorConfig(
            durations=expected, max_candidates=3
        )

    def test_in_range_fd_config_decodes(self):
        fd_config = {"sweeps": 0, "max_step": 1, "temperature": 0, "cooling": 1.0}
        request = decode_evaluation_request(
            wire_request(method="force_directed", fd_config=fd_config)
        )
        assert request.fd_config == ForceDirectedConfig(**fd_config)

    @pytest.mark.parametrize("weight", [-1e6, 1e6])
    def test_weights_at_the_range_bounds_decode(self, weight):
        fd_config = {
            "attraction_weight": weight,
            "repulsion_weight": -weight,
            "dipole_weight": weight,
        }
        request = decode_evaluation_request(
            wire_request(method="force_directed", fd_config=fd_config)
        )
        assert request.fd_config == ForceDirectedConfig(**fd_config)

    def test_field_prefix_appears_in_nested_messages(self):
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request({"method": "linear"}, field_prefix="requests[3]")
        assert excinfo.value.field == "requests[3].capacity"

    def test_error_payload_shape(self):
        with pytest.raises(WireFormatError) as excinfo:
            decode_evaluation_request({"method": "linear"})
        body = excinfo.value.to_dict()
        assert body["error"]["field"] == "capacity"
        assert "capacity" in body["error"]["message"]


class TestDecodeSweepPlan:
    def test_round_trip(self):
        plan = SweepPlan.from_grid(
            methods=("linear", "graph_partition"), capacities=(2, 3)
        )
        decoded = decode_sweep_plan(json.loads(json.dumps(plan.to_dict())))
        assert decoded == plan

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([1, 2, 3], None),
            ({}, "requests"),
            ({"requests": {}}, "requests"),
            ({"requests": []}, "requests"),
            ({"requests": [{"method": "linear"}]}, "requests[0].capacity"),
            (
                {"requests": [wire_request(), {"method": "linear", "capacity": "x"}]},
                "requests[1].capacity",
            ),
            (
                {"requests": [wire_request(), wire_request(capacity=8, levels=2)]},
                "requests[1].capacity",
            ),
        ],
    )
    def test_malformed_plan_names_the_field(self, payload, field):
        with pytest.raises(WireFormatError) as excinfo:
            decode_sweep_plan(payload)
        assert excinfo.value.field == field


class TestMapperValidation:
    def test_known_names_pass(self):
        validate_mapper_name("linear")
        validate_plan_mappers(
            SweepPlan.from_grid(methods=("linear", "random"), capacities=(2,))
        )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(WireFormatError) as excinfo:
            validate_mapper_name("no-such-mapper")
        message = str(excinfo.value)
        assert "no-such-mapper" in message
        assert "linear" in message  # the registered names are listed

    def test_unknown_plan_mapper_lists_registered(self):
        plan = SweepPlan.from_grid(methods=("linear", "typo"), capacities=(2,))
        with pytest.raises(WireFormatError) as excinfo:
            validate_plan_mappers(plan)
        message = str(excinfo.value)
        assert "'typo'" in message and "linear" in message
