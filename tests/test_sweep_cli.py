"""Tests for the ``repro-msfu sweep run / status / gc`` command family.

These drive the CLI through :func:`repro.cli.main` exactly as a shell
would, against a store rooted in a temp directory.
"""

from __future__ import annotations

import json

from repro.api import ResultStore, SweepExecutor, SweepPlan
from repro.cli import main


METHODS = "linear,graph_partition"


def run_cli(argv):
    return main(argv)


class TestSweepRun:
    def test_grid_run_table_output(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = run_cli(
            [
                "sweep",
                "run",
                "--methods",
                METHODS,
                "--capacities",
                "2,3",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linear" in out and "graph_partition" in out
        assert len(ResultStore(store)) == 4

    def test_resume_answers_from_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [
            "sweep",
            "run",
            "--methods",
            METHODS,
            "--capacities",
            "2,3",
            "--store",
            str(store),
            "--json",
        ]
        assert run_cli(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["stats"]["evaluations"] == 4
        assert run_cli(argv + ["--resume"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["stats"]["store_hits"] == 4
        assert second["stats"]["evaluations"] == 0
        assert second["evaluations"] == first["evaluations"]

    def test_plan_file_round_trip(self, tmp_path, capsys):
        plan = SweepPlan.from_grid(methods=("linear",), capacities=(2,))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        code = run_cli(
            [
                "sweep",
                "run",
                "--plan",
                str(plan_path),
                "--store",
                str(tmp_path / "store"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        [evaluation] = payload["evaluations"]
        assert evaluation["method"] == "linear"
        assert evaluation["capacity"] == 2

    def test_cli_output_matches_api_run(self, tmp_path, capsys):
        """The CLI is a thin shell over the executor: same numbers."""
        code = run_cli(
            [
                "sweep",
                "run",
                "--methods",
                "linear",
                "--capacities",
                "2,3",
                "--store",
                str(tmp_path / "store"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        reference = SweepExecutor(workers=1).run(
            SweepPlan.from_grid(methods=("linear",), capacities=(2, 3))
        )
        assert payload["evaluations"] == [
            evaluation.to_dict() for evaluation in reference.evaluations
        ]

    def test_output_file(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = run_cli(
            [
                "sweep",
                "run",
                "--methods",
                "linear",
                "--capacities",
                "2",
                "--store",
                str(tmp_path / "store"),
                "--json",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro-msfu-sweep/v1"

    def test_grid_and_plan_are_mutually_exclusive(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                SweepPlan.from_grid(methods=("linear",), capacities=(2,)).to_dict()
            )
        )
        code = run_cli(
            [
                "sweep",
                "run",
                "--plan",
                str(plan_path),
                "--methods",
                "linear",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_mapper_is_clean_exit_2_not_traceback(self, tmp_path, capsys):
        code = run_cli(
            [
                "sweep",
                "run",
                "--methods",
                "no-such-mapper",
                "--capacities",
                "2",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-mapper" in err and "sweep run:" in err

    def test_plan_excludes_all_grid_flags(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(
                SweepPlan.from_grid(methods=("linear",), capacities=(2,)).to_dict()
            )
        )
        for extra in (["--seeds", "1,2"], ["--levels", "2"], ["--reuse"]):
            code = run_cli(
                [
                    "sweep",
                    "run",
                    "--plan",
                    str(plan_path),
                    "--store",
                    str(tmp_path / "store"),
                ]
                + extra
            )
            assert code == 2, extra
            assert "mutually exclusive" in capsys.readouterr().err

    def test_malformed_plan_file_is_clean_exit_2(self, tmp_path, capsys):
        for content in ('[1, 2, 3]', '{"requests": [{"method": "linear"}]}'):
            plan_path = tmp_path / "bad_plan.json"
            plan_path.write_text(content)
            code = run_cli(
                [
                    "sweep",
                    "run",
                    "--plan",
                    str(plan_path),
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            assert code == 2, content
            assert "not a valid sweep plan" in capsys.readouterr().err

    def test_plan_with_unknown_mapper_exit_2_lists_registered(
        self, tmp_path, capsys
    ):
        """Mapper names in a --plan file are validated before any work runs."""
        plan = SweepPlan.from_grid(methods=("linear", "typo"), capacities=(2,))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        code = run_cli(
            [
                "sweep",
                "run",
                "--plan",
                str(plan_path),
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'typo'" in err
        # The registered names are listed so the fix is obvious.
        assert "linear" in err and "graph_partition" in err
        # Nothing was evaluated or persisted.
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_malformed_plan_error_names_the_offending_field(
        self, tmp_path, capsys
    ):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps({"requests": [{"method": "linear", "capcity": 2}]})
        )
        code = run_cli(
            [
                "sweep",
                "run",
                "--plan",
                str(plan_path),
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "requests[0].capcity" in err
        assert "not a valid sweep plan" in err

    def test_missing_grid_options_exit_2(self, tmp_path, capsys):
        code = run_cli(["sweep", "run", "--store", str(tmp_path / "store")])
        assert code == 2
        assert "needs --methods" in capsys.readouterr().err

    def test_empty_capacities_exit_2(self, tmp_path, capsys):
        argv = ["sweep", "run", "--methods", "linear", "--capacities", ","]
        try:
            code = run_cli(argv + ["--store", str(tmp_path / "store")])
        except SystemExit as exit:  # argparse rejects the empty list
            code = exit.code
        assert code == 2
        assert "at least one integer" in capsys.readouterr().err

    def test_invalid_workers_exit_2(self, tmp_path):
        code = run_cli(
            [
                "sweep",
                "run",
                "--methods",
                "linear",
                "--capacities",
                "2",
                "--workers",
                "0",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 2


class TestSweepStatus:
    def test_status_json(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_cli(
            [
                "sweep",
                "run",
                "--methods",
                "linear",
                "--capacities",
                "2,3",
                "--store",
                str(store),
            ]
        )
        capsys.readouterr()
        assert run_cli(["sweep", "status", "--store", str(store), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["entries"] == 2
        assert status["corrupt"] == 0
        assert status["schema_version"] >= 1

    def test_status_empty_store(self, tmp_path, capsys):
        assert run_cli(["sweep", "status", "--store", str(tmp_path / "none")]) == 0
        assert "entries:      0" in capsys.readouterr().out


class TestSweepGc:
    def test_gc_dry_run_then_real(self, tmp_path, capsys):
        store_root = tmp_path / "store"
        run_cli(
            [
                "sweep",
                "run",
                "--methods",
                "linear",
                "--capacities",
                "2",
                "--store",
                str(store_root),
            ]
        )
        capsys.readouterr()
        # Age the single entry far into the past.
        store = ResultStore(store_root)
        [(path, payload)] = list(store.entries())
        payload["meta"]["created_unix"] -= 90 * 86400
        path.write_text(json.dumps(payload))

        assert (
            run_cli(
                [
                    "sweep",
                    "gc",
                    "--store",
                    str(store_root),
                    "--keep-days",
                    "30",
                    "--dry-run",
                    "--json",
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["removed"] == 1
        assert len(report["removed_paths"]) == 1
        assert report["kept"] == 0
        assert report["dry_run"] is True
        assert len(store) == 1  # dry run deleted nothing

        assert (
            run_cli(
                ["sweep", "gc", "--store", str(store_root), "--keep-days", "30"]
            )
            == 0
        )
        assert len(store) == 0

    def test_gc_negative_keep_days_exit_2(self, tmp_path):
        assert (
            run_cli(
                [
                    "sweep",
                    "gc",
                    "--store",
                    str(tmp_path / "store"),
                    "--keep-days",
                    "-1",
                ]
            )
            == 2
        )
