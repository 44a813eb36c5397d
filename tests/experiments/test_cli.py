"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig7x"])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "synthetic"])


class TestListCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig1a", "fig1f", "table2"):
            assert experiment_id in output
        assert "paper:" in output

    def test_broken_pipe_exits_cleanly(self, monkeypatch):
        """`igepa list | head` must not traceback when the pager closes."""
        import builtins

        real_print = builtins.print
        calls = {"count": 0}

        def exploding_print(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] > 1:
                raise BrokenPipeError
            real_print(*args, **kwargs)

        monkeypatch.setattr(builtins, "print", exploding_print)
        assert main(["list"]) == 0


class TestGenerateAndSolve:
    def test_generate_synthetic_writes_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "instance.json"
        code = main(
            [
                "generate", "synthetic",
                "--out", str(out),
                "--seed", "3",
                "--events", "10",
                "--users", "25",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["events"]) == 10
        assert len(payload["users"]) == 25
        assert "wrote" in capsys.readouterr().out

    def test_generate_meetup(self, tmp_path):
        out = tmp_path / "meetup.json"
        code = main(
            [
                "generate", "meetup",
                "--out", str(out),
                "--seed", "1",
                "--events", "12",
                "--users", "30",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["conflict"]["kind"] == "time-interval"

    @pytest.mark.parametrize(
        "algorithm", ["lp-packing", "gg", "random-u", "random-v", "exact"]
    )
    def test_solve_each_algorithm(self, tmp_path, capsys, algorithm):
        out = tmp_path / "instance.json"
        main(
            [
                "generate", "synthetic",
                "--out", str(out),
                "--seed", "3",
                "--events", "6",
                "--users", "10",
            ]
        )
        capsys.readouterr()
        code = main(["solve", str(out), "--algorithm", algorithm, "--seed", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "utility" in output
        assert algorithm.replace("exact", "exact-ilp") in output

    @pytest.mark.parametrize(
        "content", [None, "{not json", '{"events": []}', "[1, 2]"]
    )
    def test_solve_bad_instance_file_is_one_line_error(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "instance.json"
        if content is not None:
            path.write_text(content)
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot load instance {path}: ")
        assert "Traceback" not in captured.err

    def test_solve_with_alpha(self, tmp_path, capsys):
        out = tmp_path / "instance.json"
        main(
            [
                "generate", "synthetic",
                "--out", str(out),
                "--seed", "3",
                "--events", "6",
                "--users", "10",
            ]
        )
        capsys.readouterr()
        code = main(
            ["solve", str(out), "--algorithm", "lp-packing", "--alpha", "0.5"]
        )
        assert code == 0
        assert "alpha: 0.5" in capsys.readouterr().out


class TestServeCommand:
    def test_trace_mode_writes_report(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--users", "60",
                "--events", "12",
                "--batches", "4",
                "--arrival-rate", "4",
                "--departure-rate", "2",
                "--rebid-rate", "4",
                "--max-batch", "8",
                "--max-wait", "1.0",
                "--admission", "queue",
                "--max-serve", "3",
                "--deadline", "2.0",
                "--defrag", "periodic",
                "--defrag-period", "2",
                "--oracle-every", "2",
                "--check-parity",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "p50" in output and "p99" in output
        assert "index parity (bit-identical): True" in output
        payload = json.loads(out.read_text())
        assert payload["kind"] == "serve"
        assert payload["all_feasible"] is True
        assert payload["admission_policy"].startswith("queue")

    def test_stdin_mode_answers_on_stdout(self, tmp_path, capsys, monkeypatch):
        import io

        instance_path = tmp_path / "instance.json"
        main(
            [
                "generate", "synthetic",
                "--out", str(instance_path),
                "--seed", "3",
                "--events", "6",
                "--users", "10",
            ]
        )
        capsys.readouterr()
        lines = [
            json.dumps(
                {
                    "type": "churn",
                    "timestamp": 0.0,
                    "delta": {"add_events": [{"event_id": 900, "capacity": 4}]},
                }
            ),
            json.dumps(
                {
                    "type": "arrival",
                    "timestamp": 0.2,
                    "user": {"user_id": 9000, "capacity": 1, "bids": [900]},
                    "interest": [[900, 9000, 0.7]],
                }
            ),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["serve", "--stdin", "--instance", str(instance_path)])
        assert code == 0
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip().startswith("{")
        ]
        assert [r["user_id"] for r in responses] == [9000]
        assert responses[0]["outcome"] in ("accepted", "empty")

    def test_stdin_requires_instance(self, capsys):
        assert main(["serve", "--stdin"]) == 2
        assert "--instance" in capsys.readouterr().err


class TestExperimentCommand:
    def test_experiment_writes_report_file(self, tmp_path, capsys, monkeypatch):
        """Patch the registry to a fast stub; the CLI glue is what's tested."""
        from repro.experiments.registry import ExperimentReport
        import repro.cli as cli_module

        def fake_run(experiment_id, repetitions=3, seed=0, **kwargs):
            return ExperimentReport(
                experiment_id=experiment_id,
                text=f"stub report for {experiment_id} reps={repetitions}",
                data=None,
                ranking="lp-packing (1.00)",
            )

        monkeypatch.setattr(cli_module, "run_experiment", fake_run)
        out = tmp_path / "report.txt"
        code = main(["experiment", "fig1a", "--reps", "2", "--out", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "stub report for fig1a reps=2" in output
        assert "ranking" in output
        assert out.read_text().startswith("stub report")
