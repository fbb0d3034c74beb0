"""End-to-end tests for the repro-rtp CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generate a small CSV + trained model usable by all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "data.csv"
    model = root / "model.npz"
    assert main(["generate", "--out", str(csv), "--aois", "25",
                 "--couriers", "3", "--days", "5", "--seed", "9"]) == 0
    assert main(["train", "--data", str(csv), "--out", str(model),
                 "--epochs", "2", "--quiet"]) == 0
    return csv, model


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x.csv"])
        assert args.aois == 60 and args.seed == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_generate_writes_csv(self, workspace):
        csv, _ = workspace
        header = csv.read_text().splitlines()[0]
        assert "instance_id" in header and "arrival_minutes" in header

    def test_train_writes_model_and_config(self, workspace):
        _, model = workspace
        assert model.exists()
        config = json.loads(model.with_suffix(".json").read_text())
        assert config["hidden_dim"] == 32

    def test_info(self, workspace, capsys):
        csv, _ = workspace
        assert main(["info", "--data", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "num_instances" in out

    def test_evaluate(self, workspace, capsys):
        csv, model = workspace
        assert main(["evaluate", "--data", str(csv), "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "HR@3" in out and "RMSE" in out

    def test_serve(self, workspace, capsys):
        csv, model = workspace
        assert main(["serve", "--data", str(csv), "--model", str(model),
                     "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "ETA" in out and "served" in out

    def test_serve_runs_the_model_once_per_query(self, workspace, tmp_path,
                                                 capsys):
        csv, model = workspace
        metrics = tmp_path / "serve.prom"
        assert main(["serve", "--data", str(csv), "--model", str(model),
                     "--queries", "2", "--metrics-out", str(metrics)]) == 0
        assert "served 2 queries" in capsys.readouterr().out
        assert "rtp_queries_total 2" in metrics.read_text().splitlines()

    def test_load_artifact_reports_the_served_model_width(self, workspace,
                                                          tmp_path):
        _, model = workspace
        out = tmp_path / "load.json"
        assert main(["load", "--scenario", "steady", "--smoke",
                     "--model", str(model), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["hidden_dim"] == 32

    def test_evaluate_missing_config(self, workspace, tmp_path):
        csv, model = workspace
        orphan = tmp_path / "orphan.npz"
        orphan.write_bytes(model.read_bytes())
        with pytest.raises(FileNotFoundError):
            main(["evaluate", "--data", str(csv), "--model", str(orphan)])

    @staticmethod
    def stale_model(model, tmp_path, field):
        """A copy of ``model`` whose stored config also names ``field``."""
        stale = tmp_path / "stale.npz"
        stale.write_bytes(model.read_bytes())
        config = json.loads(model.with_suffix(".json").read_text())
        config[field] = 1
        stale.with_suffix(".json").write_text(json.dumps(config))
        return stale

    def test_evaluate_rejects_unknown_config_field(self, workspace,
                                                   tmp_path):
        csv, model = workspace
        stale = self.stale_model(model, tmp_path, "made_up_field")
        with pytest.raises(ValueError, match="made_up_field"):
            main(["evaluate", "--data", str(csv), "--model", str(stale)])

    @pytest.mark.parametrize("field", ["cell_type", "restrict_to_neighbors"])
    def test_evaluate_rejects_a_field_the_config_no_longer_has(
            self, workspace, tmp_path, field):
        """A config stored when the model still had ``field`` fails to
        load, naming it."""
        csv, model = workspace
        stale = self.stale_model(model, tmp_path, field)
        with pytest.raises(ValueError, match=field):
            main(["evaluate", "--data", str(csv), "--model", str(stale)])

    def test_roundtrip_determinism(self, workspace, capsys):
        """Evaluating twice gives identical output (model is frozen)."""
        csv, model = workspace
        main(["evaluate", "--data", str(csv), "--model", str(model)])
        first = capsys.readouterr().out
        main(["evaluate", "--data", str(csv), "--model", str(model)])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("flag, value", [("--epochs", "0"),
                                             ("--batch-size", "-3"),
                                             ("--hidden-dim", "0"),
                                             ("--hidden-dim", "-4")])
    def test_train_rejects_values_below_one(self, workspace, tmp_path,
                                            capsys, flag, value):
        csv, _ = workspace
        out = tmp_path / "model.npz"
        argv = ["train", "--data", str(csv), "--out", str(out),
                "--epochs", "1", "--quiet"] + [flag, value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"{flag}: must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("scenario, flag, value", [
        ("steady", "--rate", "0"),
        ("steady", "--duration", "0"),
        ("steady", "--max-queue-depth", "0"),
        ("steady", "--deadline-ms", "-5"),
        ("shard_kill", "--shards", "0")])
    def test_load_rejects_out_of_range_values(self, tmp_path, capsys,
                                              scenario, flag, value):
        out = tmp_path / "load.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["load", "--scenario", scenario, "--smoke",
                  "--out", str(out), flag, value])
        assert exit_info.value.code == 2
        assert f"{flag}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, bound", [
        (["serve", "--data", "data.csv", "--model", "model.npz"],
         "--queries", "-1", 1),
        (["serve", "--data", "data.csv", "--model", "model.npz"],
         "--queries", "0", 1),
        (["deploy", "serve", "--registry", "reg", "--data", "data.csv"],
         "--queries", "-3", 1),
        (["obs", "report"], "--queries", "0", 1),
        (["obs", "report"], "--window", "1", 2)],
        ids=["serve-queries--1", "serve-queries-0",
             "deploy-serve-queries--3", "obs-report-queries-0",
             "obs-report-window-1"])
    def test_counts_rejected_at_parse_time(self, tmp_path, monkeypatch,
                                           capsys, command, flag, value,
                                           bound):
        """Out-of-range counts exit 2 before any file is read or
        written."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(command + [flag, value])
        assert exit_info.value.code == 2
        assert f"{flag}: must be >= {bound}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
