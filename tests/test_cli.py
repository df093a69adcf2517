import csv
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from chartbank import cli
from chartbank.cli import (
    CSV_COLUMNS,
    EXIT_CONFIG,
    ConfigError,
    DesignRunConfig,
    MultiSweepConfig,
    SingleSweepConfig,
    config_to_text,
    execute_config,
    main,
    parse_config_text,
    preset_config,
    run_selftest,
)

VALID_SINGLE = """
# comment lines and inline comments are ignored
experiment = single-sweep
family = gaussian-mean-shift
pre_param = 0.0
noise_sigma = 1.0   # observation scale
lambda_low = 0.4
lambda_high = 2.8
lambda_true = 1.0
rho = 0.01
alphas = 0.1, 0.01
variants = sr, max
grids = 0.4,1.6,2.8 | 0.4,1.0,1.6,2.2,2.8
n_runs = 500
seed = 7
"""


class TestConfigParsing:
    def test_valid_single_sweep(self):
        cfg = parse_config_text(VALID_SINGLE)
        assert isinstance(cfg, SingleSweepConfig)
        assert cfg.alphas == (0.1, 0.01)
        assert cfg.variants == ("sr", "max")
        assert cfg.grids == ((0.4, 1.6, 2.8), (0.4, 1.0, 1.6, 2.2, 2.8))
        assert cfg.horizon is None  # defaulted to auto
        assert cfg.censor_cap == 1e-3

    def test_uniform_design_below_the_pre_change_mean_is_accepted(self):
        # the Lipschitz constant takes the interval's end farther from pre_param, on
        # either side; this config was refused with "lipschitz_k must be positive"
        cfg = dataclasses.replace(preset_config("example1", runs=50), pre_param=3.0, construction="uniform")
        parsed = parse_config_text(config_to_text(cfg))
        assert (parsed.pre_param, parsed.construction) == (3.0, "uniform")

    def test_round_trip_through_text(self):
        cfg = parse_config_text(VALID_SINGLE)
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg

    def test_round_trip_all_presets(self):
        for name in ("fig4", "fig5", "example1"):
            cfg = preset_config(name)
            assert parse_config_text(config_to_text(cfg)) == cfg

    def test_problems_are_aggregated(self):
        bad = """
experiment = single-sweep
family = gaussian-mean-shift
pre_param = 0.0
lambda_low = 2.8
lambda_high = 0.4
lambda_true = 1.0
rho = 1.5
alphas = 0.01, 0.1
variants = sr, SR
grids = 1.6,0.4
n_runs = 500
seed = 7
mystery = 3
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        text = str(err.value)
        assert "mystery" in text
        assert "variants must not repeat" in text
        assert "rho" in text
        assert "strictly decreasing" in text
        assert "lambda_low < lambda_high" in text
        assert "strictly increasing" in text

    def test_missing_experiment(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("rho = 0.01\n")
        assert "experiment" in str(err.value)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("experiment = frequency-sweep\n")
        assert "frequency-sweep" in str(err.value)

    def test_duplicate_and_malformed_lines(self):
        bad = "experiment = differential-test\nseed = 1\nseed = 2\nnot a pair\n"
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        text = str(err.value)
        assert "duplicate" in text
        assert "key = value" in text

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("experiment = single-sweep\n")
        assert "missing required key" in str(err.value)

    def test_auto_values(self):
        cfg = parse_config_text(
            "experiment = multisource-sweep\npre_params = 1.0,1.0\n"
            "lambda_true = 1.7,2.0\nsource_grids = 1.5,2.0 | 1.5,2.0\n"
            "window = auto\nrho = 0.01\nalphas = 0.1\nhorizon = auto\n"
        )
        assert isinstance(cfg, MultiSweepConfig)
        assert cfg.window is None and cfg.horizon is None

    def test_multisource_arity_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(
                "experiment = multisource-sweep\npre_params = 1.0,1.0\n"
                "lambda_true = 1.7\nsource_grids = 1.5,2.0 | 1.5,2.0\n"
                "rho = 0.01\nalphas = 0.1\n"
            )
        assert "source count" in str(err.value)


class TestPresets:
    def test_fig4_structure(self):
        cfg = preset_config("fig4")
        assert isinstance(cfg, SingleSweepConfig)
        assert cfg.variants == ("sr", "max")
        assert len(cfg.grids) == 2
        assert cfg.alphas == (1e-1, 1e-2, 1e-3, 1e-4)

    def test_fig5_structure(self):
        cfg = preset_config("fig5")
        assert isinstance(cfg, MultiSweepConfig)
        assert len(cfg.pre_params) == 3
        assert cfg.window == 200

    def test_example1_structure(self):
        cfg = preset_config("example1")
        assert isinstance(cfg, DesignRunConfig)
        assert cfg.epsilon == 0.2
        assert cfg.eval_lambdas is None

    def test_overrides(self):
        cfg = preset_config("fig4", seed=42, runs=250)
        assert cfg.seed == 42 and cfg.n_runs == 250

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("fig9")

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("fig4", "5aae312c57183efeb64b8b71846937c57e4f6a216169e326dc9f627405d912b3"),
            ("fig5", "dafb68561af87e9bfe755d201cab53e57edda793efe61bad92612c001b6de1fb"),
            ("example1", "c196e9bd5b89a6d1e9d1a94d56bd586c05309cb0238a2ca690931d64172255df"),
        ],
    )
    def test_resolved_config_is_pinned(self, name, digest):
        # every value of a preset, defaults included, as config.txt renders it
        assert hashlib.sha256(config_to_text(preset_config(name)).encode()).hexdigest() == digest


class TestMainRun:
    def write_config(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def small_config(self):
        return (
            "experiment = single-sweep\nfamily = gaussian-mean-shift\n"
            "pre_param = 0.0\nlambda_low = 0.4\nlambda_high = 2.8\n"
            "lambda_true = 1.0\nrho = 0.02\nalphas = 0.1\n"
            "grids = 0.5,1.0,2.0\nn_runs = 150\nseed = 4\ncensor_cap = 0.05\n"
        )

    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, self.small_config())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "config.txt").exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest_sha256=")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3  # one alpha, one detector

    def test_every_csv_column_holds_its_sweep_row_field(self, tmp_path, capsys):
        text = self.small_config().replace("alphas = 0.1\n", "alphas = 0.1, 0.01\nvariants = sr, max\n")
        out = tmp_path / "out"
        with mock.patch.object(cli, "write_outputs", wraps=cli.write_outputs) as write:
            assert main(["run", str(self.write_config(tmp_path, text)), "--out", str(out)]) == 0
        rows = write.call_args.args[2]
        with open(out / "results.csv", newline="") as f:
            next(f)  # the manifest hash line
            reader = csv.DictReader(f)
            cells = list(reader)
        assert reader.fieldnames == CSV_COLUMNS and len(cells) == len(rows) == 4
        for row, cell in zip(rows, cells):
            assert float(cell["alpha"]) == row.alpha
            assert float(cell["log_alpha_abs"]) == abs(math.log(row.alpha))
            assert cell["detector"] == row.detector
            assert tuple(float(v) for v in cell["lambda_true"].split("|")) == row.lam_true
            for name in ("add_hat", "add_se", "pfa_hat", "pfa_se", "lower_bound", "efficiency"):
                assert float(cell[name]) == getattr(row, name)
            for name in ("censored", "n_runs", "seed"):
                assert int(cell[name]) == getattr(row, name)

    def test_auto_horizon_past_the_cap_is_a_config_error(self, tmp_path, capsys):
        cfg = dataclasses.replace(preset_config("fig4", runs=50), rho=1e-9)
        with pytest.raises(ConfigError):  # checked before main, which would start a 9.2e9-slot sweep
            parse_config_text(config_to_text(cfg))
        path = self.write_config(tmp_path, config_to_text(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert re.search(r"sr-grid1: rho = 1e-09 .* set horizon", capsys.readouterr().err)
        assert not out.exists()
        parse_config_text(config_to_text(dataclasses.replace(cfg, horizon=500)))  # a set horizon is not capped

    def test_manifest_hash_is_self_consistent(self, tmp_path):
        cfg = self.write_config(tmp_path, self.small_config())
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        stored = manifest.pop("manifest_sha256")
        recomputed = hashlib.sha256(
            json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert stored == recomputed
        csv_first = (out / "results.csv").read_text().splitlines()[0]
        assert csv_first == f"# manifest_sha256={stored}"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, self.small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--out", str(out1)])
        main(["run", str(cfg), "--out", str(out2)])
        for name in ("results.csv", "manifest.json", "config.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "experiment = single-sweep\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config problems" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset, change, problem",
        [
            ("fig4", {"lambda_low": 0.0, "grids": ((0.0, 1.0),)}, "grid 1 contains pre_param"),
            ("fig5", {"source_grids": ((1.5, 2.0), (1.0, 2.0), (1.5, 2.0))}, "source grid 2 contains"),
        ],
        ids=["single-sweep", "multisource-sweep"],
    )
    def test_grid_with_pre_change_value_is_a_config_error(self, tmp_path, capsys, preset, change, problem):
        # a candidate at the pre-change value has zero divergence; the detectors
        # refuse it, so the config must be refused before any sweep starts
        cfg = dataclasses.replace(preset_config(preset, runs=50), **change)
        path = self.write_config(tmp_path, config_to_text(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert problem in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "preset, change, problem",
        [
            ("example1", {"pre_param": 1.0}, "pre_param 1.0 lies in [lambda_low, lambda_high]"),
            ("example1", {"pre_param": 0.37}, "pre_param 0.37 lies in [lambda_low, lambda_high]"),
            (
                "example1",
                {"lambda_low": 1e-170},
                "[lambda_low, lambda_high] = [1e-170, 2.63]: design interval contains a parameter indistinguishable",
            ),
            (
                "fig4",
                {"family": "gaussian-variance-shift", "pre_param": 1.0, "grids": ((1.5, 2.0),)},
                "sr-grid1: no chart grows under lam_true=1.0",
            ),
            ("fig4", {"lambda_low": 1e-170, "grids": ((1e-170, 1.0, 2.8),)}, "indistinguishable"),
            (
                "fig5",
                {"pre_params": (1.0, 1.0), "lambda_true": (1.0, 1.0), "source_grids": ((1.5, 2.0), (1.5, 2.0))},
                "windowed-max: no chart grows",
            ),
            (
                "fig5",
                {"pre_params": (1.0, 1.0), "lambda_true": (0.5, 0.5), "source_grids": ((1.5, 2.0), (1.5, 2.0))},
                "windowed-max: no chart grows",
            ),
            (
                "fig5",
                {"pre_params": (1.0, 1.0), "lambda_true": (-1.0, 2.0), "source_grids": ((1.5, 2.0), (1.5, 2.0))},
                "lambda_true must be positive scales",
            ),
            ("example1", {"rho": 1e-6}, "sr-designed: rho = 1e-06 asks for an auto horizon"),
        ],
        ids=[
            "design-holds-pre",
            "design-edge-is-pre",
            "design-divergence-underflows",
            "single-sweep-no-change",
            "single-sweep-divergence-underflows",
            "multisource-no-change",
            "multisource-lower",
            "multisource-negative-scale",
            "design-auto-horizon-past-the-cap",
        ],
    )
    def test_config_a_sweep_cannot_run_is_a_config_error(self, tmp_path, capsys, preset, change, problem):
        # each of these used to parse cleanly and then die mid-run with a traceback
        cfg = dataclasses.replace(preset_config(preset, runs=50), **change)
        path = self.write_config(tmp_path, config_to_text(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert problem in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset, change, names",
        [
            ("fig4", {"noise_sigma": 0.0}, "noise_sigma"),
            ("example1", {"noise_sigma": 0.0}, "sigma must be positive"),
            ("fig4", {"family": "gaussian-variance-shift", "pre_param": 1.0, "noise_sigma": -1.0,
                      "lambda_true": 1.6, "grids": ((1.5, 2.0),)}, "noise_sigma"),
            ("fig4", {"grids": ((0.2, 1.0),)}, "grid 1|sr-grid1"),
            ("fig4", {"family": "gaussian-variance-shift", "pre_param": 0.0, "grids": ((1.5, 2.0),)}, "pre_param"),
            ("fig4", {"family": "gaussian-variance-shift", "pre_param": 1.0, "lambda_low": 0.0, "grids": ((1.5, 2.0),)},
             "lambda_low"),
            ("fig5", {"pre_params": (0.0, 1.0, 1.0)}, "pre_params"),
            ("fig5", {"source_grids": ((-1.5, 2.0), (1.5, 2.0), (1.5, 2.0))}, "source grid 1|source_grids"),
            ("fig5", {"source_grids": ((2.0, 1.5), (1.5, 2.0), (1.5, 2.0))}, "source grid 1|windowed-max"),
            ("fig5", {"window": 0}, "window"),
            ("example1", {"epsilon": 0.0}, "epsilon"),
            ("example1", {"epsilon": 1.0}, "epsilon"),
            ("example1", {"mesh_points": 1}, "mesh"),
            ("example1", {"grid_cap": 0}, "grid_cap"),
            ("fig4", {"horizon": 0}, "horizon"),
            ("fig4", {"censor_cap": 1.0}, "censor_cap"),
            # a design's refusal names its key, not the design interval
            ("example1", {"noise_sigma": 0.0}, r"(?m)^  - noise_sigma must be positive"),
            ("example1", {"epsilon": 0.0}, r"(?m)^  - epsilon must lie in \(0, 1\)"),
        ],
        ids=[
            "mean-shift-noise-0",
            "design-noise-0",
            "variance-shift-noise-negative",
            "grid-outside-interval",
            "variance-shift-pre-param-0",
            "variance-shift-lambda-low-0",
            "pre-params-0",
            "source-grid-negative",
            "source-grid-unsorted",
            "window-0",
            "epsilon-0",
            "epsilon-1",
            "mesh-points-1",
            "grid-cap-0",
            "horizon-0",
            "censor-cap-1",
            "design-noise-0-names-its-key",
            "design-epsilon-0-names-its-key",
        ],
    )
    def test_config_the_run_refuses_is_a_config_error(self, tmp_path, capsys, preset, change, names):
        # the refusal set the config check keeps, whether a rule of its own or the run's construction refuses
        cfg = dataclasses.replace(preset_config(preset, runs=50), **change)
        path = self.write_config(tmp_path, config_to_text(cfg))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert re.search(names, capsys.readouterr().err)
        assert not out.exists()

    def test_cells_with_zero_delay_report_infinite_efficiency(self, tmp_path, capsys):
        # at rho = 0.99 nearly every change comes on slot 1 and every run stops with zero delay
        text = self.small_config().replace("rho = 0.02", "rho = 0.99").replace("n_runs = 150", "n_runs = 50")
        path = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        header, row = (out / "results.csv").read_text().splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert (cells["add_hat"], cells["efficiency"]) == ("0.0", "inf")

    @pytest.mark.parametrize("experiment", ["single-sweep", "differential-test"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, experiment):
        text = self.small_config() if experiment == "single-sweep" else "experiment = differential-test\n"
        path = self.write_config(tmp_path, text.replace("seed = 4\n", "") + "seed = -3\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["run", str(missing), "--out", str(tmp_path / "o")]) == 2

    def test_censoring_failure_exit_code(self, tmp_path, capsys):
        # a 5-slot horizon cannot contain the change for most runs, so the
        # censored fraction blows through the cap; outputs still land
        text = (
            "experiment = single-sweep\nfamily = gaussian-mean-shift\n"
            "pre_param = 0.0\nlambda_low = 0.4\nlambda_high = 2.8\n"
            "lambda_true = 1.0\nrho = 0.01\nalphas = 0.01\n"
            "grids = 0.5,1.0,2.0\nn_runs = 100\nhorizon = 5\nseed = 1\n"
        )
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        assert (out / "results.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(not cell["valid"] for cell in manifest["cells"])

    def test_capacity_failure_exit_code(self, tmp_path, capsys):
        text = (
            "experiment = epsilon-design\npre_param = 0.0\n"
            "lambda_low = 0.37\nlambda_high = 2.63\nepsilon = 0.001\n"
            "grid_cap = 3\nrho = 0.01\nalphas = 0.01\nn_runs = 50\nseed = 1\n"
        )
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "capacity" in manifest["error"]

    def test_differential_test_config(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path, "experiment = differential-test\nn_paths = 6\npath_length = 40\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 5


class TestMainPresetAndSelftest:
    def test_preset_runs_small(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(["preset", "fig4", "--out", str(out), "--runs", "80", "--seed", "3"])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        # 4 alphas x (2 variants x 2 grids) detectors
        assert len(lines) == 2 + 4 * 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_runs"] == 80
        assert manifest["config"]["seed"] == 3

    def test_small_fig5_preset_keeps_changes_inside_the_horizon(self, tmp_path, capsys):
        # at 400 runs the 1e-3 cap allows no censored run; seed 9 has a
        # change at slot 1012, past the horizon the cap alone would give (925)
        out = tmp_path / "p"
        assert main(["preset", "fig5", "--out", str(out), "--runs", "400", "--seed", "9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(cell["censored"] == 0 for cell in manifest["cells"])

    @pytest.mark.parametrize(
        "override, problem",
        [
            (["--runs", "0"], "n_runs must be at least 2"),
            (["--runs", "-5"], "n_runs must be at least 2"),
            (["--runs", "1"], "n_runs must be at least 2"),
            (["--seed", "-1"], "seed must be non-negative"),
        ],
        ids=["runs-0", "runs-negative", "runs-1", "seed-negative"],
    )
    def test_preset_overrides_are_checked_like_config_files(self, tmp_path, capsys, override, problem):
        out = tmp_path / "p"
        assert main(["preset", "fig4", "--out", str(out), *override]) == EXIT_CONFIG
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_selftest_passes(self, capsys):
        assert run_selftest(n_paths=6, path_length=40, seed=0)
        out = capsys.readouterr().out
        assert out.count("ok ") == 5 and "FAIL" not in out

    def test_selftest_exit_code_through_main(self, capsys):
        assert main(["selftest"]) == 0


class TestCheckBuildsWhatTheRunBuilds:
    """The config check builds a sweep cell for every (detector, true parameter, alpha) the run writes."""

    @staticmethod
    def lams(value) -> tuple[float, ...]:
        return tuple(float(x) for x in (value if isinstance(value, tuple) else (value,)))

    @pytest.mark.parametrize(
        "preset, change",
        [
            ("fig4", {}),
            ("fig5", {}),
            ("example1", {}),
            ("example1", {"eval_lambdas": (0.5, 2.0)}),
        ],
        ids=["fig4", "fig5", "example1", "design-two-eval-lambdas"],
    )
    def test_checked_cells_are_the_written_rows(self, tmp_path, capsys, preset, change):
        text = config_to_text(dataclasses.replace(preset_config(preset), n_runs=50, **change))
        with mock.patch.object(cli, "_sweep_cell", wraps=cli._sweep_cell) as build:
            cfg = parse_config_text(text)
        checked = {(c.args[0].label, self.lams(c.args[1]), c.args[2]) for c in build.call_args_list}
        assert execute_config(cfg, tmp_path) == 0
        with open(tmp_path / "results.csv", newline="") as f:
            next(f)  # the manifest hash line
            written = {
                (row["detector"], tuple(float(v) for v in row["lambda_true"].split("|")), float(row["alpha"]))
                for row in csv.DictReader(f)
            }
        assert checked == written

    def test_a_design_reports_its_label_once(self, tmp_path, capsys):
        # the one template fails at every eval parameter; the check says so once
        cfg = dataclasses.replace(preset_config("example1", runs=50), rho=1e-6)
        path = tmp_path / "design.cfg"
        path.write_text(config_to_text(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("sr-designed:") == 1


ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


class TestPinnedResults:
    """The benchmark's sweeps at seed 0 must keep their pinned results.csv SHA-256."""

    def assert_pinned(self, name, out):
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        assert digest == PINNED[name]["results_sha256"]

    def test_fig4_preset(self, tmp_path, capsys):
        assert (PINNED["fig4-bank"]["seed"], PINNED["fig4-bank"]["runs"]) == (0, 2000)
        out = tmp_path / "fig4"
        assert main(["preset", "fig4", "--seed", "0", "--runs", "2000", "--out", str(out)]) == 0
        self.assert_pinned("fig4-bank", out)

    def test_fig5_window_config(self, tmp_path, capsys):
        assert (PINNED["fig5-window"]["seed"], PINNED["fig5-window"]["runs"]) == (0, 400)
        cfg = dataclasses.replace(preset_config("fig5", seed=0, runs=400), horizon=400, censor_cap=0.1)
        path = tmp_path / "fig5.cfg"
        path.write_text(config_to_text(cfg))
        out = tmp_path / "fig5"
        assert main(["run", str(path), "--out", str(out)]) == 0
        self.assert_pinned("fig5-window", out)

    def test_example1_preset(self, tmp_path, capsys):
        out = tmp_path / "example1"
        assert main(["preset", "example1", "--seed", "0", "--runs", "200", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        assert digest == "39a9919a7cab3d0fed9a77178be86367166414c6e7dde8aca95740662af4a102"


def test_benchmark_selftest_passes():
    # the harness calls the template constructors, best_drift, simulate_runs and
    # simulate's sampler bindings; a break there fails here, not only in the benchmark
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


README = ROOT / "README.md"
README_INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", README.read_text(), flags=re.S | re.M)


class TestReadmeConfigs:
    def test_readme_has_config_examples(self):
        assert README_INI_BLOCKS

    @pytest.mark.parametrize("block", range(len(README_INI_BLOCKS)))
    def test_readme_config_runs(self, block, tmp_path, capsys):
        cfg = parse_config_text(README_INI_BLOCKS[block])
        code = execute_config(dataclasses.replace(cfg, n_runs=200), tmp_path)
        assert code != EXIT_CONFIG
        assert (tmp_path / "results.csv").is_file()
