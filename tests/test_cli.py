import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

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
grids = 1.6,0.4
n_runs = 500
seed = 7
mystery = 3
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        text = str(err.value)
        assert "mystery" in text
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

    def test_selftest_passes(self, capsys):
        assert run_selftest(n_paths=6, path_length=40, seed=0)
        out = capsys.readouterr().out
        assert out.count("ok ") == 5 and "FAIL" not in out

    def test_selftest_exit_code_through_main(self, capsys):
        assert main(["selftest"]) == 0


README = Path(__file__).resolve().parents[1] / "README.md"
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
