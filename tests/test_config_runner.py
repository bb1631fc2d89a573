import hashlib
import json

import pytest

from fiberdyn import CapExceeded, ParseError, ValidationError
from fiberdyn.experiments import (ExperimentConfig, parse_config,
                                  run_experiment, serialize_config)
from fiberdyn.experiments.cli import main as cli_main

MINIMAL = """
[system]
family = logistic

[experiment]
kind = ftle
n = 1000
samples = 3

[output]
dir = out
seed = 1
"""


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.family == "logistic"
        assert cfg.kind == "ftle"
        assert cfg.param("n") == 1000
        assert cfg.param("samples") == 3
        assert cfg.seed == 1

    def test_defaults_fill_missing_keys(self):
        cfg = parse_config("[system]\nfamily = logistic\n"
                           "[experiment]\nkind = census\n")
        assert cfg.param("delta") == 0.1
        assert cfg.out_dir == "out"

    def test_comments_and_quotes(self):
        cfg = parse_config('[system]\nfamily = "logistic"  # a map\n'
                           '[experiment]\nkind = acim # hist\n')
        assert cfg.family == "logistic"

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError, match="experiment.kind"):
            parse_config("[system]\nfamily = logistic\n"
                         "[experiment]\nkind = transfer\n")

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError, match="experiment.delta"):
            parse_config("[system]\nfamily = logistic\n"
                         "[experiment]\nkind = census\ndelta = -0.1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="experiment.bogus"):
            parse_config("[system]\nfamily = logistic\n"
                         "[experiment]\nkind = ftle\nbogus = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError, match="plotting"):
            parse_config("[plotting]\ncolor = red\n")

    def test_system_param_for_wrong_family(self):
        with pytest.raises(ValidationError, match="system.a0"):
            parse_config("[system]\nfamily = logistic\na0 = 1.7\n"
                         "[experiment]\nkind = ftle\n")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_config("[system]\nfamily logistic\n")
        assert exc.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("[system]\nfamily = logistic\nfamily = twowell\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError):
            parse_config("family = logistic\n")

    def test_bad_seed_rejected(self):
        with pytest.raises(ValidationError, match="output.seed"):
            parse_config("[system]\nfamily = logistic\n"
                         "[experiment]\nkind = ftle\n"
                         "[output]\nseed = -3\n")

    def test_round_trip(self):
        for text in (
            MINIMAL,
            "[system]\nfamily = viana\na0 = 1.7\nalpha = 0.05\nd = 16\n"
            "[experiment]\nkind = curve\niterations = 5\n",
            "[system]\nfamily = quadratic\na = 1.9\n"
            "[experiment]\nkind = census\ndelta = 0.05\n"
            "[output]\ndir = \"some dir/with spaces\"\nseed = 77\n",
        ):
            cfg = parse_config(text)
            assert parse_config(serialize_config(cfg)) == cfg


class TestRunner:
    def _config(self, tmp_path, **overrides):
        params = {"n": 500, "samples": 3}
        params.update(overrides)
        return ExperimentConfig(family="logistic", kind="ftle", seed=9,
                                out_dir=str(tmp_path / "run"),
                                params=params)

    def test_outputs_and_manifest(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("dir = out",
                                           f"dir = \"{tmp_path}/r1\""))
        manifest = run_experiment(cfg)
        assert manifest["status"] == "ok"
        assert (tmp_path / "r1" / "ftle.csv").exists()
        assert (tmp_path / "r1" / "manifest.json").exists()
        names = [o["name"] for o in manifest["outputs"]]
        assert names == ["ftle.csv"]

    def test_digests_match_file_contents(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("dir = out",
                                           f"dir = \"{tmp_path}/r2\""))
        manifest = run_experiment(cfg)
        for entry in manifest["outputs"]:
            data = (tmp_path / "r2" / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
            assert len(data) == entry["bytes"]

    def test_rerun_is_bit_identical(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            cfg = parse_config(MINIMAL.replace(
                "dir = out", f"dir = \"{tmp_path}/{sub}\""))
            manifest = run_experiment(cfg)
            digests.append({o["name"]: o["sha256"]
                            for o in manifest["outputs"]})
        assert digests[0] == digests[1]

    def test_failure_recorded_in_manifest(self, tmp_path):
        cfg = ExperimentConfig(
            family="logistic", kind="census", seed=1,
            out_dir=str(tmp_path / "bad"),
            params={"n": 16, "delta": 0.1, "cap": 4})
        with pytest.raises(CapExceeded):
            run_experiment(cfg)
        manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "CapExceeded" in manifest["error"]


class TestCli:
    def test_success_exit_code(self, tmp_path):
        rc = cli_main(["ftle", "--family", "logistic", "--n", "500",
                       "--samples", "2", "--seed", "4",
                       "--out", str(tmp_path / "c1")])
        assert rc == 0
        assert (tmp_path / "c1" / "ftle.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        rc = cli_main(["census", "--delta", "-1.0",
                       "--out", str(tmp_path / "c2")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["census", "--delta", "inf"],
        ["ay_decay", "--delta-min", "0.3", "--delta-max", "0.1"],
        ["ay_decay", "--n-values", "abc"],
        ["ftle", "--family", "quadratic", "--system", "a=3"],
        ["curve", "--family", "logistic"],
        ["probe", "--family", "logistic"],
        ["markov", "--family", "viana"],
        ["acim", "--family", "viana", "--bins", "7"],
        ["acim", "--family", "viana", "--bins", "10"],
        ["components", "--family", "viana", "--bins", "10"],
    ], ids=["infinite-delta", "inverted-delta-grid", "non-integer-depths",
            "family-parameter-out-of-range", "curve-needs-skew",
            "probe-needs-skew", "markov-needs-interval-map",
            "skew-bins-7", "skew-bins-10", "skew-components-bins-10"])
    def test_bad_values_are_config_errors(self, tmp_path, argv):
        assert cli_main([*argv, "--out", str(tmp_path / "bad")]) == 2

    def test_partition_scale_failure_message(self, tmp_path, capsys):
        rc = cli_main(["markov", "--family", "doubling", "--depth", "1",
                       "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "n_cap=30" in err and "k_max" not in err

    def test_experiment_failure_exit_code(self, tmp_path):
        rc = cli_main(["census", "--n", "16", "--cap", "4",
                       "--out", str(tmp_path / "c3")])
        assert rc == 1

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(MINIMAL.replace("dir = out",
                                            f"dir = \"{tmp_path}/base\""))
        rc = cli_main(["ftle", "--config", str(cfg_file),
                       "--seed", "123", "--out", str(tmp_path / "c4")])
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "c4" / "manifest.json").read_text())
        assert manifest["rng"]["seed"] == 123

    def test_kind_mismatch_with_config(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(MINIMAL)
        rc = cli_main(["acim", "--config", str(cfg_file)])
        assert rc == 2

    def test_system_override(self, tmp_path):
        rc = cli_main(["acim", "--family", "quadratic",
                       "--system", "a=1.9", "--samples", "500",
                       "--n", "50", "--bins", "32",
                       "--out", str(tmp_path / "c5")])
        assert rc == 0
