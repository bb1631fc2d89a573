import hashlib
import json

import pytest

from fiberdyn import (CapExceeded, HitCritical, ParseError, ValidationError,
                      expansion)
from fiberdyn.experiments import (ExperimentConfig, parse_config,
                                  run_experiment, serialize_config)
from fiberdyn.experiments.cli import main as cli_main
from fiberdyn.experiments.config import validate_config

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

# a viana ftle run that finishes at once even if a bad value slips through
TINY_VIANA_FTLE = ["ftle", "--family", "viana", "--n", "10", "--samples", "1"]

VIANA_D_16_7 = """
[system]
family = viana
d = 16.7

[experiment]
kind = ftle
n = 10
samples = 1
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

    @pytest.mark.parametrize("text, message", [
        ("[experiment]\nn =\n", "missing value"),
        ('[output]\ndir = "out\n', "unterminated string"),
        ("[experiment]\nn = a b\n", "cannot parse value 'a b'"),
        ("[system\n", "unterminated section header"),
        ("[ ]\n", "empty section name"),
        ("[system]\n= logistic\n", "empty key"),
    ])
    def test_malformed_line_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_config(text)
        assert exc.value.line == text.count("\n")

    @pytest.mark.parametrize("text, field, message", [
        ("[system]\nfamily = bogus\n", "system.family", "unknown family"),
        ("[experiment]\nkind = ftle\n", "system.family", "required"),
        ("[system]\nfamily = logistic\n", "experiment.kind", "required"),
        (MINIMAL.replace("seed = 1", "seed = 1.5"), "output.seed",
         "expected an integer"),
        (MINIMAL.replace("dir = out", "dir = 5"), "output.dir",
         "expected a string"),
        (MINIMAL + "color = red\n", "output.color", "unknown key"),
    ])
    def test_invalid_field_is_a_validation_error(self, text, field, message):
        with pytest.raises(ValidationError, match=f"^{field}: {message}"):
            parse_config(text)

    @pytest.mark.parametrize("kind, key, value", [
        ("acim", "samples", 10**300), ("components", "probes", 10**300),
        ("markov", "depth", 10**300), ("probe", "k", 10**300),
        ("ftle", "n", 10**300), ("census", "cap", 10**300),
        ("census", "cap", 2**63), ("probe", "k", -2**63 - 1)],
        ids=lambda v: v if isinstance(v, str) else f"{v:.3g}")
    def test_int_keys_past_64_bits_are_validation_errors(self, kind, key,
                                                         value):
        with pytest.raises(ValidationError, match=f"^experiment.{key}: "
                           "expected an integer in the signed 64-bit range"):
            validate_config({"system": {"family": "logistic"},
                             "experiment": {"kind": kind, key: value}})

    def test_int_keys_at_the_64_bit_bounds_validate(self):
        cfg = validate_config({"system": {"family": "logistic"},
                               "experiment": {"kind": "census",
                                              "cap": 2**63 - 1}})
        assert cfg.param("cap") == 2**63 - 1

    def test_float_key_int_literal_past_the_float_range(self):
        huge = "1" + "0" * 400
        with pytest.raises(ValidationError,
                           match="^experiment.delta: expected a finite"):
            parse_config("[system]\nfamily = logistic\n"
                         f"[experiment]\nkind = census\ndelta = {huge}\n")

    def test_int_literal_of_a_float_key_reads_as_float(self):
        cfg = parse_config("[system]\nfamily = logistic\n"
                           "[experiment]\nkind = census\ndelta = 1\n")
        assert type(cfg.param("delta")) is float and cfg.param("delta") == 1.0

    @pytest.mark.parametrize("old, new, field", [
        ("samples = 3", "samples = true", "experiment.samples"),
        ("n = 1000", "n = false", "experiment.n"),
    ])
    def test_bool_literal_is_a_config_error(self, tmp_path, capsys, old, new,
                                            field):
        # no key takes a bool: true/false read as bare strings and are
        # rejected by the key's type
        assert old in MINIMAL
        cfg_file = tmp_path / "bool.cfg"
        cfg_file.write_text(MINIMAL.replace(old, new))
        rc = cli_main(["ftle", "--config", str(cfg_file),
                       "--out", str(tmp_path / "b")])
        assert rc == 2
        assert field in capsys.readouterr().err

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

    def test_kernel_error_writes_nan_row(self, tmp_path, monkeypatch):
        # a sample whose kernel raises a FiberdynError reads nan, and the
        # run goes on
        calls = []

        def kernel(seq, x, n):
            calls.append(x)
            if len(calls) == 2:
                raise HitCritical(17)
            return real(seq, x, n)

        real = expansion.ftle_fiber
        monkeypatch.setattr(expansion, "ftle_fiber", kernel)
        rc = cli_main(["ftle", "--n", "500", "--samples", "3",
                       "--out", str(tmp_path / "f")])
        assert rc == 0 and len(calls) == 3
        rows = (tmp_path / "f" / "ftle.csv").read_text().splitlines()[1:]
        ftle = [r.rsplit(",", 1)[1] for r in rows]
        assert ftle[1] == "nan" and "nan" not in (ftle[0], ftle[2])

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
        ["ftle", "--config", "VIANA_D_16_7"],
        [*TINY_VIANA_FTLE, "--system", "d=16.7"],
        [*TINY_VIANA_FTLE, "--system", "a0=abc"],
        [*TINY_VIANA_FTLE, "--system", "d=nan"],
        [*TINY_VIANA_FTLE, "--system", "a0"],
        ["acim", "--family", "affine", "--system", "slope=nan",
         "--samples", "100", "--n", "10"],
        ["branch", "--family", "logistic", "--x", "1.5"],
        ["branch", "--family", "logistic", "--x", "0.0"],
        ["pliss", "--family", "viana", "--x", "nan"],
        ["probe", "--family", "viana", "--k", "0", "--x", "nan"],
        ["probe", "--family", "viana", "--k", "0", "--x", "5.0"],
        ["probe", "--family", "viana", "--k", "0", "--x", "inf"],
    ], ids=["infinite-delta", "inverted-delta-grid", "non-integer-depths",
            "family-parameter-out-of-range", "curve-needs-skew",
            "probe-needs-skew", "markov-needs-interval-map",
            "skew-bins-7", "skew-bins-10", "skew-components-bins-10",
            "config-fractional-degree", "fractional-degree",
            "non-numeric-system-value", "nan-degree",
            "system-item-without-equals", "nan-slope",
            "branch-anchor-outside", "branch-anchor-at-endpoint",
            "pliss-nan-anchor", "probe-nan-anchor", "probe-anchor-outside",
            "probe-infinite-anchor"])
    def test_bad_values_are_config_errors(self, tmp_path, argv):
        cfg_file = tmp_path / "viana_d.cfg"
        cfg_file.write_text(VIANA_D_16_7)
        argv = [str(cfg_file) if a == "VIANA_D_16_7" else a for a in argv]
        assert cli_main([*argv, "--out", str(tmp_path / "bad")]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["markov", "--family", "viana"],
         "markov experiments need an IntervalMap; 'viana' is a SkewProduct"),
        (["curve", "--family", "logistic"],
         "curve experiments need a SkewProduct; 'logistic' is an "
         "IntervalMap"),
    ], ids=["markov-on-skew", "curve-on-interval-map"])
    def test_kind_mismatch_names_both_types(self, tmp_path, capsys, argv,
                                            message):
        assert cli_main([*argv, "--out", str(tmp_path / "k")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--c1", "0.2", "--c2", "0.1"], "experiment.c1"),
        (["--c1", "0.1", "--c2", "0.1"], "experiment.c1"),
        (["--c2", "2.0"], "experiment.c2"),
    ], ids=["c1-above-c2", "c1-equals-c2", "c2-above-domain-length"])
    def test_pliss_constants_are_config_errors(self, tmp_path, capsys, argv,
                                               field):
        # logistic: the domain [0, 1] has length A = 1, and Pliss needs
        # c1 < c2 <= A
        rc = cli_main(["pliss", "--family", "logistic", *argv,
                       "--out", str(tmp_path / "p")])
        assert rc == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("spelling, field", [
        ("flag", "experiment.n"), ("system", "system.a"),
        ("file", "system.a")])
    def test_ints_past_the_float_range_are_config_errors(
            self, tmp_path, capsys, spelling, field):
        huge = "1" + "0" * 400
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(f'[system]\nfamily = "quadratic"\na = {huge}\n')
        argv = {"flag": ["--n", huge],
                "system": ["--family", "quadratic", "--system", f"a={huge}"],
                "file": ["--config", str(cfg_file)]}[spelling]
        rc = cli_main(["ftle", *argv, "--samples", "1",
                       "--out", str(tmp_path / "h")])
        assert rc == 2
        assert f"{field}: expected a finite number" in capsys.readouterr().err

    def test_int_flag_past_64_bits_is_a_config_error(self, tmp_path, capsys):
        rc = cli_main(["acim", "--samples", "1" + "0" * 300,
                       "--out", str(tmp_path / "a")])
        assert rc == 2
        assert "experiment.samples: expected an integer in the signed " \
            "64-bit range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--n-values", "5 5"], "experiment.n_values"),
        (["--n-values", "30 5 05"], "experiment.n_values"),
        (["--delta-min", "0.1", "--delta-max", "0.1", "--delta-count", "3"],
         "experiment.delta_count"),
    ], ids=["repeated-depth", "repeated-depth-spelled-apart",
            "one-threshold-counted-thrice"])
    def test_ay_decay_duplicate_rows_are_config_errors(self, tmp_path, capsys,
                                                       argv, field):
        rc = cli_main(["ay_decay", "--samples", "1000", *argv,
                       "--out", str(tmp_path / "d")])
        assert rc == 2
        assert field in capsys.readouterr().err

    def test_ay_decay_single_threshold_runs(self, tmp_path):
        rc = cli_main(["ay_decay", "--samples", "1000", "--n-values", "5",
                       "--delta-min", "0.1", "--delta-max", "0.1",
                       "--delta-count", "1", "--out", str(tmp_path / "d")])
        assert rc == 0
        assert len((tmp_path / "d" / "decay.csv").read_text().splitlines()) \
            == 2

    def test_integral_degree_keeps_int_label(self, tmp_path):
        rc = cli_main([*TINY_VIANA_FTLE, "--system", "d=16.0",
                       "--out", str(tmp_path / "d")])
        assert rc == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert "d = 16\n" in manifest["config"]

    def test_integral_degree_in_a_file_keeps_int_label(self, tmp_path):
        cfg_file = tmp_path / "d.cfg"
        cfg_file.write_text("[system]\nfamily = viana\nd = 16.0\n")
        rc = cli_main(["ftle", "--config", str(cfg_file), "--n", "10",
                       "--samples", "1", "--out", str(tmp_path / "d")])
        assert rc == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert "d = 16\n" in manifest["config"]

    def test_family_value_spellings_write_equal_bytes(self, tmp_path):
        # a = 2 in a file and --system a=2 are both the float 2.0
        cfg_file = tmp_path / "a2.cfg"
        cfg_file.write_text("[system]\nfamily = quadratic\na = 2\n")
        argv = ["acim", "--samples", "200", "--n", "20", "--bins", "16"]
        digests = []
        for sub, spelling in (("file", ["--config", str(cfg_file)]),
                              ("flag", ["--family", "quadratic",
                                        "--system", "a=2"])):
            out = tmp_path / sub
            assert cli_main([*argv, *spelling, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append({e["name"]: e["sha256"]
                            for e in manifest["outputs"]})
        assert "measure_meta.json" in digests[0]
        assert digests[0] == digests[1]

    def test_config_file_supplies_defaults_only(self, tmp_path):
        # the file may leave out family and kind, and a value that a flag
        # replaces is never validated
        cfg_file = tmp_path / "partial.cfg"
        cfg_file.write_text("[experiment]\nn = -5\nsamples = 2\n"
                            "[output]\nseed = 1.5\n")
        out = tmp_path / "p"
        rc = cli_main(["ftle", "--config", str(cfg_file), "--n", "100",
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "family = logistic\n" in manifest["config"]
        assert "samples = 2\n" in manifest["config"]

    def test_partition_scale_failure_message(self, tmp_path, capsys):
        rc = cli_main(["markov", "--family", "doubling", "--depth", "1",
                       "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "n_cap=30" in err and "k_max" not in err

    @pytest.mark.parametrize("seed", [3, 5])
    def test_twowell_markov_closure_diverges(self, tmp_path, seed):
        # the orbit of the connector's critical point 0.4944 meets no
        # partition endpoint within 64 steps; no random draw comes first
        out = tmp_path / f"tw{seed}"
        rc = cli_main(["markov", "--family", "twowell", "--depth", "1",
                       "--seeds", "50", "--seed", str(seed),
                       "--out", str(out)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith("ClosureDiverges")

    def test_markov_without_branches_fails_on_coverage(self, tmp_path):
        # k_max = 1 is below the partition scale, so no branch is found
        out = tmp_path / "nb"
        rc = cli_main(["markov", "--k-max", "1", "--seeds", "50",
                       "--out", str(out)])
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].endswith(
            "branches cover only 0.000 of the domain")
        # the data files are written only once the kind has returned
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert manifest["outputs"] == []

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

    def test_system_override_does_not_leak_into_next_call(self, tmp_path):
        # the parser is built once per process; a --system item of one call
        # must not stay in the default list the next call starts from
        rc = cli_main([*TINY_VIANA_FTLE, "--system", "a0=1.6",
                       "--out", str(tmp_path / "a")])
        assert rc == 0
        first = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert "a0 = 1.6\n" in first["config"]
        rc = cli_main([*TINY_VIANA_FTLE, "--out", str(tmp_path / "b")])
        assert rc == 0
        second = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert "a0" not in second["config"]
