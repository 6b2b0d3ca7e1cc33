import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmqkd
from dmqkd.cli import EXIT_MODEL, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, _build_parser, _load, main
from dmqkd.config import RunConfig, config_from_flat, config_to_text
from dmqkd.encoding import encode_symbol, parse_symbol_stream, symbol_token


def run(*argv):
    return main(list(argv))


class TestEncode:
    def test_writes_schedule_and_table(self, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text("Z0s Y1s Z0d\n")
        assert run("--out", str(tmp_path), "encode", str(stream)) == EXIT_OK
        out = capsys.readouterr().out
        assert "Z0d" in out
        text = (tmp_path / "schedule.txt").read_text()
        assert text.startswith("# timing ")
        assert len(text.splitlines()) == 1 + 18
        doc = json.loads((tmp_path / "schedule.json").read_text())
        assert len(doc["events"]) == 18

    def test_rerun_is_byte_identical(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("Z0s Y1s\n")
        run("--out", str(tmp_path / "a"), "encode", str(stream))
        run("--out", str(tmp_path / "b"), "encode", str(stream))
        assert (tmp_path / "a" / "schedule.txt").read_bytes() == (
            tmp_path / "b" / "schedule.txt"
        ).read_bytes()

    def test_empty_stream_is_usage_error(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("# nothing\n")
        assert run("--out", str(tmp_path), "encode", str(stream)) == EXIT_USAGE

    def test_true_vacuum_encodes_with_pi_in_both_slots(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("omega = 0.0\n")
        stream = tmp_path / "stream.txt"
        stream.write_text("Z0v Z1v Z0s\n")
        code = run("--config", str(cfg), "--out", str(tmp_path), "encode", str(stream))
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:4] == ["Z0v 3.141592653589793 3.141592653589793",
                              "Z1v 3.141592653589793 3.141592653589793",
                              "Z0s 0.0 3.141592653589793"]

    def test_y_basis_decoy_rejected(self, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("Z0s Y0d\n")
        assert run("--out", str(tmp_path), "encode", str(stream)) == EXIT_USAGE

    def test_missing_file(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "encode", str(tmp_path / "no.txt")) == EXIT_USAGE
        assert f"cannot read symbol stream {tmp_path / 'no.txt'}" in capsys.readouterr().err

    def test_table_matches_a_per_symbol_loop(self, tmp_path, capsys):
        tokens = ["Z0s", "Z1s", "Z0d", "Z1d", "Z0v", "Z1v", "Y0s", "Y1s"]
        rng = random.Random(4)
        stream = tmp_path / "stream.txt"
        stream.write_text(" ".join(rng.choice(tokens) for _ in range(4096)) + "\n")
        assert run("--out", str(tmp_path), "encode", str(stream)) == EXIT_OK
        table = RunConfig().decoy_table()
        expected = ["symbol phi12_rad phi23_rad"]
        for sym in parse_symbol_stream(stream.read_text()):
            pair = encode_symbol(sym, table)
            expected.append(f"{symbol_token(sym)} {float(pair.phi12)!r} {float(pair.phi23)!r}")
        expected.append(f"wrote {tmp_path / 'schedule.txt'} and schedule.json (4096 symbols)")
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_event_times_that_overflow_are_usage_error(self, tmp_path, capsys):
        # Symbols 18 and 19 of a 1e307 s period start past the largest float.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("master_rate_hz = 1e-307\nmaster_on_time_s = 1e307\n"
                       "slave_on_time_s = 1e306\nperturbation_width_s = 1e306\n")
        stream = tmp_path / "stream.txt"
        stream.write_text("Z0s " * 20 + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("--config", str(cfg), "--out", str(out), "encode", str(stream))
        assert code == EXIT_USAGE and caught == []
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_stream_is_usage_error(self, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_bytes(b"Z0s \xff\xfe Y1s\n")
        assert run("--out", str(tmp_path), "encode", str(stream)) == EXIT_USAGE
        assert str(stream) in capsys.readouterr().err


class TestSweep:
    def test_default_range(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "sweep") == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 61
        out = capsys.readouterr().out
        assert "cutoff loss" in out and "r_bps at 15 dB" in out

    def test_csv_at_0_01_db_matches_the_golden_digest(self, tmp_path):
        # The digest that tests/test_decoy.py::test_golden_sweep_csv pins.
        assert run("--out", str(tmp_path), "--loss-step", "0.01", "sweep") == EXIT_OK
        assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
            "261d5dc97fe6878164fe0aace5dc8575865aaf4e84dcb87bb02247b3b6daa6be"
        )

    def test_single_point(self, tmp_path):
        assert run(
            "--out", str(tmp_path), "--loss-min", "15", "--loss-max", "15", "sweep"
        ) == EXIT_OK
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2

    def test_zero_step_is_usage_error(self, tmp_path):
        assert run("--out", str(tmp_path), "--loss-step", "0", "sweep") == EXIT_USAGE

    def test_reversed_range_is_usage_error(self, tmp_path, capsys):
        assert run(
            "--out", str(tmp_path), "--loss-min", "70", "--loss-max", "10", "sweep"
        ) == EXIT_USAGE
        assert "min <= max" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_range_above_default_max(self, tmp_path):
        assert run(
            "--out", str(tmp_path), "--loss-min", "70", "--loss-max", "71", "sweep"
        ) == EXIT_OK
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 2

    def test_invalid_model_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dark_rate_hz = 1e9\n")
        base = ("--config", str(cfg), "--out", str(tmp_path))
        assert run(*base, "sweep") == EXIT_MODEL
        assert run(*base, "--frames", "20000", "mc") == EXIT_MODEL
        # Only the link models read Y0, so the config itself loads.
        assert run("--config", str(cfg), "write-defaults", str(tmp_path / "d.txt")) == EXIT_OK

    def test_linearized_gain_above_one_is_model_error(self, tmp_path, capsys):
        # At 0 dB a mu = 40 pulse clicks with probability 1 - 7e-13, and the
        # linearized dark counts lift Q above 1.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mu = 40\nnu = 1\nomega = 0\nloss_db = 0\n")
        base = ("--config", str(cfg), "--out", str(tmp_path))
        assert run(*base, "sweep") == EXIT_MODEL
        assert run(*base, "--frames", "20000", "mc") == EXIT_MODEL
        assert capsys.readouterr().err.count("exceeds 1") == 2

    @pytest.mark.parametrize("text", ["mu = 800\n", "mu = inf\nnu = 5e8\n"])
    def test_intensity_whose_exp_overflows_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        base = ("--config", str(cfg), "--out", str(tmp_path))
        assert run(*base, "--frames", "20000", "mc") == EXIT_USAGE
        assert "ln(DBL_MAX)" in capsys.readouterr().err
        assert not (tmp_path / "mc_report.json").exists()

    def test_intensities_whose_y1_denominator_rounds_to_zero_fail_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mu = 0.6024124315095266\nnu = 0.29027758371436535\n"
                       "omega = 0.2902775837143647\n")
        base = ("--config", str(cfg), "--out", str(tmp_path / "out"))
        assert run(*base, "sweep") == EXIT_USAGE
        assert run(*base, "--frames", "20000", "mc") == EXIT_USAGE
        assert run(*base, "write-defaults", str(tmp_path / "d.txt")) == EXIT_USAGE
        assert capsys.readouterr().err.count("Y1 bound denominator") == 3
        assert not (tmp_path / "out").exists() and not (tmp_path / "d.txt").exists()

    def test_sweep_whose_last_point_overflows_fails_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sweep_max_db = 1.7976931348623157e308\n"
                       "sweep_step_db = 5.992310449541053e307\n")
        assert run("--config", str(cfg), "--out", str(tmp_path / "out"), "sweep") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "has a last point" in err and "overflows to inf" in err
        assert "loss_db" not in err
        assert not (tmp_path / "out").exists()

    def test_perturbation_width_of_a_slave_period_is_usage_error(self, tmp_path, capsys):
        # The default slave period is 1 / (3 * master_rate) = 500 ps.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("perturbation_width_s = 5e-10\n")
        assert run("--config", str(cfg), "--out", str(tmp_path / "out"), "sweep") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "perturbation_width must be shorter than the slave period" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [("--loss-step", "1e-300"), ("--loss-max", "1e308", "--loss-step", "1")],
    )
    def test_too_many_points_is_usage_error(self, tmp_path, capsys, argv):
        assert run("--out", str(tmp_path), *argv, "sweep") == EXIT_USAGE
        assert "more than 1000000 points" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestMc:
    def test_report_and_determinism(self, tmp_path):
        assert run("--out", str(tmp_path / "a"), "--frames", "20000", "mc") == EXIT_OK
        assert run("--out", str(tmp_path / "b"), "--frames", "20000", "mc") == EXIT_OK
        assert (tmp_path / "a" / "tallies.csv").read_bytes() == (
            tmp_path / "b" / "tallies.csv"
        ).read_bytes()
        report = json.loads((tmp_path / "a" / "mc_report.json").read_text())
        assert report["n_frames"] == 20000
        assert len(report["rows"]) == 4
        assert set(report["bounds_analytic"]) == {"y0_l", "y1_l", "e1_u"}

    def test_seed_changes_output(self, tmp_path):
        run("--out", str(tmp_path / "a"), "--frames", "20000", "--seed", "1", "mc")
        run("--out", str(tmp_path / "b"), "--frames", "20000", "--seed", "2", "mc")
        assert (tmp_path / "a" / "tallies.csv").read_bytes() != (
            tmp_path / "b" / "tallies.csv"
        ).read_bytes()

    def test_too_few_frames(self, tmp_path):
        assert run("--out", str(tmp_path), "--frames", "100", "mc") == EXIT_USAGE

    @pytest.mark.parametrize("command", ["sweep", "verify", "write-defaults"])
    @pytest.mark.parametrize("frames", ["9999", "0", "-5"])
    def test_too_few_frames_fail_every_command(self, tmp_path, capsys, command, frames):
        assert run("--out", str(tmp_path), "--frames", frames, command) == EXIT_USAGE
        assert "MC frames" in capsys.readouterr().err
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"mc_frames = {frames}\n")
        assert run("--config", str(cfg), "--out", str(tmp_path), command) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == [cfg]

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "--frames", "20000", "--seed", "-1", "mc") == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "tallies.csv").exists()

    def test_too_many_frames_is_usage_error(self, tmp_path, capsys):
        argv = ("--out", str(tmp_path), "--frames", "100000000000000000000", "mc")
        assert run(*argv) == EXIT_USAGE
        assert "MC frames" in capsys.readouterr().err
        assert not (tmp_path / "tallies.csv").exists()

    def test_dead_channel_has_no_z_scores(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("det_efficiency = 0.0\ndark_rate_hz = 0.0\n")
        assert run("--config", str(cfg), "--out", str(tmp_path), "--frames", "20000", "mc") == EXIT_OK
        report = json.loads((tmp_path / "mc_report.json").read_text())
        for row in report["rows"]:
            assert row["sent"] > 0 and row["detected"] == 0
            assert row["q_delta_sigma"] is None and row["e_delta_sigma"] is None

    def test_z_scores_use_binomial_sigma(self, tmp_path):
        assert run("--out", str(tmp_path), "--frames", "200000", "mc") == EXIT_OK
        report = json.loads((tmp_path / "mc_report.json").read_text())
        for row in report["rows"]:
            q, e = row["q_analytic"], row["e_analytic"]
            sigma_q = math.sqrt(q * (1.0 - q) / row["sent"])
            assert row["q_delta_sigma"] == (row["q_empirical"] - q) / sigma_q
            assert abs(row["q_delta_sigma"]) < 6.0
            if row["detected"]:
                sigma_e = math.sqrt(e * (1.0 - e) / row["detected"])
                assert row["e_delta_sigma"] == (row["e_empirical"] - e) / sigma_e
                assert abs(row["e_delta_sigma"]) < 6.0
            else:
                assert row["e_delta_sigma"] is None
        # At 2e5 frames seed 0 sees no vacuum detection.
        assert [row["detected"] == 0 for row in report["rows"]] == [False, False, False, True]


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "verify") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 11 and "FAIL" not in out
        report = json.loads((tmp_path / "security_report.json").read_text())
        assert report["all_passed"] is True

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        assert run("--out", str(tmp_path), "--seed", "-1", "verify") == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "security_report.json").exists()

    def test_exit_codes_reserved_value(self):
        assert EXIT_PROPERTY == 2


class TestWriteDefaults:
    def test_stdout(self, capsys):
        assert run("write-defaults") == EXIT_OK
        assert capsys.readouterr().out == config_to_text(RunConfig())

    def test_file_round_trips_through_load(self, tmp_path):
        path = tmp_path / "defaults.txt"
        assert run("write-defaults", str(path)) == EXIT_OK
        assert run("--config", str(path), "--out", str(tmp_path),
                   "--loss-min", "15", "--loss-max", "15", "sweep") == EXIT_OK


# Run in a fresh interpreter: the CLI, a config round trip and every command
# that computes no arrays leave numpy and the thread helper dmqkd._fanout
# unimported; encode then imports numpy.
_NO_NUMPY_SCRIPT = """
import sys
from pathlib import Path
from dmqkd.cli import main
from dmqkd.config import RunConfig, config_to_text, load_config
tmp = Path(sys.argv[1])
(tmp / "cfg.txt").write_text(config_to_text(RunConfig()))
assert load_config(tmp / "cfg.txt") == RunConfig()
assert main(["write-defaults", str(tmp / "defaults.txt")]) == 0
assert main(["--out", str(tmp), "sweep"]) == 0
assert main(["--help"]) == 0
assert main(["--frames", "5", "mc"]) == 1
for name in ("numpy", "dataclasses", "inspect", "dmqkd._fanout"):
    assert name not in sys.modules, f"{name} imported"
(tmp / "stream.txt").write_text("Z0s Y1s Z0d Z1v")
assert main(["--out", str(tmp), "encode", str(tmp / "stream.txt")]) == 0
assert "numpy" in sys.modules
"""


class TestStartup:
    def test_commands_without_arrays_leave_numpy_unimported(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(dmqkd.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT, str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sweep.csv").exists() and (tmp_path / "schedule.txt").exists()


def load(*argv):
    """The RunConfig that main builds for argv."""
    return _load(_build_parser().parse_args([*argv, "sweep"]))


class TestFlags:
    @pytest.mark.parametrize(
        "flag,key,value,other",
        [
            ("--seed", "mc_seed", 42, 7),
            ("--frames", "mc_frames", 123456, 20000),
            ("--loss-min", "sweep_min_db", 5.5, 1.0),
            ("--loss-max", "sweep_max_db", 70.0, 30.0),
            ("--loss-step", "sweep_step_db", 0.25, 2.0),
        ],
    )
    def test_flag_is_its_config_key(self, tmp_path, flag, key, value, other):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {value!r}\n")
        from_flag = load(flag, str(value))
        assert from_flag == load("--config", str(cfg)) == config_from_flat({key: value})
        assert from_flag != RunConfig()
        # The flag overrides the file's value and keeps its other keys.
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({key: other, "loss_db": 20.0}))
        assert load("--config", str(other_cfg), flag, str(value)) == config_from_flat(
            {key: value, "loss_db": 20.0}
        )

    def test_no_flags_means_the_file(self, tmp_path):
        assert load() == RunConfig()
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("loss_db = 20.0\nmc_seed = 3\n")
        assert load("--config", str(cfg)) == config_from_flat({"loss_db": 20.0, "mc_seed": 3})


class TestUsage:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["sweep", "--help"],
                                      ["encode", "-h"], ["--seed", "1", "mc", "--help"]])
    def test_help_returns_zero(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: dmqkd")

    def test_bad_z_mix_fails_every_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("z_mix_signal = -1.0\nz_mix_decoy = nan\n")
        stream = tmp_path / "stream.txt"
        stream.write_text("Z0s Y1s\n")
        out = tmp_path / "out"
        for argv in (["sweep"], ["verify"], ["encode", str(stream)], ["mc"]):
            assert run("--config", str(cfg), "--out", str(out), *argv) == EXIT_USAGE
            assert "z_mix must be three nonnegative fractions" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_missing_subcommand(self):
        assert run() == EXIT_USAGE

    def test_unknown_flag(self):
        assert run("--bogus", "sweep") == EXIT_USAGE

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mystery = 1.0\n")
        assert run("--config", str(cfg), "sweep") == EXIT_USAGE

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"loss_db = 20\n# \xff\n")
        assert run("--config", str(cfg), "sweep") == EXIT_USAGE
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"mu": ' + "9" * 5000 + "}", "[" * 100_000],
                             ids=["long_integer", "deep_nesting"])
    def test_json_the_decoder_cannot_hold_is_usage_error(self, tmp_path, capsys, text):
        # json raises ValueError for an integer past Python's 4,300-digit
        # limit and RecursionError for nesting past the recursion limit.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run("--config", str(cfg), "sweep") == EXIT_USAGE
        assert "bad JSON" in capsys.readouterr().err

    def test_wrong_config_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mc_frames": 20000.9}')
        assert run("--config", str(cfg), "mc") == EXIT_USAGE
        assert "mc_frames" in capsys.readouterr().err


# The keys write-defaults writes, less the sweep range and the MC run, which
# the property sets by flags.
_PHYSICAL_KEYS = [line.split(" = ")[0] for line in config_to_text(RunConfig()).splitlines()[1:]
                  if not line.startswith(("sweep_", "mc_"))]
_EXTREMES = [0.0, 1.0, -1.0, 0.5, 2.0, 40.0, 709.8, 800.0, 1e300, 1e-300, 1e6, 5e8,
             math.nan, math.inf, -math.inf, 1 + 1e-7, 1 - 1e-7]


class TestExtremeConfigs:
    @settings(max_examples=100, deadline=None)
    @given(values=st.dictionaries(st.sampled_from(_PHYSICAL_KEYS), st.sampled_from(_EXTREMES),
                                  min_size=1, max_size=3),
           loss_max=st.floats(0.0, 200.0), loss_step=st.floats(0.5, 10.0))
    def test_every_config_ends_in_an_exit_code(self, tmp_path_factory, values, loss_max,
                                               loss_step):
        out = tmp_path_factory.mktemp("extreme")
        cfg = out / "cfg.txt"
        cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
        base = ("--config", str(cfg), "--out", str(out))
        assert run(*base, "--loss-max", repr(loss_max), "--loss-step", repr(loss_step),
                   "sweep") in range(4)
        assert run(*base, "--frames", "10000", "mc") in range(4)
        stream = out / "stream.txt"
        stream.write_text("Z0s Y1s Z0d Z1v\n")
        assert run(*base, "encode", str(stream)) in range(4)


# Keys and values for config files of any shape. The sweep_* keys are left out
# so that every drawn file runs the default 61-point sweep or fails fast.
_FUZZ_KEYS = _PHYSICAL_KEYS + ["mc_frames", "mc_seed", "mystery", ""]
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["null", "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "true", '"0.4"',
                     "{}", '{"mu": 0.4}', "[]", "[0.4]", "0", "-1", "0.5", "1e-300", "1e300"]),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["9" * 20, "9" * 400, "9" * 4301, "-" + "9" * 5000]))
_NON_OBJECTS = ["[]", "null", "0.4", '"mu"', "[" * 5000, ""]


@st.composite
def _config_files(draw):
    """(suffix, bytes) of a .json or key-value config file: duplicate and
    unknown keys, non-numbers, huge integers, a top-level non-object, and
    sometimes a byte that is not UTF-8."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES), max_size=4))
    suffix = draw(st.sampled_from([".json", ".txt"]))
    if suffix == ".txt":
        text = "".join(f"{key} = {value}\n" for key, value in pairs)
    elif draw(st.booleans()):
        text = "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}"
    else:
        text = draw(st.sampled_from(_NON_OBJECTS))
    data = text.encode()
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"])) + data[cut:]
    return suffix, data


class TestConfigBytes:
    @settings(max_examples=100, deadline=None)
    @given(file=_config_files())
    def test_every_config_file_ends_in_an_exit_code(self, tmp_path_factory, file):
        suffix, data = file
        out = tmp_path_factory.mktemp("bytes")
        cfg = out / f"cfg{suffix}"
        cfg.write_bytes(data)
        assert run("--config", str(cfg), "--out", str(out), "sweep") in range(4)


# Flags and the values drawn for them. "{cfg}", "{stream}", "{defaults}" and
# "{missing}" stand for files in the example's directory.
_ARGV_FLAGS = {
    "--frames": ["0", "1", "10000", "100000", "-1", "1e5", "nan"],
    "--seed": ["0", "-1", str(2**63 - 1), str(-(2**63)), str(2**63), str(2**64), "x"],
    "--loss-min": ["0", "10", "-1", "nan", "1e308"],
    "--loss-max": ["5", "60", "inf", "-0.0"],
    "--loss-step": ["0.5", "2", "0", "1e-300", "-inf"],
    "--config": ["{cfg}", "{cfg}", "{missing}", "{stream}"],
    "--no-such-flag": ["1"],
    "-z": [],
}
_ARGV_COMMANDS = {
    "encode": ["{stream}", "{missing}"],
    "sweep": [],
    "mc": [],
    "verify": [],
    "write-defaults": ["{defaults}"],
    "decode": [],
}


@st.composite
def _argvs(draw):
    """Flags (known and unknown, values missing, repeated or stray), then
    maybe a subcommand with or without its argument, then maybe more flags;
    sometimes --help or -h at any position."""

    def flags(most):
        argv = []
        for _ in range(draw(st.integers(0, most))):
            flag = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
            values = _ARGV_FLAGS[flag]
            argv.append(flag)
            # Mostly one value; sometimes none, or a second one.
            if values:
                argv += [draw(st.sampled_from(values))
                         for _ in range(draw(st.sampled_from([1, 1, 1, 1, 0, 2])))]
        return argv

    argv = flags(3)
    command = draw(st.sampled_from(sorted(_ARGV_COMMANDS) + [None]))
    if command is not None:
        argv.append(command)
        if _ARGV_COMMANDS[command]:
            argv += draw(st.lists(st.sampled_from(_ARGV_COMMANDS[command]), max_size=1))
    argv += flags(1) if draw(st.integers(0, 3)) == 0 else []
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--help", "-h"])))
    return argv


class TestArgv:
    @settings(max_examples=200, deadline=None)
    @given(argv=_argvs())
    def test_every_argv_ends_in_an_exit_code(self, tmp_path_factory, argv):
        out = tmp_path_factory.mktemp("argv")
        paths = {"cfg": out / "cfg.txt", "stream": out / "stream.txt",
                 "defaults": out / "defaults.txt", "missing": out / "missing.txt"}
        # The only drawn config that loads is this one, and every drawn
        # --frames is at most 10^5 too.
        paths["cfg"].write_text("mc_frames = 100000\n")
        paths["stream"].write_text("Z0s Y1s Z0d Z1v\n")
        argv = ["--config", str(paths["cfg"]), "--out", str(out)] + [
            arg.format(**paths) for arg in argv
        ]
        # A stray value can be taken as a file to write; keep it in `out`.
        cwd = os.getcwd()
        os.chdir(out)
        try:
            assert main(argv) in range(4)
        finally:
            os.chdir(cwd)
