import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmqkd.config import (
    MAX_MC_FRAMES,
    MIN_MC_FRAMES,
    McSpec,
    RunConfig,
    SweepSpec,
    config_from_flat,
    config_from_text,
    config_to_flat,
    config_to_text,
    load_config,
)
from dmqkd.decoy import MAX_SWEEP_POINTS
from dmqkd.encoding import TimingParams
from dmqkd.errors import ConfigurationError
from dmqkd.linksim import DecoyIntensities, LinkParams, simulate_frames_mc
from dmqkd.secprops import run_verification


class TestFlatRoundTrip:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert config_from_flat(config_to_flat(cfg)) == cfg

    def test_text_round_trip(self):
        cfg = RunConfig()
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_partial_flat_uses_defaults(self):
        cfg = config_from_flat({"loss_db": 30.0})
        assert cfg.link.loss_db == 30.0
        assert cfg.intensities.mu == 0.4

    @pytest.mark.parametrize(
        "flat",
        [
            {"mc_seed": -1},
            {"sweep_min_db": 70.0},
            {"sweep_max_db": float("nan")},
            {"sweep_step_db": 0.0},
        ],
    )
    def test_invalid_specs_rejected(self, flat):
        with pytest.raises(ConfigurationError):
            config_from_flat(flat)

    def test_negative_seed_in_text_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            config_from_text("mc_seed = -3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_flat({"loss": 30.0})

    def test_clock_follows_master_rate(self):
        cfg = config_from_flat({"master_rate_hz": 5e8, "master_on_time_s": 1.8e-9})
        assert cfg.link.clock == cfg.timing.master_rate == 5e8
        assert cfg.timing.slave_rate == 1.5e9

    def test_clock_must_equal_master_rate(self):
        with pytest.raises(ConfigurationError, match="clock"):
            RunConfig(timing=TimingParams(master_rate=5e8, master_on_time=1.8e-9))

    def test_intensities_whose_y1_denominator_rounds_to_zero_rejected(self):
        # mu > nu > omega and nu + omega < mu hold, but the rounded
        # mu*nu - mu*omega - nu*nu + omega*omega is 0.0.
        flat = {"mu": 0.6024124315095266, "nu": 0.29027758371436535, "omega": 0.2902775837143647}
        assert flat["nu"] + flat["omega"] < flat["mu"]
        with pytest.raises(ConfigurationError, match=r"denominator .* must be > 0, got 0\.0"):
            config_from_flat(flat)

    @pytest.mark.parametrize(
        "key", ["slave_rate_hz", "amzi_delay_s", "perturbation_separation_s"]
    )
    def test_removed_keys_rejected(self, key):
        with pytest.raises(ConfigurationError, match=key):
            config_from_flat({key: 1e-10})
        with pytest.raises(ConfigurationError, match=key):
            config_from_text(f"{key} = 1e-10\n")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("mc_seed", 2.7),
            ("mc_seed", -0.5),
            ("mc_seed", True),
            ("mc_frames", 20000.9),
            ("mc_frames", 1e6),
            ("mu", True),
            ("nu", "0.16"),
            ("loss_db", None),
            ("v_pi", [0.8]),
            ("loss_db", 10**400),
        ],
    )
    def test_wrong_types_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            config_from_flat({key: value})

    def test_ints_accepted_for_float_keys(self):
        cfg = config_from_flat({"loss_db": 30, "mc_frames": 20000})
        assert cfg.link.loss_db == 30.0 and type(cfg.link.loss_db) is float
        assert cfg.mc.n_frames == 20000

    def test_decoy_table(self):
        table = RunConfig().decoy_table()
        assert table["signal"] == 1.0
        assert table["decoy"] == pytest.approx(0.4)
        assert table["vacuum"] == pytest.approx(0.0375)


class TestTextFormat:
    def test_comments_and_blank_lines_ignored(self):
        cfg = config_from_text("# hello\n\nloss_db = 20.0  # tail\n")
        assert cfg.link.loss_db == 20.0

    def test_error_reports_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            config_from_text("loss_db = 10.0\nnot a pair\n")
        with pytest.raises(ConfigurationError, match="line 1"):
            config_from_text("loss_db = ten\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigurationError, match="line 3: repeated .* 'loss_db'"):
            config_from_text("loss_db = 10\nmu = 0.4\nloss_db = 20\n")


class TestLoadConfig:
    def test_text_file(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(config_to_text(RunConfig()))
        assert load_config(path) == RunConfig()

    @pytest.mark.parametrize("name", ["run.json", "run.JSON", "run.Json"])
    def test_json_file(self, tmp_path, name):
        cfg = RunConfig(mc=McSpec(seed=7))
        path = tmp_path / name
        path.write_text(json.dumps(config_to_flat(cfg)))
        assert load_config(path) == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.txt")

    def test_repeated_json_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"loss_db": 10, "loss_db": 20}')
        with pytest.raises(ConfigurationError, match="'loss_db' appears twice"):
            load_config(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_config(path)


@st.composite
def valid_flats(draw):
    """Flat configurations that every section accepts."""
    unit = st.floats(0.0, 1.0)
    rate = draw(st.floats(1e8, 2e9 / 3.0))
    period = 1.0 / rate
    sweep_min = draw(st.floats(0.0, 50.0))
    return {
        "loss_db": draw(st.floats(0.0, 100.0)),
        "det_efficiency": draw(unit),
        "dark_rate_hz": draw(st.floats(0.0, 1e4)),
        "window_s": draw(st.floats(0.0, 1e-9)),
        "p_y_alice": draw(unit),
        "p_y_bob": draw(unit),
        "e_det": draw(unit),
        "f_ec": draw(st.floats(1.0, 2.0)),
        "y_receiver_factor": draw(unit),
        "mu": draw(st.floats(0.3, 1.0)),
        "nu": draw(st.floats(0.06, 0.2)),
        "omega": draw(st.floats(0.0, 0.05)),
        "master_rate_hz": rate,
        "perturbation_width_s": period / 3.0 * draw(st.floats(0.01, 0.99)),
        "master_on_time_s": period * draw(st.floats(0.9, 1.0)),
        "slave_on_time_s": period / 3.0 * draw(st.floats(0.01, 0.2)),
        "v_pi": draw(st.floats(0.1, 5.0)),
        "z_mix_signal": draw(st.floats(0.0, 1.0, exclude_min=True)),  # a positive total
        "z_mix_decoy": draw(unit),
        "z_mix_vacuum": draw(unit),
        "sweep_min_db": sweep_min,
        "sweep_max_db": sweep_min + draw(st.floats(0.0, 50.0)),
        "sweep_step_db": draw(st.floats(1e-3, 10.0)),
        "mc_frames": draw(st.integers(MIN_MC_FRAMES, 10**9)),
        "mc_seed": draw(st.integers(0, 2**63)),
    }


class TestRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(flat=valid_flats())
    def test_text_and_json_round_trip(self, flat, tmp_path_factory):
        cfg = config_from_flat(flat)
        assert config_to_flat(cfg) == flat
        assert config_from_text(config_to_text(cfg)) == cfg
        path = tmp_path_factory.mktemp("cfg") / "run.json"
        path.write_text(json.dumps(config_to_flat(cfg)))
        assert load_config(path) == cfg


def with_flat(cfg, **flat):
    """cfg with the given config keys merged over it, as the CLI merges flags."""
    return config_from_flat({**config_to_flat(cfg), **flat})


class TestOverrides:
    def test_seed_and_frames(self):
        cfg = with_flat(RunConfig(), mc_seed=42, mc_frames=123456)
        assert cfg.mc.seed == 42
        assert cfg.mc.n_frames == 123456

    def test_sweep_range(self):
        cfg = with_flat(RunConfig(), sweep_min_db=5.0, sweep_max_db=25.0, sweep_step_db=0.5)
        assert (cfg.sweep.loss_min_db, cfg.sweep.loss_max_db, cfg.sweep.loss_step_db) == (
            5.0, 25.0, 0.5,
        )

    def test_bad_step(self):
        with pytest.raises(ConfigurationError):
            with_flat(RunConfig(), sweep_step_db=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mc_seed": -1},
            {"sweep_min_db": 70.0, "sweep_max_db": 10.0},
            {"sweep_min_db": 61.0},
            {"sweep_max_db": float("inf")},
        ],
    )
    def test_invalid_overrides_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            with_flat(RunConfig(), **overrides)

    def test_sweep_point_cap(self):
        # 0..999,999 dB in 1 dB steps is exactly MAX_SWEEP_POINTS points.
        SweepSpec(0.0, MAX_SWEEP_POINTS - 1.0, 1.0)
        for lo, hi, step in ((0.0, float(MAX_SWEEP_POINTS), 1.0), (0.0, 60.0, 5e-324),
                             (0.0, 1.7e308, 1e-300)):
            with pytest.raises(ConfigurationError, match="points"):
                SweepSpec(lo, hi, step)

    def test_sweep_whose_last_point_overflows_rejected(self):
        flat = {"sweep_max_db": 1.7976931348623157e308, "sweep_step_db": 5.992310449541053e307}
        with pytest.raises(ConfigurationError, match="last point, .* overflows to inf"):
            config_from_flat(flat)
        with pytest.raises(ConfigurationError, match="overflows to inf"):
            SweepSpec(0.0, flat["sweep_max_db"], flat["sweep_step_db"])

    def test_frame_cap(self):
        McSpec(n_frames=MIN_MC_FRAMES)
        McSpec(n_frames=MAX_MC_FRAMES)
        for n in (MIN_MC_FRAMES - 1, 0, -5, MAX_MC_FRAMES + 1, 10**20):
            with pytest.raises(ConfigurationError, match="MC frames"):
                McSpec(n_frames=n)
        with pytest.raises(ConfigurationError, match="MC frames"):
            with_flat(RunConfig(), mc_frames=10**20)

    @pytest.mark.parametrize(
        "kw", [{"n_frames": 20000.5}, {"n_frames": 20000.0}, {"n_frames": True},
               {"seed": 1.5}, {"seed": True}, {"seed": "1"}],
    )
    def test_non_integer_frames_and_seed_rejected(self, kw):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            McSpec(**kw)

    @pytest.mark.parametrize(
        "seed,message",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an integer, got 1.5"),
         ("3", "seed must be an integer, got '3'"), (True, "seed must be an integer, got True"),
         (None, "seed must be an integer, got None")],
        ids=["negative", "float", "str", "bool", "none"],
    )
    @pytest.mark.parametrize(
        "call",
        [lambda seed: McSpec(seed=seed),
         lambda seed: simulate_frames_mc(10_000, LinkParams(), DecoyIntensities(), seed=seed),
         lambda seed: run_verification(seed)],
        ids=["McSpec", "simulate_frames_mc", "run_verification"],
    )
    def test_one_seed_rule_for_the_spec_the_sampler_and_verify(self, call, seed, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            call(seed)

    def test_range_checked_after_all_overrides(self):
        cfg = with_flat(RunConfig(), sweep_min_db=70.0, sweep_max_db=80.0)
        assert (cfg.sweep.loss_min_db, cfg.sweep.loss_max_db) == (70.0, 80.0)

    def test_none_leaves_defaults(self):
        assert with_flat(RunConfig()) == RunConfig()
