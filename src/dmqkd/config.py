"""Run configuration: defaults, flat key-value file format, JSON equivalence.

The defaults are the transmitter's published operating point: 667 MHz master /
2 GHz slave clocks (stored as exactly 3:1 so one AMZI delay is 500 ps),
150 ps perturbations 450 ps apart, intensities mu/nu/omega = 0.4/0.16/0.015,
90:10 Y:Z basis split, 70% detector efficiency, 50 Hz dark counts, a 300 ps
detection window, V-pi = 0.8 V, e_det = 3.3% and f_ec = 1.16.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .encoding import CalibrationCurve, TimingParams
from .errors import ConfigurationError
from .linksim import DecoyIntensities, LinkParams


@dataclass(frozen=True)
class SweepSpec:
    loss_min_db: float = 0.0
    loss_max_db: float = 60.0
    loss_step_db: float = 1.0

    def __post_init__(self) -> None:
        lo, hi, step = self.loss_min_db, self.loss_max_db, self.loss_step_db
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigurationError(
                f"sweep range must be finite with min <= max, got {lo!r}..{hi!r}"
            )
        if not (math.isfinite(step) and step > 0.0):
            raise ConfigurationError(f"loss step must be > 0, got {step!r}")


@dataclass(frozen=True)
class McSpec:
    n_frames: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: link, intensities, timing, calibration,
    state mix, sweep and Monte Carlo specs."""

    link: LinkParams = field(default_factory=LinkParams)
    intensities: DecoyIntensities = field(default_factory=DecoyIntensities)
    timing: TimingParams = field(default_factory=TimingParams)
    calibration: CalibrationCurve = field(default_factory=CalibrationCurve)
    z_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    mc: McSpec = field(default_factory=McSpec)

    def decoy_table(self) -> dict[str, float]:
        """Per-class intensity fractions relative to the signal intensity."""
        i = self.intensities
        return {"signal": 1.0, "decoy": i.nu / i.mu, "vacuum": i.omega / i.mu}


_KEY_COMMENTS = {
    "loss_db": "channel loss",
    "det_efficiency": "detector efficiency",
    "dark_rate_hz": "dark counts per detector",
    "window_s": "detection window",
    "p_y_alice": "Alice Y-basis probability",
    "p_y_bob": "Bob Y-basis probability",
    "e_det": "lumped misalignment/intrinsic error",
    "f_ec": "error-correction inefficiency",
    "y_receiver_factor": "Y-basis receiver efficiency factor",
    "mu": "signal mean photon number",
    "nu": "decoy mean photon number",
    "omega": "vacuum mean photon number",
    "master_rate_hz": "master laser clock (symbol rate)",
    "slave_rate_hz": "slave laser clock (3x master)",
    "perturbation_width_s": "electrical perturbation width",
    "perturbation_separation_s": "perturbation separation",
    "amzi_delay_s": "AMZI delay (one slave period)",
    "master_on_time_s": "master gate on-time",
    "slave_on_time_s": "slave pulse on-time",
    "v_pi": "half-wave voltage",
    "z_mix_signal": "Z-basis class mix (renormalised)",
    "z_mix_decoy": "",
    "z_mix_vacuum": "",
    "sweep_min_db": "loss sweep range",
    "sweep_max_db": "",
    "sweep_step_db": "",
    "mc_frames": "Monte Carlo frames",
    "mc_seed": "Monte Carlo seed",
}


def config_to_flat(cfg: RunConfig) -> dict:
    ln, it, tm = cfg.link, cfg.intensities, cfg.timing
    return {
        "loss_db": ln.loss_db,
        "det_efficiency": ln.det_efficiency,
        "dark_rate_hz": ln.dark_rate,
        "window_s": ln.window,
        "p_y_alice": ln.p_y_alice,
        "p_y_bob": ln.p_y_bob,
        "e_det": ln.e_det,
        "f_ec": ln.f_ec,
        "y_receiver_factor": ln.y_receiver_factor,
        "mu": it.mu,
        "nu": it.nu,
        "omega": it.omega,
        "master_rate_hz": tm.master_rate,
        "slave_rate_hz": tm.slave_rate,
        "perturbation_width_s": tm.perturbation_width,
        "perturbation_separation_s": tm.perturbation_separation,
        "amzi_delay_s": tm.amzi_delay,
        "master_on_time_s": tm.master_on_time,
        "slave_on_time_s": tm.slave_on_time,
        "v_pi": cfg.calibration.v_pi,
        "z_mix_signal": cfg.z_mix[0],
        "z_mix_decoy": cfg.z_mix[1],
        "z_mix_vacuum": cfg.z_mix[2],
        "sweep_min_db": cfg.sweep.loss_min_db,
        "sweep_max_db": cfg.sweep.loss_max_db,
        "sweep_step_db": cfg.sweep.loss_step_db,
        "mc_frames": cfg.mc.n_frames,
        "mc_seed": cfg.mc.seed,
    }


def config_from_flat(flat: dict) -> RunConfig:
    defaults = config_to_flat(RunConfig())
    unknown = set(flat) - set(defaults)
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    merged = {**defaults, **flat}
    try:
        link = LinkParams(
            loss_db=float(merged["loss_db"]),
            det_efficiency=float(merged["det_efficiency"]),
            dark_rate=float(merged["dark_rate_hz"]),
            window=float(merged["window_s"]),
            clock=float(merged["master_rate_hz"]),
            p_y_alice=float(merged["p_y_alice"]),
            p_y_bob=float(merged["p_y_bob"]),
            e_det=float(merged["e_det"]),
            f_ec=float(merged["f_ec"]),
            y_receiver_factor=float(merged["y_receiver_factor"]),
        )
        intens = DecoyIntensities(
            mu=float(merged["mu"]), nu=float(merged["nu"]), omega=float(merged["omega"])
        )
        timing = TimingParams(
            master_rate=float(merged["master_rate_hz"]),
            slave_rate=float(merged["slave_rate_hz"]),
            perturbation_width=float(merged["perturbation_width_s"]),
            perturbation_separation=float(merged["perturbation_separation_s"]),
            amzi_delay=float(merged["amzi_delay_s"]),
            master_on_time=float(merged["master_on_time_s"]),
            slave_on_time=float(merged["slave_on_time_s"]),
        )
        cal = CalibrationCurve(v_pi=float(merged["v_pi"]))
        z_mix = (
            float(merged["z_mix_signal"]),
            float(merged["z_mix_decoy"]),
            float(merged["z_mix_vacuum"]),
        )
        sweep = SweepSpec(
            loss_min_db=float(merged["sweep_min_db"]),
            loss_max_db=float(merged["sweep_max_db"]),
            loss_step_db=float(merged["sweep_step_db"]),
        )
        mc = McSpec(n_frames=int(merged["mc_frames"]), seed=int(merged["mc_seed"]))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(str(exc)) from exc
    return RunConfig(
        link=link, intensities=intens, timing=timing, calibration=cal,
        z_mix=z_mix, sweep=sweep, mc=mc,
    )


def config_to_text(cfg: RunConfig) -> str:
    """Flat, commented key-value form; diff-able experiment record."""
    lines = ["# dmqkd run configuration"]
    for key, value in config_to_flat(cfg).items():
        comment = _KEY_COMMENTS.get(key, "")
        suffix = f"  # {comment}" if comment else ""
        lines.append(f"{key} = {value!r}{suffix}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> RunConfig:
    flat: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            flat[key] = int(value) if key in ("mc_frames", "mc_seed") else float(value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}") from exc
    return config_from_flat(flat)


def load_config(path: str | Path) -> RunConfig:
    """Load a configuration from a .json file or the key-value text format."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            flat = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(flat, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        return config_from_flat(flat)
    return config_from_text(text)


def with_overrides(
    cfg: RunConfig,
    *,
    seed: int | None = None,
    frames: int | None = None,
    loss_min: float | None = None,
    loss_max: float | None = None,
    loss_step: float | None = None,
) -> RunConfig:
    """Apply CLI flag overrides on top of a loaded configuration.

    Each spec is replaced in one step, so its checks see the final values
    (e.g. --loss-min 70 --loss-max 80 is valid although 70 > the default max).
    """
    mc = {"seed": seed, "n_frames": frames}
    sweep = {"loss_min_db": loss_min, "loss_max_db": loss_max, "loss_step_db": loss_step}
    return replace(
        cfg,
        mc=replace(cfg.mc, **{k: v for k, v in mc.items() if v is not None}),
        sweep=replace(cfg.sweep, **{k: v for k, v in sweep.items() if v is not None}),
    )
