"""Run configuration: defaults, flat key-value file format, JSON equivalence.

The defaults are the transmitter's published operating point: a 667 MHz
master clock (the 2 GHz slave clock and the 500 ps AMZI delay follow from it),
150 ps perturbations one AMZI delay apart, intensities mu/nu/omega =
0.4/0.16/0.015, 90:10 Y:Z basis split, 70% detector efficiency, 50 Hz dark
counts, a 300 ps detection window, V-pi = 0.8 V, e_det = 3.3% and f_ec = 1.16.
"""

from __future__ import annotations

import json
from pathlib import Path

from ._record import Record
from .decoy import sweep_point_count
from .errors import ConfigurationError, check_seed
from .linksim import DecoyIntensities, LinkParams, default_state_probs
from .photonics import CalibrationCurve, TimingParams

# Fewest and most frames an MC run may draw; the cap is tens of minutes of
# sampling on a 2-core machine. The sweep's cap is decoy.MAX_SWEEP_POINTS.
MIN_MC_FRAMES = 10_000
MAX_MC_FRAMES = 10**11


class SweepSpec(Record):
    loss_min_db: float = 0.0
    loss_max_db: float = 60.0
    loss_step_db: float = 1.0

    def __post_init__(self) -> None:
        lo, hi = self.loss_min_db, self.loss_max_db
        if sweep_point_count(lo, hi, self.loss_step_db) == 0:
            raise ConfigurationError(f"sweep range must have min <= max, got {lo!r}..{hi!r}")


class McSpec(Record):
    n_frames: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.n_frames, bool) or not isinstance(self.n_frames, int):
            raise ConfigurationError(f"n_frames must be an integer, got {self.n_frames!r}")
        check_seed(self.seed)
        if not MIN_MC_FRAMES <= self.n_frames <= MAX_MC_FRAMES:
            raise ConfigurationError(
                f"need {MIN_MC_FRAMES}..{MAX_MC_FRAMES} MC frames, got {self.n_frames!r}"
            )


class RunConfig(Record):
    """Everything a command needs: link, intensities, timing, calibration,
    state mix, sweep and Monte Carlo specs."""

    link: LinkParams = LinkParams()
    intensities: DecoyIntensities = DecoyIntensities()
    timing: TimingParams = TimingParams()
    calibration: CalibrationCurve = CalibrationCurve()
    z_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    sweep: SweepSpec = SweepSpec()
    mc: McSpec = McSpec()

    def __post_init__(self) -> None:
        if self.link.clock != self.timing.master_rate:
            raise ConfigurationError(
                f"link clock {self.link.clock!r} Hz differs from the master rate "
                f"{self.timing.master_rate!r} Hz"
            )
        default_state_probs(self.link, self.z_mix)  # a z_mix that mc cannot use fails every command

    def decoy_table(self) -> dict[str, float]:
        """Per-class intensity fractions relative to the signal intensity."""
        i = self.intensities
        return {"signal": 1.0, "decoy": i.nu / i.mu, "vacuum": i.omega / i.mu}


# Every configuration key: key -> (RunConfig section, field or z_mix index,
# comment). A key's type is that of its default value. master_rate_hz also
# sets LinkParams.clock, so the two clocks cannot disagree.
_KEYS: dict[str, tuple[str, str | int, str]] = {
    "loss_db": ("link", "loss_db", "channel loss"),
    "det_efficiency": ("link", "det_efficiency", "detector efficiency"),
    "dark_rate_hz": ("link", "dark_rate", "dark counts per detector"),
    "window_s": ("link", "window", "detection window"),
    "p_y_alice": ("link", "p_y_alice", "Alice Y-basis probability"),
    "p_y_bob": ("link", "p_y_bob", "Bob Y-basis probability"),
    "e_det": ("link", "e_det", "lumped misalignment/intrinsic error"),
    "f_ec": ("link", "f_ec", "error-correction inefficiency"),
    "y_receiver_factor": ("link", "y_receiver_factor", "Y-basis receiver efficiency factor"),
    "mu": ("intensities", "mu", "signal mean photon number"),
    "nu": ("intensities", "nu", "decoy mean photon number"),
    "omega": ("intensities", "omega", "vacuum mean photon number"),
    "master_rate_hz": ("timing", "master_rate", "master laser clock (symbol rate)"),
    "perturbation_width_s": ("timing", "perturbation_width", "electrical perturbation width"),
    "master_on_time_s": ("timing", "master_on_time", "master gate on-time"),
    "slave_on_time_s": ("timing", "slave_on_time", "slave pulse on-time"),
    "v_pi": ("calibration", "v_pi", "half-wave voltage"),
    "z_mix_signal": ("z_mix", 0, "Z-basis class mix (renormalised)"),
    "z_mix_decoy": ("z_mix", 1, ""),
    "z_mix_vacuum": ("z_mix", 2, ""),
    "sweep_min_db": ("sweep", "loss_min_db", "loss sweep range"),
    "sweep_max_db": ("sweep", "loss_max_db", ""),
    "sweep_step_db": ("sweep", "loss_step_db", ""),
    "mc_frames": ("mc", "n_frames", "Monte Carlo frames"),
    "mc_seed": ("mc", "seed", "Monte Carlo seed"),
}


def config_to_flat(cfg: RunConfig) -> dict:
    flat = {}
    for key, (section, name, _) in _KEYS.items():
        part = getattr(cfg, section)
        flat[key] = part[name] if isinstance(name, int) else getattr(part, name)
    return flat


_DEFAULT = RunConfig()
_DEFAULT_FLAT = config_to_flat(_DEFAULT)


def _typed(key: str, value: object) -> int | float:
    """value as the type of key's default. Int keys take ints only, float keys
    ints or floats; bools, strings and anything else are rejected."""
    kind = type(_DEFAULT_FLAT[key])
    allowed = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigurationError(f"{key} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise ConfigurationError(f"{key} is out of range: {value!r}") from exc


def config_from_flat(flat: dict) -> RunConfig:
    unknown = set(flat) - set(_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
    parts: dict[str, dict] = {}
    for key, (section, name, _) in _KEYS.items():
        parts.setdefault(section, {})[name] = _typed(key, flat.get(key, _DEFAULT_FLAT[key]))
    parts["link"]["clock"] = parts["timing"]["master_rate"]
    z_mix = tuple(parts.pop("z_mix").values())
    return RunConfig(
        z_mix=z_mix,
        **{section: getattr(_DEFAULT, section).replace(**kw) for section, kw in parts.items()},
    )


def config_to_text(cfg: RunConfig) -> str:
    """Flat, commented key-value form; diff-able experiment record."""
    lines = ["# dmqkd run configuration"]
    for key, value in config_to_flat(cfg).items():
        comment = _KEYS[key][2]
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
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown configuration key {key!r}")
        if key in flat:
            raise ConfigurationError(f"line {lineno}: repeated configuration key {key!r}")
        try:
            flat[key] = type(_DEFAULT_FLAT[key])(value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}") from exc
    return config_from_flat(flat)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, rejecting a key that appears twice."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"configuration key {key!r} appears twice")
        obj[key] = value
    return obj


def read_user_file(path: Path, what: str) -> str:
    """The UTF-8 text of a user's file; an unreadable one is a
    ConfigurationError naming `what` and the path."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Load a configuration from a .json file (any case) or the key-value text format."""
    path = Path(path)
    text = read_user_file(path, "config")
    if path.suffix.lower() == ".json":
        try:
            flat = json.loads(text, object_pairs_hook=_unique_keys)
        except ConfigurationError:
            raise
        except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
            raise ConfigurationError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(flat, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        return config_from_flat(flat)
    return config_from_text(text)
