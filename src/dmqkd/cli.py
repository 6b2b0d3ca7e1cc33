"""Command-line entry point.

Subcommands:
  encode          compile a symbol-stream file into a waveform schedule
  sweep           loss sweep of the analytic secure key rate (CSV)
  mc              Monte Carlo link simulation with analytic comparison
  verify          run the security property suite
  write-defaults  emit the default configuration

The flags --seed, --frames and --loss-min/--loss-max/--loss-step set the config
keys mc_seed, mc_frames and sweep_min_db/sweep_max_db/sweep_step_db over the
--config file. Every command checks the whole configuration at load, so a frame
count outside [10000, 10^11] is a usage error for every command, not only mc.

Exit codes: 0 success, 1 usage/configuration error, 2 property failure,
3 model-validity error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

# encoding and secprops import numpy at load, so only the commands that use them import them.
from . import config, decoy, linksim
from .config import RunConfig
from .errors import ConfigurationError, DmqkdError, ModelValidityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_MODEL = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # map argparse's exit(2) onto exit 1
        raise ConfigurationError(message)


# Flags that set a config key: flag -> (key, help). Each takes the type of
# its key's default and overrides the value from --config.
_FLAG_KEYS = {
    "--seed": ("mc_seed", "override the run seed"),
    "--loss-min": ("sweep_min_db", "sweep start (dB)"),
    "--loss-max": ("sweep_max_db", "sweep end (dB)"),
    "--loss-step": ("sweep_step_db", "sweep step (dB)"),
    "--frames": ("mc_frames", "Monte Carlo frame count"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="dmqkd", description=__doc__.split("\n")[0])
    parser.add_argument("--config", type=Path, help="configuration file (.txt or .json)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    defaults = config.config_to_flat(RunConfig())
    for flag, (key, text) in _FLAG_KEYS.items():
        parser.add_argument(
            flag, dest=key, type=type(defaults[key]), help=f"{text}; config key {key}"
        )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="compile a symbol stream to a schedule")
    p_enc.add_argument("stream", type=Path, help="symbol-stream file (tokens like Z0s Y1s)")

    sub.add_parser("sweep", help="analytic key-rate sweep over channel loss")
    sub.add_parser("mc", help="Monte Carlo simulation and analytic comparison")
    sub.add_parser("verify", help="security property suite")

    p_def = sub.add_parser("write-defaults", help="emit the default configuration")
    p_def.add_argument("path", type=Path, nargs="?", help="file to write (stdout if omitted)")
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    """The --config file (or the defaults) with the given flags merged over it;
    the merged values are checked together, as one file would be."""
    cfg = config.load_config(args.config) if args.config else RunConfig()
    flags = {key: getattr(args, key) for key, _ in _FLAG_KEYS.values()}
    given = {key: value for key, value in flags.items() if value is not None}
    return config.config_from_flat({**config.config_to_flat(cfg), **given}) if given else cfg


def cmd_encode(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .encoding import (
        compile_schedule,
        encode_symbol,
        parse_symbol_stream,
        schedule_to_json,
        schedule_to_text,
        symbol_token,
    )

    symbols = parse_symbol_stream(config.read_user_file(args.stream, "symbol stream"))
    if not symbols:
        raise ConfigurationError(f"symbol stream {args.stream} is empty")
    table = cfg.decoy_table()
    sched = compile_schedule(symbols, cfg.timing, cfg.calibration, table)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "schedule.txt").write_text(schedule_to_text(sched))
    (args.out / "schedule.json").write_text(schedule_to_json(sched))
    lines = {}  # one table line per distinct symbol
    for sym in dict.fromkeys(symbols):
        pair = encode_symbol(sym, table)
        lines[sym] = f"{symbol_token(sym)} {float(pair.phi12)!r} {float(pair.phi23)!r}"
    print("symbol phi12_rad phi23_rad", *map(lines.__getitem__, symbols), sep="\n")
    print(f"wrote {args.out / 'schedule.txt'} and schedule.json ({len(symbols)} symbols)")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    points = decoy.sweep_loss(
        cfg.sweep.loss_min_db,
        cfg.sweep.loss_max_db,
        cfg.sweep.loss_step_db,
        cfg.link,
        cfg.intensities,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "sweep.csv"
    lines = decoy.sweep_csv_lines(points)
    with path.open("w") as f:  # a line at a time: no joined copy of the file in memory
        for line in lines:
            f.write(f"{line}\n")
    cutoff = decoy.cutoff_loss(points)
    at15 = decoy.rate_at_loss(15.0, cfg.link, cfg.intensities)
    print(f"wrote {path} ({len(points)} rows)")
    print(f"cutoff loss: {cutoff if cutoff is not None else 'none'} dB")
    print(f"r_bps at 15 dB: {at15.r_bps!r}")
    return EXIT_OK


def _z_score(empirical: float, expected: float, trials: int) -> float | None:
    """(empirical - expected) in binomial standard deviations over `trials`;
    None when there are no trials or the standard deviation is 0."""
    if not trials:
        return None
    sigma = math.sqrt(expected * (1.0 - expected) / trials)
    return (empirical - expected) / sigma if sigma else None


def cmd_mc(cfg: RunConfig, args: argparse.Namespace) -> int:
    probs = linksim.default_state_probs(cfg.link, cfg.z_mix)
    tallies = linksim.simulate_frames_mc(
        cfg.mc.n_frames, cfg.link, cfg.intensities, probs, seed=cfg.mc.seed
    )
    comparison = []
    for key in linksim.STATE_ROWS:
        emp = tallies.gain_qber(key)
        exp = linksim.expected_row_stats(key, cfg.link, cfg.intensities)
        t = tallies.rows[key]
        comparison.append(
            {
                "class": key[0],
                "basis": key[1],
                "sent": t.sent,
                "detected": t.detected,
                "errors": t.errors,
                "q_empirical": emp.q,
                "q_analytic": exp.q,
                "q_delta_sigma": _z_score(emp.q, exp.q, t.sent),
                "e_empirical": emp.e,
                "e_analytic": exp.e,
                "e_delta_sigma": _z_score(emp.e, exp.e, t.detected),
            }
        )
    # Decoy bounds from the empirical Z-basis gains, next to the analytic ones.
    emp_rate = decoy.secure_key_rate(
        *map(tallies.gain_qber, linksim.STATE_ROWS[1:]), cfg.link, cfg.intensities
    )
    ana_rate = decoy.rate_at_loss(cfg.link.loss_db, cfg.link, cfg.intensities)
    report = {
        "n_frames": cfg.mc.n_frames,
        "seed": cfg.mc.seed,
        "loss_db": cfg.link.loss_db,
        "rows": comparison,
        "bounds_from_mc": {"y0_l": emp_rate.y0_l, "y1_l": emp_rate.y1_l, "e1_u": emp_rate.e1_u},
        "bounds_analytic": {"y0_l": ana_rate.y0_l, "y1_l": ana_rate.y1_l, "e1_u": ana_rate.e1_u},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "tallies.csv").write_text("\n".join(tallies.csv_rows()) + "\n")
    (args.out / "mc_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out / 'tallies.csv'} and mc_report.json")
    for row in comparison:
        print(
            f"{row['class']:>6}/{row['basis']}: Q {row['q_empirical']:.6g} "
            f"(analytic {row['q_analytic']:.6g}), E {row['e_empirical']:.4g} "
            f"(analytic {row['e_analytic']:.4g})"
        )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import secprops

    report = secprops.run_verification(seed=cfg.mc.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "security_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for prop in report["properties"]:
        status = "PASS" if prop["passed"] else "FAIL"
        print(f"{status} {prop['name']}")
    print(f"wrote {path}")
    return EXIT_OK if report["all_passed"] else EXIT_PROPERTY


def cmd_write_defaults(cfg: RunConfig, args: argparse.Namespace) -> int:
    text = config.config_to_text(RunConfig())
    if args.path is not None:
        args.path.write_text(text)
        print(f"wrote {args.path}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load(args)
        handler = {
            "encode": cmd_encode,
            "sweep": cmd_sweep,
            "mc": cmd_mc,
            "verify": cmd_verify,
            "write-defaults": cmd_write_defaults,
        }[args.command]
        return handler(cfg, args)
    except SystemExit:  # only --help exits the parser; error() raises instead
        return EXIT_OK
    except ModelValidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (DmqkdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
