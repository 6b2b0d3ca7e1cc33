"""The parameter guard: every configuration key moves the outputs its row in
MOVES names, and no others, and every field of RunConfig's records is set by
exactly one key.

Each command runs in this process through cli.main, once at BASE and once
with each key set to its row's value, and its exit code, stdout, stderr and
every file it writes are compared byte for byte. A row names the outputs as
"command:stdout", "command:exit" or "command:<file>". A change that adds a key
adds its row; a key whose row would be empty changes no output and is deleted.
"""

import json

from dmqkd import config
from dmqkd._record import Record
from dmqkd.config import RunConfig

# Every key at its default but mc_frames, so that mc draws 2x10^4 frames.
BASE = {"mc_frames": 20_000}

COMMANDS = {
    "encode": ["encode", "../stream.txt"],  # each command runs in a directory of its own
    "sweep": ["sweep"],
    "mc": ["mc"],
    "verify": ["verify"],
    "write-defaults": ["write-defaults", "defaults.txt"],
}

ENCODE_SCHEDULE = {"encode:schedule.txt", "encode:schedule.json"}
ENCODE = ENCODE_SCHEDULE | {"encode:stdout"}
SWEEP = {"sweep:stdout", "sweep:sweep.csv"}
MC_REPORT = {"mc:stdout", "mc:mc_report.json"}
MC = MC_REPORT | {"mc:tallies.csv"}

# key -> (the value it is moved to, the outputs that move). At 2x10^4 frames
# a step of about 3% in the dark rate, window, e_det, nu or omega moves the
# analytic columns of mc_report.json but no tally. The transmitter keys reach
# encode only (ROADMAP items 7 to 9); f_ec and master_rate_hz move no mc
# output, because mc reports bounds and no rate (item 4); verify reads only
# mc_seed (item 11).
MOVES = {
    "loss_db": (15.5, MC),
    "det_efficiency": (0.72, MC | SWEEP),
    "dark_rate_hz": (52.0, MC_REPORT | SWEEP),
    "window_s": (310e-12, MC_REPORT | SWEEP),
    "p_y_alice": (0.92, MC | SWEEP),
    "p_y_bob": (0.92, MC | SWEEP),
    "e_det": (0.034, MC_REPORT | SWEEP),
    "f_ec": (1.2, SWEEP),
    "y_receiver_factor": (0.52, MC | SWEEP),
    "mu": (0.41, ENCODE | MC | SWEEP),
    "nu": (0.165, ENCODE | MC_REPORT | SWEEP),
    "omega": (0.0155, ENCODE | MC_REPORT | SWEEP),
    "master_rate_hz": (6.9e8, ENCODE_SCHEDULE | SWEEP),
    "perturbation_width_s": (155e-12, ENCODE_SCHEDULE),
    "master_on_time_s": (1.45e-9, ENCODE_SCHEDULE),
    "slave_on_time_s": (310e-12, ENCODE_SCHEDULE),
    "v_pi": (0.82, ENCODE_SCHEDULE),
    "z_mix_signal": (0.34, MC),
    "z_mix_decoy": (0.34, MC),
    "z_mix_vacuum": (0.34, MC),
    "sweep_min_db": (1.0, SWEEP),
    "sweep_max_db": (62.0, SWEEP),
    "sweep_step_db": (1.5, SWEEP),
    "mc_frames": (20_001, MC),
    "mc_seed": (1, MC | {"verify:security_report.json"}),
}

# Record fields that no key sets, each with the key it follows.
DERIVED = {("link", "clock"): "master_rate_hz"}


def test_every_key_has_one_row_that_moves_something():
    problems = [f"{key} is a config key with no row in MOVES"
                for key in config._KEYS.keys() - MOVES.keys()]
    problems += [f"{key} has a row in MOVES but is no config key"
                 for key in MOVES.keys() - config._KEYS.keys()]
    problems += [f"{key} moves no output: delete the key"
                 for key, (_, outputs) in MOVES.items() if not outputs]
    assert not problems, "\n".join(sorted(problems))


def test_every_record_field_is_set_by_exactly_one_key():
    fields = []
    for section in RunConfig.field_names:
        default = getattr(RunConfig, section)
        names = default.field_names if isinstance(default, Record) else range(len(default))
        fields += [(section, name) for name in names]
    setters = {}
    for key, (section, name, _) in config._KEYS.items():
        setters.setdefault((section, name), []).append(key)
    problems = [f"{section}.{name} is set by no key" for section, name in fields
                if (section, name) not in setters and (section, name) not in DERIVED]
    problems += [f"{section}.{name} is set by {keys}"
                 for (section, name), keys in setters.items()
                 if len(keys) > 1 or (section, name) in DERIVED]
    problems += [f"{keys} set {section}.{name}, which is no field of RunConfig's records"
                 for (section, name), keys in setters.items() if (section, name) not in fields]
    assert not problems, "\n".join(problems)
    for (section, name), key in DERIVED.items():
        value, _ = MOVES[key]
        assert getattr(getattr(config.config_from_flat({key: value}), section), name) == value


def test_each_key_moves_exactly_the_outputs_its_row_names(tmp_path, run_cli):
    (tmp_path / "stream.txt").write_text("Z0s Y1s Z0d Z1v\n")
    cfg = tmp_path / "cfg.json"

    def outputs(flat):
        cfg.write_text(json.dumps(flat))
        return {
            f"{command}:{name}": value
            for command, argv in COMMANDS.items()
            for name, value in run_cli(tmp_path / command, "--config", str(cfg), *argv).items()
        }

    base = outputs(BASE)
    assert {name: base[f"{name}:exit"] for name in COMMANDS} == dict.fromkeys(COMMANDS, 0)
    problems = []
    for key in config._KEYS.keys() & MOVES.keys():
        value, named = MOVES[key]
        moved = outputs({**BASE, key: value})
        changed = {name for name in base.keys() | moved.keys()
                   if base.get(name) != moved.get(name)}
        problems += [f"{key} = {value!r} does not move {name}" for name in named - changed]
        problems += [f"{key} = {value!r} moves {name}, which its row does not name"
                     for name in changed - named]
    assert not problems, "\n".join(sorted(problems))
