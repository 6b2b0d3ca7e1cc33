"""The reachability guard: every function under src/dmqkd is entered by some
command of the CLI, or is on ALLOWED with the reason it stays.

The commands run once each, in this process and on small inputs, with the
dmqkd modules imported afresh under a call-only trace hook (threads too), so
code that runs only at import, such as Record.__init_subclass__, counts as
reached. Every `def` under src/dmqkd, found with ast, is matched with the code
objects entered by file, name and first line; a decorated function's code
starts at its first decorator. ALLOWED only shrinks: a change that leaves a
function unreached deletes it, or adds it here with a line in CHANGES.md.
"""

import ast
import importlib
import json
import sys
import threading
from pathlib import Path

import pytest

import dmqkd

SRC = Path(dmqkd.__file__).resolve().parent

# Each entry: why no command reaches the function yet, and the ROADMAP item
# that gives it a user path or deletes it.
_PROBE = "called by the benchmark only; item 10 deletes it or times the real path"
_EMIT = "called by the benchmark only; item 7 makes encode use it"
_API = "record API that no command uses"
ALLOWED = {
    "decoy.bound_y0": _PROBE,
    "decoy.bound_y1": _PROBE,
    "decoy.bound_e1": _PROBE,
    "decoy.analytic_class_gains": _PROBE,
    "linksim.with_loss": _PROBE,
    "secprops.r_bin_amplitude": _PROBE,
    "secprops.sample_phi_lr": _PROBE,
    "secprops.sample_phi_erp": _PROBE,
    "secprops.axial_uniformity_p": _PROBE,
    "secprops.mutual_information_bits": _PROBE,
    "secprops._finite": _PROBE,
    "encoding.schedule_from_text": _EMIT,
    "encoding._chunks": _EMIT,
    "encoding._header_index": _EMIT,
    "encoding._parse_lines": _EMIT,
    "encoding._read_block": _EMIT,
    "encoding._event_problem": _EMIT,
    "encoding._perturbation_levels": _EMIT,
    "encoding.decompile_schedule": _EMIT,
    "encoding.phase_for_voltage": _EMIT,
    "photonics.make_frame": _EMIT,
    "photonics.amzi_transform": _EMIT,
    "photonics._check_finite": "the error path of amzi_transform",
    "_record.Record.__eq__": _API,
    "_record.Record.__hash__": _API,
    "_record.Record.__repr__": _API,
    "_record.Record.__setattr__": "the error path of assigning to a frozen record",
    "_record.Record.__delattr__": "the error path of deleting a field of a frozen record",
    "encoding.EventColumns.__eq__": _API,
    "photonics.Phase.__repr__": _API,
}


def _defs() -> dict:
    """module.qualname -> (file, name, first line) of every def under src/dmqkd."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    assert name not in found, f"{name} is defined twice"
                    found[name] = (str(path), child.name, first.lineno)
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, path)
    return found


def _run_commands(tmp_path: Path, monkeypatch, run_cli) -> dict:
    """Exit code of each command, run by a freshly imported dmqkd.cli."""
    stream = tmp_path / "stream.txt"
    stream.write_text("Z0s Y1s Z0d Z1v\n")
    json_cfg = tmp_path / "cfg.json"
    json_cfg.write_text(json.dumps({"mu": 0.5, "sweep_max_db": 10.0}))
    text_cfg = tmp_path / "cfg.txt"
    text_cfg.write_text("mu = 40\nnu = 1\nomega = 0\nloss_db = 0\n")
    codes = {
        name: run_cli(tmp_path / name, *argv)["exit"]
        for name, argv in {
            "encode": ["encode", str(stream)],
            "sweep": ["sweep"],
            "mc": ["--frames", "10000", "mc"],
            "verify": ["verify"],
            "write-defaults": ["write-defaults", "defaults.txt"],
            "--help": ["--help"],
            "json config": ["--config", str(json_cfg), "sweep"],
            "mu = 40": ["--config", str(text_cfg), "sweep"],
            "unknown subcommand": ["bogus"],
        }.items()
    }
    monkeypatch.setattr(sys, "argv", ["dmqkd", "write-defaults"])
    with pytest.raises(SystemExit) as exit_info:
        importlib.import_module("dmqkd.cli").entry_point()
    codes["entry_point"] = exit_info.value.code
    return codes


def _reached(tmp_path: Path, monkeypatch, run_cli) -> set:
    """(file, name, first line) of each function the commands enter."""
    entered = set()

    def hook(frame, event, arg):  # 'call' only: it returns no local tracer
        entered.add(frame.f_code)

    def is_dmqkd(name):
        return name == "dmqkd" or name.startswith("dmqkd.")

    saved = {name: module for name, module in sys.modules.items() if is_dmqkd(name)}
    for name in saved:
        del sys.modules[name]
    old_hooks = sys.gettrace(), threading.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        codes = _run_commands(tmp_path, monkeypatch, run_cli)
    finally:
        sys.settrace(old_hooks[0])
        threading.settrace(old_hooks[1])
        for name in [name for name in sys.modules if is_dmqkd(name)]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert codes == {"encode": 0, "sweep": 0, "mc": 0, "verify": 0, "write-defaults": 0,
                     "--help": 0, "json config": 0, "mu = 40": 3, "unknown subcommand": 1,
                     "entry_point": 0}
    files = {name: str(Path(name).resolve()) for name in {code.co_filename for code in entered}}
    return {(files[code.co_filename], code.co_name, code.co_firstlineno) for code in entered}


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path, monkeypatch, run_cli):
    defs = _defs()
    reached = _reached(tmp_path, monkeypatch, run_cli)
    unreached = {name for name, key in defs.items() if key not in reached}
    problems = [f"{name} is reached by no command and is not on ALLOWED"
                for name in sorted(unreached - ALLOWED.keys())]
    problems += [f"{name} is on ALLOWED but a command reaches it; remove it from ALLOWED"
                 for name in sorted(ALLOWED.keys() & (defs.keys() - unreached))]
    problems += [f"{name} is on ALLOWED but no longer defined; remove it from ALLOWED"
                 for name in sorted(ALLOWED.keys() - defs.keys())]
    assert not problems, "\n".join(problems)
