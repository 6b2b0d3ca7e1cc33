"""Shared pytest plumbing: collect the acceptance-criterion result lines and
print them in the terminal summary, where pytest's output capture cannot
swallow them; and run_cli, which runs the command line in this process."""

import importlib
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def run_cli(monkeypatch):
    """run_cli(directory, *argv) runs dmqkd.cli.main(argv) in this process,
    with `directory`, emptied first, as the working directory (the default
    --out). It returns the run's outputs by name: "exit" (the exit code),
    "stdout", "stderr" and the bytes of each file left in the directory.
    dmqkd.cli is looked up at each call, so a caller that cleared dmqkd from
    sys.modules runs a fresh import."""

    def run(directory, *argv):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        monkeypatch.chdir(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = importlib.import_module("dmqkd.cli").main(list(argv))
        files = {path.name: path.read_bytes() for path in directory.iterdir()}
        return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), **files}

    return run
