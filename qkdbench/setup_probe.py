"""Set-up probe, run in a fresh interpreter with the program's src/ on PYTHONPATH:

    python3 qkdbench/setup_probe.py CONFIG_PATH

Imports the package and its CLI, writes the default configuration to
CONFIG_PATH as flat text, reads it back with `config.load_config`, and prints
the two phase times as one JSON object.
"""

import json
import sys
import time

t0 = time.perf_counter()
import dmqkd.cli  # noqa: E402,F401
from dmqkd import config  # noqa: E402

t1 = time.perf_counter()
with open(sys.argv[1], "w") as fh:
    fh.write(config.config_to_text(config.RunConfig()))
loaded = config.load_config(sys.argv[1])
t2 = time.perf_counter()
if loaded != config.RunConfig():
    sys.exit("default configuration did not survive its text round trip")
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
