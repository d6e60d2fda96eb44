"""The output ledger: what fixed ``focklat`` commands print and return.

Each entry holds one command's argv, the sha256 of its stdout and of its
stderr, and its exit status, from a fresh ``python -m focklat.cli``
process.  The bytes of a numerical result may move with the interpreter
or the numpy and scipy builds, so the entries are keyed by those
versions.  ``tests/test_ledger.py`` reruns the quick entries and skips on
a stack the ledger does not name; it never writes the file.

    PYTHONPATH=src python tests/ledger.py

records the current stack's entries in ``output_ledger.json``, next to
this file, and prints any entry that differs from one already recorded.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from test_acceptance import EXAMPLE_COMMANDS

PATH = Path(__file__).with_name("output_ledger.json")
SRC = Path(__file__).resolve().parents[1] / "src"

_DOCUMENTED = ["bch-check", "--xplus", "0.1+0.05i", "--xzero", "1", "--xminus", "0.1"]

# (argv, quick): the quick ones take well under a second each
COMMANDS = [(argv, True) for argv in EXAMPLE_COMMANDS] + [
    (["verify", "--suite", "all", "--dim", "64"], True),
    *((_DOCUMENTED + ["--dim", str(dim), "--ordering", ordering], dim < 512)
      for dim in (256, 512, 900) for ordering in ("antinormal", "normal")),
    (_DOCUMENTED + ["--dim", "1008"], True),
    (["bch-check", "--xplus", "2", "--xzero", "1", "--xminus", "1", "--dim", "16"], True),
]


def stack():
    """The key of the current interpreter and numpy and scipy builds."""
    return f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}"


def run(argv):
    """One command's ledger entry, from a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "focklat.cli", *argv], capture_output=True,
                          env=env, check=False)
    return {"argv": argv,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(done.stderr).hexdigest(),
            "exit": done.returncode}


def load():
    """The recorded ledger: {stack: [entry, ...]}."""
    return json.loads(PATH.read_text()) if PATH.exists() else {}


def main():
    ledger = load()
    entries = [run(argv) for argv, _ in COMMANDS]
    old = {tuple(e["argv"]): e for e in ledger.get(stack(), [])}
    for entry in entries:
        before = old.get(tuple(entry["argv"]))
        if before is not None and before != entry:
            print("changed:", " ".join(entry["argv"]))
    ledger[stack()] = entries
    PATH.write_text(json.dumps(ledger, indent=1) + "\n")


if __name__ == "__main__":
    main()
