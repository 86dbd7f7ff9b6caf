"""Importing the package loads nothing beyond the standard library.

Every process that holds a database imports ``repro``; a third-party import
on that path is paid in start-up time and resident memory by all of them.
"""

import json
import os
import subprocess
import sys

_SCRIPT = """
import json, sys
before = set(sys.modules)
import repro, repro.server, repro.sharding
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_stdlib_and_repro():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    loaded = json.loads(
        subprocess.run(
            [sys.executable, "-c", _SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    assert "repro" in loaded
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names
        and name.split(".")[0] != "repro"
    ]
    assert foreign == []
