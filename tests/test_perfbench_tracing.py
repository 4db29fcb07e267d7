"""The benchmark's traced server still finds every entry point it wraps.

``perfbench/serve.py --trace-out`` replaces named functions and methods of
``src/`` with span recorders before the server starts; a rename or removal
of any of them makes the traced benchmark run exit 1.  This test runs
``install_tracing()`` in a fresh interpreter against ``src/`` and drives the
pair-distance path once, so the spans that run's report averages exist.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, {perfbench!r})
import importlib
import serve
serve.install_tracing()
server = importlib.import_module("repro.service.server")
rted = importlib.import_module("repro.algorithms.rted")
f = server.parse_tree("{{a{{b}}{{c}}}}")
g = server.parse_tree("{{a{{b}}{{d}}}}")
server.compute(f, g)
rted.optimal_strategy(f, g)
names = {{span[1] for span in serve._SPANS}}
missing = {{"io.parse", "algorithms.compute", "algorithms.strategy"}} - names
assert not missing, missing
print("traced", sorted(names))
"""


def test_install_tracing_wraps_every_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(perfbench=str(ROOT / "perfbench"))],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("traced")
