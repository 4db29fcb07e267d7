"""The stamp a committed BENCH file carries: the git commit of the checkout
it measured, the Python version and the machine.  Imported by the
benchmark scripts in this directory (run as ``python benchmarks/<script>``,
which puts the directory on the import path)."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict


def machine_stamp() -> Dict[str, object]:
    """The git commit of the checkout and the machine the run measured."""
    root = Path(__file__).resolve().parent.parent
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {cpu_model}",
        "nproc": os.cpu_count(),
    }
