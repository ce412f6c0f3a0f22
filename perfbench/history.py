"""Perf history: every run appends one JSON line to ``history.jsonl``.

Records are keyed by git revision, dirty flag, workload config hash
(:func:`repro.obs.manifest.config_digest`), seed, core count and the
python/numpy versions, so numbers from different trees or machines are
never mistaken for one another.  Outside a git checkout (no ``.git`` at
the repository root) git is not run and both read ``unknown``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict

import numpy as np

from repro.obs.manifest import config_digest, git_revision

HISTORY = Path(__file__).resolve().parent / "history.jsonl"
ROOT = Path(__file__).resolve().parent.parent


def _dirty() -> str:
    try:
        completed = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return "dirty" if completed.stdout.strip() else "clean"


def append(workload, seed: int, seconds: float, trace: int, record: Dict) -> None:
    in_git = (ROOT / ".git").exists()
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_revision() if in_git else "unknown",
        "dirty": _dirty() if in_git else "unknown",
        "config_hash": config_digest(workload),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **record,
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
