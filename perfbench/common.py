"""Helpers shared by the benchmark's workloads: paths, statistics, stamps."""

from __future__ import annotations

import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence

#: The checkout the benchmark runs in: ``perfbench/`` sits at its root.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: How many times each run sets its workload up; ``setup_s`` is the median.
SETUPS = 3


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no installation)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}; run from a repo checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards.

    Temporary files of the library (FMU storage, archives) also go there,
    so a run writes nothing outside its checkout.
    """
    base = ROOT / "perfbench" / ".work"
    base.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"run{os.getpid()}_", dir=base))
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; failed ops enter as ``inf``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == math.inf:
        return math.inf if position > low or ordered[low] == math.inf else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Clock:
    """The timed window of a run: ``seconds`` long, starting at ``start()``."""

    def __init__(self, seconds: float):
        self.seconds = float(seconds)
        self.started = time.perf_counter()

    def start(self) -> None:
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def expired(self) -> bool:
        return self.elapsed() >= self.seconds


def stamp(seed: int, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Provenance recorded with every result."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    stamp = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }
    stamp.update(extra or {})
    return stamp


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # an exported tree; do not pick up an enclosing repo
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"

