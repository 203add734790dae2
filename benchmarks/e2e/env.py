"""Environment hygiene and fingerprint (imports nothing from ``repro``)."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

#: One BLAS thread: on the 2-vCPU box two OpenBLAS threads make construction
#: slower and noisier (see README, "BLAS threads").
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def clean_env(base: Dict[str, str] | None = None) -> Dict[str, str]:
    """The environment every workload interpreter starts with: single-threaded
    BLAS, no ``REPRO_*`` variable (cache dir, fault injection, construction
    path, resilience mode and backend overrides cannot change the run), a fixed
    hash seed, and only the repo's ``src`` and this directory on ``PYTHONPATH``."""
    env = dict(os.environ if base is None else base)
    for key in [k for k in env if k.startswith("REPRO_")]:
        del env[key]
    for key in THREAD_VARS:
        env[key] = "1"
    # NumPy asks for transparent huge pages on large arrays by default.  On the
    # microVM the benchmark runs in, a huge-page fault on memory the guest has
    # not touched before costs 20x a recycled one (0.2 against 4.5 GB/s), which
    # made every allocation-heavy stage bimodal; 4 KiB pages fault at a steady
    # 2.4 GB/s (README, "Page faults").
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(HERE)]
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.lower().startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _cache_sizes() -> Dict[str, str]:
    out: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            level = _read(str(index / "level"))
            kind = _read(str(index / "type"))
            size = _read(str(index / "size"))
            if level and size:
                out[f"L{level}{kind[:1].lower() if kind != 'Unified' else ''}"] = size
    return out


def last_level_cache_bytes(default: int = 32 * 2**20) -> int:
    """Largest cache reported for cpu0, for sizing the copy-bandwidth arrays."""
    best = 0
    for size in _cache_sizes().values():
        digits = "".join(ch for ch in size if ch.isdigit())
        if not digits:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1].upper(), 1)
        best = max(best, int(digits) * scale)
    return best or default


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def fingerprint(seed: int) -> Dict[str, object]:
    """What the numbers were measured on; called inside the workload interpreter."""
    import numpy
    import scipy

    import repro

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "") for k in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }
