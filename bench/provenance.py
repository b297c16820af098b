"""Environment and provenance record written with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys


def _git_commit(root: str) -> str:
    # the ceiling keeps git from reporting a repository that merely contains
    # the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(src: str) -> str:
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "defosc", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _openblas() -> dict:
    """OpenBLAS version string and thread count in effect, read from the
    library numpy loaded."""
    import numpy as np

    info = {"config": "unknown", "threads": None}
    libdirs = [os.path.join(os.path.dirname(os.path.dirname(np.__file__)), d)
               for d in ("numpy.libs", "scipy_openblas64/lib", "scipy_openblas32/lib")]
    for lib in sorted(p for d in libdirs for p in glob.glob(os.path.join(d, "*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
                    return info
    return info


def _cpu() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"model": model, "caches_per_cpu0": caches}


def record(root: str, src: str, workload: str, seed: int, cutoffs: list[int]) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        # one dense complex N x N operator takes 16 N^2 bytes
        "dense_operator_bytes": {str(n): 16 * n * n for n in sorted(set(cutoffs))},
    }
