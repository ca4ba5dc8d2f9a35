"""Host provenance: which machine produced the numbers?

Timings are only as comparable as the hosts that produced them; a run on a
laptop judged against one on a CI runner is noise wearing a verdict.
:func:`host_provenance` captures the minimal identity a reader needs — CPU
model, logical core count, platform string — and the repo benchmark
(``benchmarks/e2e``) stamps it on every result.

Everything here degrades gracefully: ``/proc/cpuinfo`` is Linux-only, so
missing sources yield ``"unknown"`` rather than an exception — a result
must never fail to write because the host is exotic.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Any

__all__ = ["host_provenance"]

#: /proc/cpuinfo keys that name the CPU model, in preference order
#: (x86 uses ``model name``; many ARM kernels use ``Hardware`` or omit it).
_CPU_KEYS = ("model name", "Hardware", "cpu model")


def _cpu_model(cpuinfo_path: str | Path = "/proc/cpuinfo") -> str:
    """The CPU model string from ``/proc/cpuinfo``, or ``"unknown"``."""
    try:
        text = Path(cpuinfo_path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        text = ""
    found: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            found.setdefault(key.strip(), value.strip())
    for key in _CPU_KEYS:
        value = found.get(key)
        if value:
            return value
    # Non-Linux fallback: platform.processor() is often empty on Linux but
    # meaningful on macOS/Windows.
    return platform.processor() or "unknown"


def host_provenance() -> dict[str, Any]:
    """``{"cpu", "cores", "platform"}`` identifying the measuring host."""
    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count() or 0,
        "platform": platform.platform(),
    }
