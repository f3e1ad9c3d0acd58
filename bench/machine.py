"""Write bench/machine.json: the machine, the toolchain and each workload's working set.

    python3 bench/machine.py

Run it on the machine whose numbers are being compared.  The caches are read
from /sys/devices/system/cpu/cpu0/cache; a shared last-level cache is
shared with whatever else runs on the host, so no roofline or
bandwidth-fraction figure is derived from these sizes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import THREADS, WORKLOADS  # noqa: E402

MIB = 1 << 20


def cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict[str, str]:
    """Size of each data or unified cache level of cpu0, as the kernel prints it."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind == "Instruction":
            continue
        level = (index / "level").read_text().strip()
        out[f"L{level}"] = (index / "size").read_text().strip()
    return out


def main() -> None:
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache_per_cpu0": caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": THREADS,
        "working_set_mib": {
            name: cls().working_set_bytes / MIB for name, cls in WORKLOADS.items()
        },
        "note": (
            "The last-level cache is shared with other tenants of the host, so no "
            "roofline or bandwidth-fraction claim is made from these sizes; "
            "simulator.bytes_moved_computed is computed from the amplitude count, "
            "not measured."
        ),
    }
    path = Path(__file__).resolve().parent / "machine.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path.read_text(), end="")


if __name__ == "__main__":
    main()
