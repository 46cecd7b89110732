"""CPU time and peak memory of the system's own processes, read from /proc."""

from __future__ import annotations

import os
from typing import Dict, Iterable, List

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", "r") as handle:
        text = handle.read()
    # Field 2 (comm) may hold spaces; everything after its ')' splits cleanly.
    return text[text.rindex(")") + 2 :].split()


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parents[int(entry)] = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue
    tree = [root]
    frontier = [root]
    while frontier:
        children = [pid for pid, ppid in parents.items() if ppid in frontier]
        tree.extend(children)
        frontier = children
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """Summed utime + stime of ``pids`` in seconds."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids`` in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0
