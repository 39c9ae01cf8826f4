"""The memory a process can have: physical memory or, when smaller, the
smallest memory limit of its cgroups and their ancestors. Every check that
refuses a size before allocating it (Ward's matrix, and `check_memory`'s
callers) reads it from `memory_limit`.
"""

from __future__ import annotations

import os

# The process's cgroups, and the cgroup file systems: v2 at the root, v1
# controllers below it.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _cgroup_memory_limit() -> tuple[int, str] | None:
    """The smallest memory limit set on this process's cgroups or any of
    their ancestors, with the file that sets it: cgroup v2 memory.max or v1
    memory.limit_in_bytes, under each path /proc/self/cgroup names and each
    of its parents up to the root. None where no file can be read or each
    reads "max"."""
    try:
        with open(_PROC_CGROUP) as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        parts = line.split(":", 2)
        if len(parts) != 3:
            continue
        controllers, path = parts[1], parts[2].rstrip("/")
        if not controllers:
            base, file = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            base, file = f"{_CGROUP_ROOT}/memory", "memory.limit_in_bytes"
        else:
            continue
        heads = path.split("/")  # "" first: the root
        for depth in range(len(heads), 0, -1):
            name = f"{base}{'/'.join(heads[:depth])}/{file}"
            try:
                with open(name) as f:
                    value = f.read().strip()
            except OSError:
                continue
            if value.isdigit():
                limits.append((int(value), name))
    return min(limits, default=None)


def memory_limit() -> tuple[int, str]:
    """(bytes, what they are): physical memory, " bytes of physical memory",
    or a smaller cgroup limit, "-byte memory limit of <the file setting it>"."""
    have, which = _physical_memory(), " bytes of physical memory"
    limit = _cgroup_memory_limit()
    if limit is not None and limit[0] < have:
        have, which = limit[0], f"-byte memory limit of {limit[1]}"
    return have, which


def check_memory(need: int, what: str) -> None:
    """ValueError "<what> may need <need> bytes, ..." above `memory_limit`."""
    have, which = memory_limit()
    if need > have:
        raise ValueError(f"{what} may need {need} bytes, more than the {have}{which}")
