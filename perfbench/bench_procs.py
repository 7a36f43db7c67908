"""Teardown checks: no child process and no shared-memory segment outlives
a workload, so back-to-back runs keep measuring the same machine."""

from __future__ import annotations

import os

_SHM_DIR = "/dev/shm"


def child_pids() -> set[int]:
    """Live (non-zombie) direct children of this process, from ``/proc``.

    Excludes the interpreter's ``multiprocessing`` resource tracker: it is
    started on the first shared-memory block, lives exactly as long as this
    interpreter and exits on its own when this process does.
    """
    me = os.getpid()
    tracker = _resource_tracker_pid()
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        pid = int(entry)
        if int(ppid) == me and state != "Z" and pid != tracker:
            out.add(pid)
    return out


def _resource_tracker_pid() -> int | None:
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """Stop this interpreter's ``multiprocessing`` resource tracker and reap
    it, so that no process, not even a zombie, outlives the benchmark.  A
    later shared-memory block would start a new tracker."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently present."""
    try:
        return set(os.listdir(_SHM_DIR))
    except FileNotFoundError:
        return set()


def teardown_problems(children_before: set[int], shm_before: set[str]) -> list[str]:
    """Children or shared-memory segments that appeared since the snapshot."""
    problems = []
    extra_children = child_pids() - children_before
    if extra_children:
        problems.append(f"child processes still alive: {sorted(extra_children)}")
    extra_shm = shm_segments() - shm_before
    if extra_shm:
        problems.append(f"shared-memory segments left behind: {sorted(extra_shm)}")
    return problems
