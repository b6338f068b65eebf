"""Harness wall-clock timing — the one sanctioned process-clock reader.

Everything inside the simulation takes time from
:attr:`repro.net.clock.EventLoop.now`; reading the host clock there
breaks replay-from-seed and is rejected by reprolint rule DET001. But
the *harness* around the simulation legitimately wants to report how
long an experiment took to compute — that is wall time by definition,
and it never feeds back into any simulated quantity.

This module is the canonical example of the two escape hatches
documented in ``docs/STATIC_ANALYSIS.md``: the line below carries a
``# repro: allow[DET001]`` pragma, and the file is also listed under
``[tool.reprolint.allow]`` in pyproject.toml. New harness-side timing
should call :class:`WallTimer` rather than adding pragmas elsewhere.
"""

from __future__ import annotations

import time


def unix_now() -> float:
    """The host's Unix timestamp, for harness manifests only.

    Never use this inside the simulation — simulated time is
    :attr:`repro.net.clock.EventLoop.now`.
    """
    return time.time()  # repro: allow[DET001] harness-side timestamp


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (0 if unavailable).

    Harness-side observability only (run manifests, the core hot-path
    bench): like wall time, memory footprint is a property of the host,
    never an input to the simulation. On Linux this is ``VmHWM`` from
    ``/proc/self/status``, the high-water mark that
    :func:`reset_peak_rss` restarts; elsewhere it is ``ru_maxrss``,
    the high-water of the whole process lifetime.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def reset_peak_rss() -> None:
    """Restart :func:`peak_rss_kb`'s high-water mark at the current RSS.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` (Linux
    only), so several experiments run in one process each report the
    peak during their own run, not the largest one before them. (That
    peak still includes heap the process kept from earlier runs.) Where
    the file is missing or not writable this does nothing.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


class WallTimer:
    """Context manager measuring elapsed host time, for harness reports.

    >>> with WallTimer() as timer:
    ...     pass
    >>> timer.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._stop: float | None = None

    @staticmethod
    def _read() -> float:
        # Harness wall time, never simulated time — hence the pragma.
        return time.perf_counter()  # repro: allow[DET001] harness-side timing

    def __enter__(self) -> "WallTimer":
        self._start = self._read()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop = self._read()

    @property
    def elapsed(self) -> float:
        """Seconds since entry — frozen at exit, live while inside the block."""
        if self._start is None:
            return 0.0
        end = self._stop if self._stop is not None else self._read()
        return end - self._start
