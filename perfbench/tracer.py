"""Spans, counters and object censuses for the benchmark's traced runs.

A :class:`Tracer` wraps functions of the program under test from the
outside: it replaces a class attribute or module global with a wrapper
that records one span per call and restores the original on
:meth:`Tracer.uninstall`. Nothing under ``src/`` knows it is traced.

Spans live in memory as four parallel arrays (name id, start, end,
parent index); the run id and process id are per-process and travel in
the header written by :meth:`Tracer.flush`. A span's *self time* is its
duration minus the durations of its direct children, so the self times
of one process's spans partition the time covered by its root spans.

A *census* counts state kept on objects rather than in calls (datagrams
a network delivered, stalls a player saw): the tracer hooks the class's
``__init__`` to register each instance and a temporary ``__del__`` to
read it when it dies; instances still alive are read at flush time.

Forked children (``multiprocessing`` fork workers) inherit the wrappers.
The tracer resets its buffers in the child and flushes them at child
exit, so the parent finds one ``<run_id>.<pid>.json`` summary (and a
``.spans`` file with the raw spans) per process in ``out_dir``.
"""

from __future__ import annotations

import functools
import gc
import json
import multiprocessing.util
import os
import sys
import time
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

_MISSING = object()

#: (args, kwargs) -> (args, kwargs, done) — ``done`` (or None) runs
#: after the wrapped call returns or raises.
Hook = Callable[[tuple, dict], tuple]


def self_times(names: array, starts: array, ends: array, parents: array) -> dict[str, Any]:
    """Fold raw spans into per-name counts, inclusive and self time.

    ``names`` holds indexes into the caller's name table; the result is
    keyed by those indexes: ``{id: [count, inclusive_s, self_s]}``, plus
    ``"roots_s"``, the summed duration of spans without a parent (the
    time the spans cover, against which the self times must add up).
    """
    n = len(names)
    self_s = [ends[i] - starts[i] for i in range(n)]
    roots = 0.0
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            self_s[parent] -= ends[i] - starts[i]
        else:
            roots += ends[i] - starts[i]
    per_name: dict[int, list] = {}
    for i in range(n):
        cell = per_name.get(names[i])
        if cell is None:
            cell = per_name[names[i]] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += ends[i] - starts[i]
        cell[2] += self_s[i]
    return {"per_name": per_name, "roots_s": roots}


class Tracer:
    """Installs span wrappers and censuses; writes one summary per process."""

    def __init__(self, run_id: str, out_dir: Path | str | None = None) -> None:
        self.run_id = run_id
        #: Where :meth:`flush` writes; None keeps everything in memory.
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.owner_pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.census: dict[str, float] = {}
        #: (owner, attr, original value or _MISSING) in install order.
        self._patches: list[tuple[object, str, object]] = []
        #: cls -> (harvest, live instances, ids of registered instances)
        self._tracked: dict[type, tuple[Callable, weakref.WeakSet, set]] = {}
        self._installed = False
        self._flushed = False

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """The index of ``name`` in this tracer's name table."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter."""
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (used for root spans)."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, fn: Callable, name: str, hook: Hook | None,
                 owner_only: bool = False) -> Callable:
        """``fn`` wrapped to record a span (and run ``hook`` around it).

        ``owner_only`` records spans only in the installing process, not
        in forked children that inherit the wrapper.
        """
        nid = self.name_id(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter
        if hook is None:
            def wrapper(*args, **kwargs):
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                args, kwargs, done = hook(args, kwargs)
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                    if done is not None:
                        done()
        if owner_only:
            spanned, owner_pid, getpid = wrapper, self.owner_pid, os.getpid

            def wrapper(*args, **kwargs):
                if getpid() != owner_pid:
                    return fn(*args, **kwargs)
                return spanned(*args, **kwargs)
        return functools.wraps(fn)(wrapper)

    # -- patching --------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str, hook: Hook | None = None,
                    owner_only: bool = False) -> None:
        """Span every call of ``cls.attr`` (a method or a property getter)."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(self._spanned(original.fget, name, hook, owner_only),
                               original.fset, original.fdel, original.__doc__)
        else:
            wrapped = self._spanned(original, name, hook, owner_only)
        self._set(cls, attr, wrapped)

    def wrap_function(self, module: str, attr: str, name: str) -> None:
        """Span every call of ``module.attr``, wherever it was imported by name.

        A ``from module import attr`` elsewhere binds the same function
        object, so every loaded module of the same package whose global
        *is* the original is patched too.
        """
        original = getattr(sys.modules[module], attr)
        wrapped = self._spanned(original, name, None)
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def track(self, cls: type, harvest: Callable[[Any], dict[str, float]]) -> None:
        """Sum ``harvest(obj)`` over every ``cls`` instance built while installed.

        Subclasses whose ``__init__`` calls ``super().__init__`` are
        registered too, once.
        """
        live: weakref.WeakSet = weakref.WeakSet()
        ids: set[int] = set()
        self._tracked[cls] = (harvest, live, ids)
        init = cls.__dict__["__init__"]
        old_del = cls.__dict__.get("__del__")

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if id(obj) not in ids:
                ids.add(id(obj))
                live.add(obj)

        def __del__(obj):
            # Cyclic garbage loses its weakrefs before finalisers run,
            # so membership is tracked by id, not by the WeakSet.
            if id(obj) in ids:
                ids.discard(id(obj))
                self._harvest(harvest, obj)
            if old_del is not None:
                old_del(obj)

        self._set(cls, "__init__", __init__)
        self._set(cls, "__del__", __del__)

    def _harvest(self, harvest: Callable, obj: object) -> None:
        for key, value in harvest(obj).items():
            self.census[key] = self.census.get(key, 0) + value

    def install(self) -> "Tracer":
        """Arm fork handling; call the ``wrap_*``/``track`` methods after."""
        self._installed = True
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return self

    def uninstall(self) -> None:
        """Read the tracked objects still alive, then restore every patched
        attribute, newest first."""
        self._harvest_live()
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    # -- processes -------------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked child: start empty, flush at the child's exit."""
        if not self._installed:
            return
        for buf in (self.name, self.start, self.end, self.parent):
            del buf[:]
        self.stack.clear()
        self.counters = {}
        self.census = {}
        for _, live, ids in self._tracked.values():
            ids.clear()  # the parent accounts for the objects it built
            live.clear()
        self._flushed = False
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def _harvest_live(self) -> None:
        gc.collect()  # finalise unreachable instances through __del__
        for harvest, live, ids in self._tracked.values():
            for obj in list(live):
                if id(obj) in ids:
                    ids.discard(id(obj))
                    self._harvest(harvest, obj)

    def collect(self) -> dict[str, Any]:
        """This process's spans folded by name, plus counters and census.

        Tracked objects still alive are read first. ``unclosed`` counts
        spans that never ended (end 0.0) or end before they start.
        """
        self._harvest_live()
        folded = self_times(self.name, self.start, self.end, self.parent)
        unclosed = sum(1 for start, end in zip(self.start, self.end)
                       if end == 0.0 or end < start)
        return {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "owner": os.getpid() == self.owner_pid,
            "spans": {
                self.names[nid]: {"count": c, "incl_s": incl, "self_s": own}
                for nid, (c, incl, own) in sorted(folded["per_name"].items())
            },
            "roots_s": folded["roots_s"],
            "unclosed": unclosed,
            "counters": dict(self.counters),
            "census": dict(self.census),
        }

    def flush(self) -> Path | None:
        """Write ``<run_id>.<pid>.json`` (summary) and ``.spans`` (raw) once."""
        if self._flushed:
            return None
        self._flushed = True
        summary = self.collect()
        if self.out_dir is None:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{self.run_id}.{os.getpid()}"
        header = {"run_id": self.run_id, "pid": os.getpid(),
                  "names": self.names, "count": len(self.start)}
        with open(self.out_dir / f"{stem}.spans", "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for buf in (self.name, self.parent, self.start, self.end):
                buf.tofile(fh)
        path = self.out_dir / f"{stem}.json"
        path.write_text(json.dumps(summary))
        return path


def load_spans(path: Path | str) -> list[tuple[str, int, float, float, str]]:
    """Read a ``.spans`` file back as ``(name, parent, start, end, run_id)`` rows."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for code in ("i", "i", "d", "d"):
            buf = array(code)
            buf.fromfile(fh, n)
            cols.append(buf)
    names = header["names"]
    run_id = header["run_id"]
    return [(names[cols[0][i]], cols[1][i], cols[2][i], cols[3][i], run_id) for i in range(n)]


def read_summaries(out_dir: Path | str) -> list[dict[str, Any]]:
    """Every per-process summary a traced run left in ``out_dir``."""
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("*.json"))]
