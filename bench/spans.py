"""In-memory span recorder for the traced run.

Tracing wraps public functions of the program from outside: ``install``
replaces a class or module attribute with a wrapper that records one span
(name, start, end, parent span, operation id) per call, and ``uninstall``
puts the originals back.  Nothing is wrapped unless a tracer is installed,
so an untraced run executes the program exactly as shipped.

Spans are kept in flat arrays and written out once, when the run ends.  A
layer's self time is its span's duration minus the part of that interval its
child spans cover.
"""
from __future__ import annotations

import inspect
import json
import threading
import time
from array import array
from collections import defaultdict

_ns = time.perf_counter_ns

# at most this many spans go into the trace file; metrics use every span
WRITE_LIMIT = 200_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1  # -1 while no timed operation runs (set-up, checks)
        self.counters: dict[str, float] = defaultdict(float)
        self._stacks = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._stacks, "stack", None)
        if st is None:
            st = self._stacks.stack = []
        return st

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        # a span opened by a worker thread with nothing open of its own hangs
        # off whatever the main thread is waiting in
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if (stack is not self._main_stack and self._main_stack) else -1
        with self._lock:
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0)
            self.start.append(_ns())
        stack.append(i)
        return i

    def finish(self, i: int) -> None:
        self.end[i] = _ns()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.op_id >= 0:
            with self._lock:
                self.counters[name] += amount

    def outermost(self, prefix: str) -> bool:
        """True when no open span of this thread has a name with this prefix."""
        return not any(self.names[self.name_id[j]].startswith(prefix) for j in self._stack())

    # -- wrapping ----------------------------------------------------------

    def install(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap owner.attr so each call records a span; on_result(tracer, result)
        runs after the span closes, for counts taken from the result."""
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        tracer = self

        def wrapper(*args, **kwargs):
            outer = on_result is not None and tracer.outermost(name.split(".")[0] + ".")
            i = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if outer:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (total self ns, calls), over spans inside timed operations."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for i, nid in enumerate(self.name_id):
            if self.op[i] < 0:
                continue
            s, e = self.start[i], self.end[i]
            covered = 0
            cur_s = cur_e = None
            for c in sorted(children.get(i, ()), key=lambda c: self.start[c]):
                cs, ce = max(self.start[c], s), min(self.end[c], e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            acc = out[self.names[nid]]
            acc[0] += (e - s) - covered
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def inclusive_times(self) -> dict[str, int]:
        """name -> total wall ns of its outermost spans (nested repeats counted once)."""
        out: dict[str, int] = defaultdict(int)
        for i, nid in enumerate(self.name_id):
            if self.op[i] < 0:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                out[self.names[nid]] += self.end[i] - self.start[i]
        return dict(out)

    def write(self, path) -> None:
        n = len(self.start)
        with open(path, "w") as f:
            f.write(json.dumps({"spans": n, "written": min(n, WRITE_LIMIT),
                                "counters": dict(self.counters)}) + "\n")
            for i in range(min(n, WRITE_LIMIT)):
                f.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i], "end_ns": self.end[i],
                    "parent": self.parent[i], "op": self.op[i],
                }) + "\n")
