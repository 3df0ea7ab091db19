"""Span tracer that wraps public functions of the ``plcd`` package from outside.

A wrapped call opens a span (name, start, end, parent span, run id) and
closes it when the call returns. Spans are kept in memory and written out
once, when the run ends; past ``SPAN_RECORD_CAP`` calls of one name only its
per-name counters grow, so hot functions such as ``RegionProjector.embed``
cost a counter update instead of a record. Self time is a span's duration
minus the time its child spans cover.

A function is wrapped in its defining module and in every loaded ``plcd``
module that imported it by name, so a call through ``diffusion.rank_gallery``
is seen as well as one through ``ranking.rank_gallery``. A method is wrapped
on its class, which every importer shares. A target that no longer exists
is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

SPAN_RECORD_CAP = 1000


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        calls = self.calls.get(name, 0) + 1
        self.calls[name] = calls
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if calls <= SPAN_RECORD_CAP:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return traced

    def wrap(self, target: str, on_result=None) -> None:
        """Wrap ``module.function`` or ``module.Class.method`` of ``plcd``."""
        module_name, _, attr_path = target.partition(".")
        module = sys.modules.get(f"plcd.{module_name}")
        owner_name, _, method = attr_path.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(method)
        else:
            original = None if owner is None else getattr(owner, method, None)
        if original is None:
            if target not in self.absent:
                self.absent.append(target)
            return
        wrapped = self._wrapper(target, original, on_result)
        if owner_name:
            self._patch(owner, method, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "plcd" or mod_name.startswith("plcd."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        payload = {
            "run_id": self.run_id,
            "absent": self.absent,
            "per_name": {name: {"calls": self.calls[name],
                                "total_s": self.total_s[name],
                                "self_s": self.self_s[name]}
                         for name in sorted(self.calls)},
            "counters": self.counters,
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
