"""Span tracer installed around whitadd's layer boundaries from the outside.

Each wrapped name is replaced where the calling module looks it up, so the
library's own code is untouched and every call between layers passes through
a wrapper.  A span is (name, start, end, parent), with wall-clock times;
spans live in flat arrays in memory and are written out once, after the
traced run.  A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from workloads import SCALAR_FNS, VERIFIERS

SERIES_SPAN = "summation.sum_series"


def layer_targets() -> list:
    """(module, attribute, span name) for every boundary the tracer wraps."""
    from whitadd import green, identities, scalar, special_core

    targets = [(mod, fn, "special_core." + fn)
               for mod in (special_core, identities, green) for fn in SCALAR_FNS
               if hasattr(mod, fn)]
    targets += [(mod, "sum_series", SERIES_SPAN) for mod in (identities, green)]
    targets += [(identities, v, "identities." + v.removeprefix("verify_")) for v in VERIFIERS]
    targets += [(green, fn, "green." + fn) for fn in ("hostler_green", "partial_wave_green")]
    targets.append((scalar, "ExtendedContext", "scalar.ExtendedContext"))
    return targets


class Tracer:
    def __init__(self, targets: list):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        # span index -> (terms, digits lost) of a sum_series call that
        # returned, or raised with its partial outcome attached
        self.series: dict[int, tuple] = {}
        self._stack = [-1]
        # (module, attribute, original, wrapper) for every target
        self._swaps = [(module, attr, getattr(module, attr),
                        self._wrap(span, getattr(module, attr)))
                       for module, attr, span in targets]
        self.restores_failed = 0

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        if isinstance(fn, type):
            return self._wrap_class(span, fn)
        tracer = self
        series = span == SERIES_SPAN

        def traced(*args, **kwargs):
            idx = tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                outcome = getattr(exc, "outcome", None)
                if series and outcome is not None:
                    tracer.series[idx] = (outcome.n_terms, outcome.digits_lost())
                raise
            finally:
                tracer.close(idx)
            if series:
                tracer.series[idx] = (out.n_terms, out.digits_lost())
            return out

        return traced

    def _wrap_class(self, span: str, cls):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                idx = tracer.open(span)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(idx)

        Traced.__name__, Traced.__qualname__ = cls.__name__, cls.__qualname__
        return Traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore and
        count any name that does not hold its original object again."""
        try:
            for module, attr, _, wrapper in self._swaps:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, orig, _ in self._swaps:
                setattr(module, attr, orig)
            self.restores_failed += any(getattr(module, attr) is not orig
                                        for module, attr, orig, _ in self._swaps)

    # -- analysis ----------------------------------------------------------

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def self_times(self) -> array:
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def by_name(self) -> dict[str, list[int]]:
        spans = defaultdict(list)
        for idx, nid in enumerate(self.name):
            spans[self.names[nid]].append(idx)
        return spans

    def children(self) -> dict[int, list[int]]:
        kids = defaultdict(list)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                kids[parent].append(idx)
        return kids

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "series": {str(k): v for k, v in self.series.items()},
        }))
