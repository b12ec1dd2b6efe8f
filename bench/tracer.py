"""Spans around library functions, installed from outside the package.

``Tracer.install`` replaces every binding of each target: a function copied
into other modules by ``from x import f`` has one binding per module, and a
class dunder can have aliases such as ``__rmul__ = __mul__``.  Each call
records a span (name, start, end, parent span) in flat in-memory arrays;
a generator function gets one span per resumption, so its self time covers
only the time spent inside it.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Target:
    """One traced function.  ``owner`` is the class for a method, None for a
    module-level function (then every module under ``packages`` is scanned
    for bindings).  ``on_call(stats, args, result)`` may add per-call counts;
    ``snapshot(stats)`` adds counts read once at the end."""

    name: str
    owner: type | None
    original: Callable
    on_call: Callable[[dict, tuple, object], None] | None = None
    snapshot: Callable[[dict], None] | None = None
    stats: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, targets: list[Target], packages: tuple[str, ...], clock=time.perf_counter):
        self.targets = targets
        self.packages = packages
        self.clock = clock
        self.calls = [0] * len(targets)
        # span i: name index, start, end, index of the enclosing span (-1: none)
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    # -- bindings -----------------------------------------------------------

    def _owners(self, target: Target):
        if target.owner is not None:
            return [target.owner]
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and any(name == p or name.startswith(p + ".") for p in self.packages)
        ]

    def bindings(self, target: Target) -> list[tuple[object, str]]:
        """Every (owner, attribute) whose value is the target's original."""
        found = []
        for owner in self._owners(target):
            for attr, value in list(vars(owner).items()):
                if value is target.original:
                    found.append((owner, attr))
        return found

    def install(self) -> None:
        for index, target in enumerate(self.targets):
            wrapper = self._wrap(index, target)
            for owner, attr in self.bindings(target):
                self._installed.append((owner, attr, target.original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans --------------------------------------------------------------

    def _open(self, index: int) -> int:
        span = len(self.names)
        self.names.append(index)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(self.clock())
        return span

    def _close(self, span: int) -> None:
        self.ends[span] = self.clock()
        self._stack.pop()

    def _wrap(self, index: int, target: Target) -> Callable:
        original, on_call = target.original, target.on_call
        calls = self.calls

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                calls[index] += 1
                inner = original(*args, **kwargs)
                while True:
                    span = self._open(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[index] += 1
            span = self._open(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if on_call is not None:
                on_call(target.stats, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per target: total span time minus the time of its direct child spans."""
        out = [0.0] * len(self.targets)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        for span in range(len(names)):
            duration = ends[span] - starts[span]
            out[names[span]] += duration
            parent = parents[span]
            if parent >= 0:
                out[names[parent]] -= duration
        return out

    def report(self) -> dict[str, float | int]:
        """``<name>.calls``, ``<name>.self_s`` and each target's extra counts."""
        out: dict[str, float | int] = {}
        for target, calls, self_s in zip(self.targets, self.calls, self.self_times()):
            if target.snapshot is not None:
                target.snapshot(target.stats)
            out[f"{target.name}.calls"] = calls
            out[f"{target.name}.self_s"] = self_s
            for key, value in target.stats.items():
                out[f"{target.name}.{key}"] = value
        return out
