"""Spans around the public functions of each odetorsion layer.

``Tracer.install`` wraps a function and rebinds the wrapper under every
name that refers to the original in an odetorsion module namespace, so
calls made through ``cli.check_conserved``, ``torsion.partial``, ``ex.build``
and the like are all seen.  Each wrapper records a span (name, start,
end, parent span, input id) in memory; self time is the span's duration
minus the time its child spans on the same thread cover.

``expr.build`` and ``calculus.partial`` recurse through their module
globals, so every recursive call passes through the wrapper: it counts
the visit and records a span only for the outermost call, which keeps
the span list DAG-sized while the visit counts stay exact.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, input, start, end, self)
        self._counters: list[Counter] = []  # one per thread, merged on read
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        counter[key] += 1

    @property
    def counts(self) -> Counter:
        out: Counter = Counter()
        for counter in self._counters:
            out.update(counter)
        return out

    def set_input(self, input_id: str) -> None:
        self._local.input = input_id

    def input(self) -> str:
        return getattr(self._local, "input", "")

    def wrap(self, name: str, fn, recursive: bool = False, on_result=None, on_enter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            tracer.count(name)
            if on_enter is not None:
                on_enter(args)
            if recursive and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else 0
            frame = [name, next(tracer._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                tracer.count(name + ".raised." + type(err).__name__)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                tracer.spans.append((frame[1], parent, name, tracer.input(),
                                     start, end, dur - frame[2]))
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module, attr: str, name: str, **kw) -> None:
        """Wrap module.attr and rebind it wherever odetorsion imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **kw)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "odetorsion" or modname.startswith("odetorsion.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    # -- aggregation --------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        wanted = set(names)
        return 1000.0 * sum(s[6] for s in self.spans if s[2] in wanted)

    def total_ms(self, *names: str) -> float:
        wanted = set(names)
        return 1000.0 * sum(s[5] - s[4] for s in self.spans if s[2] in wanted)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tinput\tstart_s\tend_s\tself_s\n")
            for s in self.spans:
                fh.write("%d\t%d\t%s\t%s\t%.9f\t%.9f\t%.9f\n" % s)
