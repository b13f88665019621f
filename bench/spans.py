"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own files only: either around a
call the benchmark makes itself (:meth:`Tracer.call`) or by replacing a
module attribute that one ``equipart`` module uses to call into another
(:meth:`Tracer.patch`), so the program under test is never edited.

Each span adds its duration to its name's total and to the enclosing span's
child time; a name's self time is its total minus that child time. Spans are
aggregated by name as they close rather than stored, because the scan
re-validates every recursion child and a ``deep-s`` pass opens ~170,000
spans.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: set[str] = set()
        self._child_time: list[float] = []

    def reset(self) -> None:
        """Drop the aggregates of the previous pass; keep the absent set."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = self._child_time.pop()
            self.total[name] += duration
            self.self_time[name] += duration - child
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += duration

    @contextmanager
    def patch(
        self,
        targets: list[tuple[Any, str, str, Callable[[Counter[str], tuple, Any], None] | None]],
    ) -> Iterator[None]:
        """Wrap ``module.attr`` in a span for each (module, attr, span, count).

        ``count(counts, args, result)`` runs after the span has closed, so
        counting is not billed to the layer. A target the module no longer
        has is recorded in :attr:`absent` instead of failing the run.
        """
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.add(f"{module.__name__}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn: Callable[..., Any], count: Callable | None) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced
