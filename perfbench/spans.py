"""Outside-in layer spans: time a layer by wrapping its public functions.

The benchmark never turns on ``repro.obs.TRACER``: with the tracer on,
``VecSchedulingEnv.step`` leaves the fused wave loop, so a trace would
profile a path that training does not run.  Instead the traced phase of a
run replaces chosen functions (class attributes or module-level names at
their import sites) with timing wrappers defined here, in the benchmark's
own code.

Each wrapped call is a span.  A span's *self* time is its duration minus
the time covered by spans opened inside it, so the self times of all spans
partition the covered part of the wall clock and the remainder is
unattributed.  A span opened inside another span of the same name (a
subclass ``build`` calling ``super().build``) merges into the outer one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

Observer = Callable[[tuple, dict, Any], None]
Counter = Callable[[tuple, dict, Any], float]


class LayerStat:
    """Totals of one span name."""

    __slots__ = ("calls", "total", "self_time", "items", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0.0
        self.depth = 0


class SpanRecorder:
    """In-memory span totals keyed by layer name."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStat] = {}
        self._children: List[float] = []

    def stat(self, name: str) -> LayerStat:
        if name not in self.stats:
            self.stats[name] = LayerStat()
        return self.stats[name]

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Counter] = None,
        observe: Optional[Observer] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``count`` returns the items a call handled (observations built,
        batch size), counted on the outermost span of ``name`` only;
        ``observe`` sees every outermost call's arguments and result.
        """
        original = getattr(owner, attr)
        stat = self.stat(name)
        children = self._children
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = stat.depth == 0
            stat.depth += 1
            children.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat.depth -= 1
                stat.self_time += elapsed - inner
                if outer:
                    stat.calls += 1
                    stat.total += elapsed
            if outer:
                if count is not None:
                    stat.items += count(args, kwargs, result)
                if observe is not None:
                    observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def covered(self) -> float:
        """Wall time covered by any span (the sum of self times)."""
        return sum(s.self_time for s in self.stats.values())

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": s.calls,
                "total": s.total,
                "self": s.self_time,
                "items": s.items,
            }
            for name, s in self.stats.items()
        }
