"""Observability: structured tracing + metrics for training and inference.

Two process-global, **disabled-by-default** instruments:

* :data:`TRACER` — nested spans and point events written as JSONL
  (:mod:`repro.obs.trace`); enable with :func:`start_trace`/:func:`trace_to`
  or the CLI's ``--trace FILE``.
* :data:`METRICS` — a labeled registry of counters, gauges, timers and
  series with CSV/JSONL sinks (:mod:`repro.obs.metrics`); the CLI's
  ``--metrics FILE`` flips :attr:`MetricsRegistry.enabled` and writes the
  sink at exit.

Instrumented hot paths in ``sim``/``rl``/``schedulers`` guard every record
with a single attribute check (``if TRACER.enabled:``), keeping the
off-path overhead to one global load + one attribute read — see the
overhead contract in :mod:`repro.obs.trace` and the microbench in
``benchmarks/test_microbench.py``.  All wall-clock reads happen behind
:mod:`repro.obs.clock`, the repo's only ``perf_counter`` call site, which
keeps the RPR003 lint ("no wall clock in sim/nn/rl logic") enforceable.

``python -m repro report-run trace.jsonl --metrics m.csv`` renders a
trace+metrics pair into a markdown run report (:mod:`repro.obs.report`).
"""

from repro.obs import clock
from repro.obs.trace import (
    TRACE_FORMAT_VERSION,
    Span,
    Tracer,
    TRACER,
    start_trace,
    stop_trace,
    trace_to,
    tracing_enabled,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    METRICS,
    Series,
    Timer,
    get_registry,
    iter_series,
    load_metrics_rows,
    process_rss_mb,
    scalar_value,
)
from repro.obs.report import (
    TraceData,
    check_span_nesting,
    load_trace,
    render_report,
    write_report,
)

__all__ = [
    "clock",
    # tracing
    "TRACE_FORMAT_VERSION",
    "Span",
    "Tracer",
    "TRACER",
    "start_trace",
    "stop_trace",
    "trace_to",
    "tracing_enabled",
    # metrics
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "METRICS",
    "Series",
    "Timer",
    "get_registry",
    "iter_series",
    "load_metrics_rows",
    "process_rss_mb",
    "scalar_value",
    # reporting
    "TraceData",
    "check_span_nesting",
    "load_trace",
    "render_report",
    "write_report",
]
