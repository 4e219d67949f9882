"""Observability: mediator tracing, metrics, space timelines, blame trails.

The substrate behind ``repro-gradual trace``, ``--trace``/``--metrics``,
the metrics-backed ``--profile``, and ``bench_space.py``'s exported
timeline series.  Four pieces:

* :mod:`~repro.obs.events` — the structured mediator lifecycle event schema;
* :mod:`~repro.obs.trace` — the single global hook the engines test
  (``current_tracer()``; zero cost when ``None``), and
  :mod:`~repro.obs.tracer` — the :class:`Tracer` behind it;
* :mod:`~repro.obs.sinks` — where events go (list, ring buffer, JSON
  lines, Chrome trace format);
* :mod:`~repro.obs.metrics` — counters/gauges/histograms/phase timers;
* :mod:`~repro.obs.timeline` / :mod:`~repro.obs.blame` — derived views:
  the ``steps × pending`` space series and blame provenance trails.

Nothing in this package imports an engine at module level — the engines
import *us* from inside their dispatch modules.
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "blame": ("blame_trail", "format_trail"),
    "events": ("EVENT_KINDS", "EVENT_TYPES", "describe_mediator", "event_from_dict",
               "mediator_labels"),
    "metrics": ("TIME_BUCKETS", "MetricsRegistry", "phase", "record_run"),
    "sinks": ("ChromeTraceSink", "JsonLinesSink", "ListSink", "RingBufferSink",
              "TeeSink"),
    "timeline": ("SpaceTimeline",),
    "trace": ("activate", "current_tracer", "deactivate", "tracing"),
    "tracer": ("Tracer",),
})

__all__ = [
    "EVENT_KINDS",
    "EVENT_TYPES",
    "ChromeTraceSink",
    "JsonLinesSink",
    "ListSink",
    "MetricsRegistry",
    "RingBufferSink",
    "SpaceTimeline",
    "TIME_BUCKETS",
    "TeeSink",
    "Tracer",
    "activate",
    "blame_trail",
    "current_tracer",
    "deactivate",
    "describe_mediator",
    "event_from_dict",
    "format_trail",
    "mediator_labels",
    "phase",
    "record_run",
    "tracing",
]
