"""The pass-pipeline API: typed flow state, declarative flows,
pluggable scheduler backends.

* :class:`FlowContext` — the typed state every pass consumes and
  produces (:mod:`repro.pipeline.context`);
* :class:`ResourceTable` / :class:`PinLedger` — the unified per-chip
  module and pin accounting (:mod:`repro.pipeline.resource_table`);
* :mod:`repro.pipeline.passes` — the concrete passes the three
  chapter flows are composed from;
* :mod:`repro.pipeline.registry` — the flow registry
  (:class:`FlowSpec`, :func:`run_flow`) and the scheduler backend
  registry (:func:`register_scheduler`, :func:`scheduler_names`).

Third-party scheduler registration (see docs/api.md)::

    from repro.pipeline import register_scheduler

    def my_backend(graph, timing, rate, resources, hooks, budget,
                   diagnostics):
        ...  # return a finished repro.scheduling.base.Schedule

    register_scheduler("mine", my_backend,
                       flows=("simple", "connection-first"))

The name is then a valid ``SynthesisOptions.scheduler`` value, CLI
``--scheduler`` choice, explorer axis value, and differential-oracle
participant.
"""

from repro.pipeline.context import (FlowContext, STAT_COUNTERS,
                                    normalized_stats)
from repro.pipeline.resource_table import (PinLedger, ResourceTable,
                                           fits, pin_caps, usage_row)
from repro.pipeline.registry import (DEPRECATED_SCHEDULER_ALIASES,
                                     FlowSpec, SchedulerBackend,
                                     flow_spec, register_flow,
                                     register_scheduler,
                                     registered_flows,
                                     resolve_scheduler, run_flow,
                                     scheduler_backend,
                                     scheduler_names)

__all__ = [
    "FlowContext",
    "STAT_COUNTERS",
    "normalized_stats",
    "PinLedger",
    "ResourceTable",
    "fits",
    "pin_caps",
    "usage_row",
    "DEPRECATED_SCHEDULER_ALIASES",
    "FlowSpec",
    "SchedulerBackend",
    "flow_spec",
    "register_flow",
    "register_scheduler",
    "registered_flows",
    "resolve_scheduler",
    "run_flow",
    "scheduler_backend",
    "scheduler_names",
]
