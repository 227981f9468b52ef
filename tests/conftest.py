"""Fixtures shared across test modules."""

import pytest

from repro.pipeline import registry


def _early_consumer(graph, timing, rate, resources, hooks_factory,
                    budget, diagnostics):
    """The list schedule with one consumer pulled a step ahead of its
    producer: a scheduler bug every verifier must catch."""
    schedule = registry.scheduler_backend("list").run_scheduler(
        graph, timing, rate, resources, hooks_factory, budget, diagnostics)
    for edge in graph.edges():
        src, dst = graph.node(edge.src), graph.node(edge.dst)
        if edge.is_recursive() or src.is_free() or dst.is_free():
            continue
        step = schedule.step(edge.src) - 1
        schedule.start_step[edge.dst] = step
        schedule.start_ns[edge.dst] = step * timing.clock_period
        break
    return schedule


@pytest.fixture()
def early_consumer_backend(monkeypatch):
    """Register the ``early-consumer`` scheduler backend for one test;
    returns its name."""
    backend = registry.SchedulerBackend("early-consumer", _early_consumer)
    monkeypatch.setitem(registry._SCHEDULERS, backend.name, backend)
    return backend.name
