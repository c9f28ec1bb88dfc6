"""In-memory timing spans recorded around calls into ``repro``'s layers.

A :class:`Tracer` installs wrappers at the module attribute (or class
attribute) through which a layer's public callable is looked up, so
the program itself is unchanged: ``repro.exec.backends.
simulate_graph_fast_batch`` becomes a traced function, and every
caller that resolves the name there records a span.  Calls made
inside pool workers are not seen, because workers import fresh
modules.

Spans nest per thread.  A span's self time is its duration minus the
durations of its direct children.  Recording is off until
:meth:`Tracer.enable`; a disabled wrapper costs one attribute lookup
per call.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from typing import Any, Callable, Iterable

__all__ = ["Span", "Tracer", "summarize"]


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    thread: str = ""
    #: What the call was about, where the wrapper was told how to read
    #: it (a result key for the service's request path).
    key: str = ""
    child_s: float = 0.0
    child_names: set[str] = dataclasses.field(default_factory=set)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


#: The serial kernel entry points, by the name ``repro.exec.backends``
#: resolves them under.
KERNELS = (
    "simulate_protocol_fast_batch",
    "simulate_graph_fast_batch",
    "simulate_strategy_fast_batch",
    "async_minagg_values",
    "async_min_ticks_batch",
    "run_async_leader_election_batch",
)

PLAN_COMPILERS = (
    "compile_honest_plan",
    "compile_deviation_plan",
    "compile_graph_plan",
    "compile_async_plan",
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._local = threading.local()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def traced(self, name: str, fn: Callable,
               key_of: Callable[[tuple, Any], str] | None = None
               ) -> Callable:
        """``fn`` wrapped to record a ``name`` span per call while
        enabled; ``key_of(args, result)`` gives the span's key."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, time.perf_counter(),
                        thread=threading.current_thread().name)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if key_of is not None:
                    span.key = key_of(args, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.duration
                    stack[-1].child_names.add(name)
                self.spans.append(span)

        return wrapper

    def install(self, owner: Any, attr: str, name: str,
                key_of: Callable[[tuple, Any], str] | None = None) -> None:
        """Replace ``owner.attr`` with its traced version."""
        setattr(owner, attr, self.traced(name, getattr(owner, attr), key_of))

    def install_batch_layers(self, store_put: str = "study.store_put"
                             ) -> None:
        """Trace workload sampling, plan compile, execution, kernels,
        reducers, experiment runners and result persistence."""
        import repro.exec.backends as backends
        import repro.experiments.dispatch as dispatch
        import repro.experiments.e10_extensions as e10
        import repro.experiments.registry as registry
        import repro.study as study
        import repro.workloads.cache as wcache
        from repro.service.store import ResultStore

        self.install(wcache, "sample_scenario_workload", "workloads.sample")
        self.install(e10, "cached_scenario_workload", "workloads.fetch")
        for fn in PLAN_COMPILERS:
            self.install(dispatch, fn, "exec.plan.compile")
        self.install(dispatch, "run_plan", "exec.run_plan")
        self.install(backends, "merge_shards", "exec.reducers.merge")
        self.install(backends, "merge_stubs", "exec.reducers.merge")
        for fn in KERNELS:
            self.install(backends, fn, "fastpath.kernel")
        self.install(study.StudyJournal, "append", "study.journal")
        self.install(ResultStore, "put", store_put)
        # Experiment runners are looked up through the registry by
        # run_experiment, Study and the service daemon alike.
        for name in ("e1", "e7", "e10"):
            spec = registry.get_experiment(name)
            registry._REGISTRY[name] = dataclasses.replace(
                spec, run=self.traced("experiments.run", spec.run)
            )

    def install_service_layers(self) -> None:
        """The batch layers plus the service's request path."""
        from repro.service.api import ExperimentService
        from repro.service.store import ResultStore

        self.install_batch_layers(store_put="service.store.put")
        # Both are keyed by the result key, so a reader can pick out
        # the requests of one stream.
        self.install(ExperimentService, "submit", "service.api.submit",
                     key_of=lambda args, res: res[1]["key"])
        self.install(ResultStore, "get_document",
                     "service.store.get_document",
                     key_of=lambda args, res: args[1] if len(args) > 1
                     else "")

    def dump(self, path: str) -> None:
        """Write the spans as a JSON list of
        ``[name, start, end, self_s, thread, key]`` rows."""
        rows = [[s.name, s.start, s.end, s.self_s, s.thread, s.key]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def summarize(recorded: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for span in recorded:
        agg = out.setdefault(span.name, {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += span.duration
        agg["self_s"] += span.self_s
    return out
