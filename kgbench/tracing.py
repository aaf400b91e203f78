"""Spans recorded from outside the engine.

Two kinds, both kept in memory and read when the run ends:

* Ray-side spans: while ``patched()`` is active, the stage callables that
  ``ie_ray.pipelines.kg`` hands to ``map_batches`` are replaced by wrappers
  that time each batch inside the worker and send ``(stage, start, end,
  rows_in, rows_out, pid)`` to one ``TraceSink`` actor.  The calls
  ``kg_full`` makes in this process are wrapped too: ``kg_triples`` (its
  start), and canonicalization, node/edge build and the write, each made to
  finish inside its own span.
* In-process spans: ``Spans`` times calls made directly in this process
  (``layers.py``).

No engine file changes; the patch is undone when the block exits.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, List

import ray

SINK_NAME = "kgbench-trace-sink"
STAGES = ("extract", "page_hash", "dedup_index", "segment", "parse_compose")

_sink = None


@ray.remote(num_cpus=0)
class TraceSink:
    def __init__(self):
        self.spans: List[tuple] = []

    def record(self, span: tuple) -> None:
        self.spans.append(span)

    def dump(self) -> List[tuple]:
        return self.spans


def _record(stage: str, t0: float, t1: float, n_in: int, n_out: int) -> None:
    global _sink
    if _sink is None:
        _sink = ray.get_actor(SINK_NAME)
    # synchronous, so every span has landed when the pipeline returns
    ray.get(_sink.record.remote((stage, t0, t1, n_in, n_out, os.getpid())))


def _traced_fn(stage: str, fn):
    def traced(batch):
        t0 = time.time()
        out = fn(batch)
        _record(stage, t0, time.time(), batch.num_rows, out.num_rows)
        return out
    traced.__name__ = fn.__name__
    return traced


def _traced_cls(stage: str, cls):
    class Traced(cls):
        def __call__(self, batch):
            t0 = time.time()
            out = super().__call__(batch)
            _record(stage, t0, time.time(), batch.num_rows, out.num_rows)
            return out
    Traced.__name__ = cls.__name__
    Traced.__qualname__ = cls.__qualname__
    return Traced


def _local_span(spans: list, name: str, fn, finish=None):
    def wrapped(*args, **kwargs):
        t0 = time.time()
        out = fn(*args, **kwargs)
        if finish is not None:
            out = finish(out)
        spans.append((name, t0, time.time(), out))
        return out
    return wrapped


def _materialize(ds):
    return ds.materialize()


class Trace:
    """Spans of this process ``[(name, start, end, result), ...]`` and the
    sink that collects worker spans."""

    def __init__(self):
        self.spans: list = []
        self.sink = None

    def span(self, name: str) -> tuple:
        return next(s for s in self.spans if s[0] == name)

    def seconds(self, prefix: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n.startswith(prefix))

    def worker_spans(self) -> List[tuple]:
        out = ray.get(self.sink.dump.remote())
        ray.kill(self.sink)
        return out


@contextlib.contextmanager
def patched():
    """Trace the flagship while the block runs; yields a ``Trace``."""
    import ie_ray.pipelines.kg as kg
    import ie_ray.stages.compose_stage as compose_stage
    import ie_ray.stages.dedup_index as dedup_index
    import ie_ray.stages.graph as graph
    import ie_ray.stages.link as link

    trace = Trace()
    spans = trace.spans
    patches = [
        (kg, "extract_text_batch", _traced_fn("extract",
                                              kg.extract_text_batch)),
        (kg, "add_page_hash", _traced_fn("page_hash", kg.add_page_hash)),
        (kg, "segment_batch", _traced_fn("segment", kg.segment_batch)),
        (dedup_index, "DedupFilter",
         _traced_cls("dedup_index", dedup_index.DedupFilter)),
        (compose_stage, "ParseComposeActor",
         _traced_cls("parse_compose", compose_stage.ParseComposeActor)),
        (kg, "kg_triples", _local_span(spans, "kg.triples", kg.kg_triples)),
        (link, "connected_components",
         _local_span(spans, "canon.components", link.connected_components,
                      _materialize)),
        (link, "canonicalize_ids_ds",
         _local_span(spans, "canon.relabel", link.canonicalize_ids_ds,
                      _materialize)),
        (graph, "build_nodes", _local_span(spans, "graph.build_nodes",
                                            graph.build_nodes, _materialize)),
        (graph, "build_edges", _local_span(spans, "graph.build_edges",
                                            graph.build_edges, _materialize)),
        (graph, "write_graph", _local_span(spans, "graph.write",
                                            graph.write_graph)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    trace.sink = TraceSink.options(name=SINK_NAME).remote()
    try:
        for mod, name, new in patches:
            setattr(mod, name, new)
        yield trace
    finally:
        for mod, name, old in saved:
            setattr(mod, name, old)


class Spans:
    """In-process spans: ``with spans("segment"): ...`` adds the block's
    seconds to that layer."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + \
                time.perf_counter() - t0
