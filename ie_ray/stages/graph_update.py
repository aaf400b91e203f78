"""Incremental knowledge-graph maintenance: merge new pages into an
existing graph without recomputing history.

This module owns only the versioning; every count, majority and write
is the one-shot build's own (``stages/graph.py``).  The graph state is
kept in MERGEABLE form — per-(entity, label) mention counts and
per-(subj, pred, obj) edge counts — because both are associative sums:
``state(A ∪ B) == combine(state(A), state(B))``.  The display ``nodes``
table (majority surface form) is a VIEW derived from the label counts,
never merged directly (majorities don't compose; label counts do).

Update = ``union(state, delta partials)`` → ``graph.sum_counts`` — one
bucketed exchange per table, the sum ``build_edges`` runs — and the node
view is ``graph.majority``, the kernel ``build_nodes`` runs, so two
deltas give the rows ``build_nodes``/``build_edges`` give over their
union (pinned by ``tests/test_graph_update.py``).  Writes go through
``graph.write_partitioned`` into a versioned directory::

    out/
      CURRENT                    ← "vN", replaced atomically
      vN/node_labels/part=<k>/   ← state: (entity_id, label, n)
      vN/edges/part=<k>/         ← state: (subj_id, pred, obj_id, n)
      vN/nodes/part=<k>/         ← view: (entity_id, label, mentions)
      vN/manifests/<table>-<k>.json
      vN/manifest.json           ← version + per-table rows

A crashed update leaves the previous version intact and visible
(checkpoint-resume per the north rule).  At 10^12-document scale,
deltas touch a subset of hash partitions — filter the state read to
touched partitions to make the rewrite proportional to the delta, not
the corpus (the layout already hash-partitions by leading id).

Parity: the reference recomputes its graph from scratch per run
(``aws/__init__.py`` newsreader loop); incremental maintenance is a new
capability this engine adds for continuous-crawl operation.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Optional

import ray

from ie_ray.stages.graph import (edge_counts, label_counts, majority,
                                 sum_counts, write_partitioned)


def _current_version(out_dir: str) -> Optional[str]:
    cur = os.path.join(out_dir, "CURRENT")
    if not os.path.exists(cur):
        return None
    with open(cur) as f:
        return f.read().strip()


def _read_state(out_dir: str, version: str, name: str):
    path = os.path.join(out_dir, version, name)
    ds = ray.data.read_parquet(path)
    # drop the physical partition column so unions with fresh delta
    # partials are schema-identical
    return ds.map_batches(
        lambda t: t.drop_columns(["part"]) if "part" in t.column_names
        else t, batch_format="pyarrow")


def update_graph(out_dir: str, delta_triples_ds,
                 num_parts: int = 8) -> dict:
    """Merge a delta triples Dataset into the graph state at ``out_dir``.

    Returns the new version's manifest (version id + row counts, taken
    from the stamped per-partition manifests).  Safe to re-run after a
    crash: the previous version stays CURRENT until the new one is
    complete.
    """
    os.makedirs(out_dir, exist_ok=True)
    labels = delta_triples_ds.map_batches(label_counts,
                                          batch_format="pyarrow")
    edges = delta_triples_ds.map_batches(edge_counts, batch_format="pyarrow")
    cur = _current_version(out_dir)
    if cur is not None:
        labels = _read_state(out_dir, cur, "node_labels").union(labels)
        edges = _read_state(out_dir, cur, "edges").union(edges)
    # labels feed both the state and the node view — materialize once
    labels = sum_counts(labels, ["entity_id", "label"]).materialize()
    edges = sum_counts(edges, ["subj_id", "pred", "obj_id"])

    version = "v%d" % (int(cur[1:]) + 1 if cur else 1)
    vdir = os.path.join(out_dir, version)
    if os.path.isdir(vdir):
        # unpublished leftovers from a crashed attempt — stale files must
        # not mix with the rewrite
        shutil.rmtree(vdir)
    tables = {}
    for name, ds, key in (
            ("node_labels", labels, "entity_id"),
            ("edges", edges, "subj_id"),
            ("nodes", majority(labels, "label", "mentions"), "entity_id")):
        tables[name] = sum(m["rows"] for m in write_partitioned(
            ds, key, vdir, name, num_parts))
    manifest = {"version": version, "written_at": time.time(),
                "tables": tables}
    with open(os.path.join(vdir, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    # atomic publish: CURRENT flips only after the version is complete
    tmp = os.path.join(out_dir, "CURRENT.tmp")
    with open(tmp, "w") as f:
        f.write(version)
    os.replace(tmp, os.path.join(out_dir, "CURRENT"))
    return manifest


def read_graph(out_dir: str, name: str):
    """Read the CURRENT version of a graph table as a Dataset."""
    cur = _current_version(out_dir)
    if cur is None:
        raise FileNotFoundError("no CURRENT graph version in %s" % out_dir)
    return _read_state(out_dir, cur, name)
