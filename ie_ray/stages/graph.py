"""Graph materialization: deduplicated node and edge Parquet tables with
per-partition lineage manifests.

This module is the one owner of the graph's aggregation and write; the
one-shot build (``build_nodes``/``build_edges``/``write_graph``) and the
incremental one (``graph_update.update_graph``) share every piece:

- Arrow partials, pre-combined inside each block: ``label_counts``
  (entity_id, label, n), ``edge_counts`` (subj_id, pred, obj_id, n) and
  ``type_votes`` (entity_id, etype, n);
- one count sum, ``sum_counts`` (one bucketed exchange);
- one majority kernel, ``majority`` (one bucketed exchange keyed on
  entity_id: sum per (entity_id, value), then the top value by
  (count desc, value desc)) — node labels and entity types.  A bucket
  holds at most blocks × distinct values rows per entity;
- one partitioned writer, ``write_partitioned`` (md5[:4] of the leading
  id mod ``num_parts``, then ``stamp_manifest`` per partition).

Output layout (north_rule: "resumable from checkpoint with per-partition
lineage + metrics")::

    out/
      nodes/part=<k>/*.parquet
      edges/part=<k>/*.parquet
      manifests/<table>-<k>.json  ← row count from the Parquet footers
      quarantine/*.parquet        ← parse/compose failures (rows are data)

Resume: nothing here skips work.  ``pipelines/kg.py::kg_full`` resumes
from its landed triple shards (``stamp_manifest`` records each one) and
always rebuilds and rewrites the graph from them.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

_EDGE_KINDS = pa.array(["arg", "aka", "poss"], type=pa.string())
_NO_VOTE_KINDS = pa.array(["quarantine", "empty"], type=pa.string())


# ---------------------------------------------------------------------------
# shared aggregation: per-block Arrow partials, one sum, one majority
# ---------------------------------------------------------------------------

def label_counts(batch: pa.Table) -> pa.Table:
    """(entity_id, label, n) for one block: both triple ends, null ids
    dropped, a null label counted as ``""``, pre-combined by Arrow's
    hash aggregation so a hot entity reduces to one row per distinct
    label per block before any exchange."""
    ends = pa.concat_tables([
        pa.table({"entity_id": batch.column("subj_id"),
                  "label": batch.column("subj")}),
        pa.table({"entity_id": batch.column("obj_id"),
                  "label": batch.column("obj")})])
    ends = ends.filter(pc.is_valid(ends.column("entity_id")))
    ends = ends.set_column(1, "label",
                           pc.fill_null(ends.column("label"), ""))
    g = ends.group_by(["entity_id", "label"]).aggregate(
        [([], "count_all")])
    return g.rename_columns(["entity_id", "label", "n"])


def edge_counts(batch: pa.Table) -> pa.Table:
    """(subj_id, pred, obj_id, n) for one block: arg/aka/poss rows with
    both ends set, pre-combined per block like :func:`label_counts`."""
    mask = pc.and_(
        pc.and_(pc.is_valid(batch.column("subj_id")),
                pc.is_valid(batch.column("obj_id"))),
        pc.is_in(batch.column("kind"), value_set=_EDGE_KINDS))
    g = batch.filter(mask).group_by(["subj_id", "pred", "obj_id"]) \
        .aggregate([([], "count_all")])
    return g.rename_columns(["subj_id", "pred", "obj_id", "n"])


def sum_counts(counts_ds, keys):
    """Sum ``n`` per ``keys`` over every block: one bucketed exchange
    (the key domains are graph-sized, where Ray's sort groupby pays
    per-group Python cost).  Columns: ``keys`` then ``n`` (int64)."""
    from ie_ray.stages.relational import bucketed_aggregate

    def rename(t: pa.Table) -> pa.Table:
        cols = {k: t.column(k) for k in keys}
        cols["n"] = t.column("n_sum").cast(pa.int64())
        return pa.table(cols)

    return bucketed_aggregate(counts_ds, keys, [("n", "sum")]) \
        .map_batches(rename, batch_format="pyarrow")


def majority(counts_ds, value: str, total: str):
    """(entity_id, ``value``, ``total``): per entity, the ``value`` with
    the largest summed ``n`` (ties: the larger value) and the sum of all
    its ``n``.

    ONE bucketed exchange keyed on entity_id: every row of an entity
    lands in one bucket, where one polars pass first sums ``n`` per
    (entity_id, value) — the input may hold one partial row per block —
    and then takes the top row.  A bucket holds at most blocks ×
    distinct values rows per entity, not its mention count."""
    from ie_ray.stages.relational import bucketed_map_groups

    def kernel(g: pa.Table) -> pa.Table:
        import polars as pl
        out = (pl.from_arrow(g)
               .group_by(["entity_id", value]).agg(pl.col("n").sum())
               .group_by("entity_id").agg(
                   pl.col(value).sort_by(["n", value],
                                         descending=[True, True]).first(),
                   pl.col("n").sum().alias(total))
               .to_arrow())
        return pa.table({
            "entity_id": out.column("entity_id").cast(pa.string()),
            value: out.column(value).cast(pa.string()),
            total: out.column(total).cast(pa.int64())})

    return bucketed_map_groups(counts_ds, "entity_id", kernel)


def build_edges(triples_ds):
    """(subj_id, pred, obj_id) → deduplicated with counts: per-block
    :func:`edge_counts`, then one :func:`sum_counts` exchange."""
    return sum_counts(
        triples_ds.map_batches(edge_counts, batch_format="pyarrow"),
        ["subj_id", "pred", "obj_id"])


def build_nodes(triples_ds):
    """Distinct entities with mention counts and the majority surface form.

    Skew-safe in one exchange: mentions are pre-counted per
    (entity_id, label) INSIDE each block (:func:`label_counts`), so a hot
    entity that appears on billions of pages reduces to one row per
    distinct label per block, and :func:`majority` buckets those partials
    on entity_id alone — its bucket holds at most blocks × distinct labels
    rows per entity, not the mention count (the "salted hot key"
    requirement of the north rule, SURVEY.md §4).
    """
    return majority(
        triples_ds.map_batches(label_counts, batch_format="pyarrow"),
        "label", "mentions")


_ORG_SUFFIXES = {"Corp", "Corp.", "Inc", "Inc.", "Ltd", "Ltd.", "Co",
                 "Co.", "Industries", "Group", "Holdings", "Partners",
                 "Bank", "Capital"}


def _mention_type(label: str) -> str:
    """Shape-based type vote for ONE mention surface form (public
    NER-lite heuristics: corporate suffix ⇒ org; capitalized name —
    the proper-name merge emits them hyphen-joined, e.g.
    ``Sofia-Marbury`` — ⇒ person; lowercase ⇒ concept)."""
    toks = [t for t in re.split(r"[-\s]+", label) if t]
    if not toks:
        return "other"
    if toks[-1] in _ORG_SUFFIXES:
        return "org"
    if all(t[:1].isupper() for t in toks) and len(toks) <= 3:
        return "person"
    if label.islower():
        return "concept"
    return "other"


def type_votes(batch: pa.Table) -> pa.Table:
    """(entity_id, etype, n) for one block: every mention of a row whose
    ``kind`` is not ``quarantine``/``empty`` (a null kind votes) casts
    the vote of its surface form.  :func:`_mention_type` runs once per
    distinct label of the block's dictionary, not once per row."""
    keep = pc.invert(pc.is_in(batch.column("kind"),
                              value_set=_NO_VOTE_KINDS))
    labels = label_counts(batch.filter(keep))
    enc = labels.column("label").combine_chunks().dictionary_encode()
    types = pa.array([_mention_type(s) for s in enc.dictionary.to_pylist()],
                     type=pa.string())
    votes = pa.table({"entity_id": labels.column("entity_id"),
                      "etype": types.take(enc.indices),
                      "n": labels.column("n")})
    g = votes.group_by(["entity_id", "etype"]).aggregate([("n", "sum")])
    return g.rename_columns(["entity_id", "etype", "n"])


def type_entities(triples_ds):
    """(entity_id, etype, evidence) — majority-vote entity typing over
    every mention in the triple stream.

    Same shape as :func:`build_nodes`: votes are pre-counted per
    (entity_id, etype) INSIDE each block (:func:`type_votes`), so a hot
    entity's 10^9 mentions reduce to ≤ 4 rows per block, and the one
    :func:`majority` exchange sees at most blocks × 4 rows per entity.
    Ties break deterministically (higher count, then type name).
    """
    return majority(
        triples_ds.map_batches(type_votes, batch_format="pyarrow"),
        "etype", "evidence")


# ---------------------------------------------------------------------------
# partitioned writes + manifests
# ---------------------------------------------------------------------------

def manifest_path(out_dir: str, part: str) -> str:
    return os.path.join(out_dir, "manifests", "%s.json" % part)


def stamp_manifest(out_dir: str, part: str, table: str, data_dir: str,
                   inputs=()) -> dict:
    """Write ``out_dir/manifests/<part>.json`` atomically: the rows of the
    Parquet footers under ``data_dir`` and the ``inputs`` it came from."""
    rows = sum(pq.ParquetFile(os.path.join(data_dir, f)).metadata.num_rows
               for f in os.listdir(data_dir) if f.endswith(".parquet"))
    man = {"partition": part, "table": table, "rows": rows,
           "inputs": list(inputs), "written_at": time.time()}
    os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)
    mp = manifest_path(out_dir, part)
    with open(mp + ".tmp", "w") as f:
        json.dump(man, f)
    os.replace(mp + ".tmp", mp)
    return man


def write_partitioned(ds, key: str, out_dir: str, name: str,
                      num_parts: int) -> list:
    """Write ``ds`` to ``out_dir/<name>/part=<k>/`` with k = md5[:4] of
    ``key`` mod ``num_parts``, then stamp ``manifests/<name>-<k>.json``
    per partition; returns the manifests.

    The partition column is computed inside ``map_batches`` and the write
    is Ray Data's distributed ``write_parquet(partition_cols=...)`` — the
    driver only reads Parquet footers afterwards (no data pulled to the
    driver)."""

    def add_part(batch: pa.Table) -> pa.Table:
        # md5 paid once per DISTINCT id (hub entities repeat across
        # millions of rows) — dictionary-encode, hash uniques, gather
        import numpy as np
        enc = batch.column(key).combine_chunks().dictionary_encode()
        uniq = np.fromiter(
            (int(hashlib.md5(s.encode()).hexdigest()[:4], 16) % num_parts
             for s in enc.dictionary.to_pylist()),
            dtype=np.int32, count=len(enc.dictionary))
        parts = uniq[np.asarray(enc.indices, dtype=np.int64)] \
            if len(uniq) else np.empty(0, dtype=np.int32)
        return batch.append_column("part", pa.array(parts, type=pa.int32()))

    path = os.path.join(out_dir, name)
    ds.map_batches(add_part, batch_format="pyarrow") \
      .write_parquet(path, partition_cols=["part"])
    os.makedirs(path, exist_ok=True)  # empty dataset writes nothing
    return [stamp_manifest(out_dir, "%s-%s" % (name, d.split("=", 1)[1]),
                           name, os.path.join(path, d))
            for d in sorted(os.listdir(path)) if d.startswith("part=")]


def write_graph(nodes_ds, edges_ds, out_dir: str, num_parts: int = 8):
    """Write node/edge tables hash-partitioned by the leading id
    (:func:`write_partitioned`).  The caller clears ``nodes/``,
    ``edges/`` and ``manifests/`` first: a write into an existing table
    adds files beside the old ones."""
    return {"nodes": write_partitioned(nodes_ds, "entity_id", out_dir,
                                       "nodes", num_parts),
            "edges": write_partitioned(edges_ds, "subj_id", out_dir,
                                       "edges", num_parts)}


def co_mention_pairs(triples_ds, k: int = 50):
    """Top-k entity pairs co-mentioned in the same sentence — the
    co-occurrence signal KG construction uses for relatedness edges.

    ``n`` is the number of distinct sentences (by ``sent_hash``) that
    mention both entities.  Partitioning assumption (same one the
    flagship's counting relies on): a sentence's triple rows are emitted
    contiguously by ONE compose task and never split, so per-sentence
    entity sets build block-locally.  Pairs per sentence are bounded by
    the ≤250-word sentence cap (O(entities²) ≈ tens).  A recurring
    sentence may sit in several blocks, so each block emits its distinct
    (pair, sentence) rows and ONE bounded exchange counts distinct
    sentences per pair; the result does not depend on the block layout.
    Ties break on the pair id.
    """

    def pairs(batch: pa.Table) -> pa.Table:
        per_sent: dict = {}
        for h, sid, oid in zip(batch.column("sent_hash").to_pylist(),
                               batch.column("subj_id").to_pylist(),
                               batch.column("obj_id").to_pylist()):
            s = per_sent.setdefault(h, set())
            if sid is not None:
                s.add(sid)
            if oid is not None:
                s.add(oid)
        rows = []
        for h, ents in per_sent.items():
            es = sorted(ents)
            rows.extend((es[i], es[j], h) for i in range(len(es))
                        for j in range(i + 1, len(es)))
        return pa.table({
            "ent_a": pa.array([x[0] for x in rows], type=pa.string()),
            "ent_b": pa.array([x[1] for x in rows], type=pa.string()),
            "sent_hash": pa.array([x[2] for x in rows], type=pa.string())})

    from ie_ray.stages.relational import bucketed_aggregate
    agg = bucketed_aggregate(
        triples_ds.map_batches(pairs, batch_format="pyarrow"),
        ["ent_a", "ent_b"], [("sent_hash", "count_distinct")]) \
        .map_batches(lambda t: pa.table({
            "ent_a": t.column("ent_a"), "ent_b": t.column("ent_b"),
            "n": t.column("sent_hash_count_distinct").cast(pa.int64())}),
            batch_format="pyarrow")
    return agg.sort(["n", "ent_a", "ent_b"],
                    descending=[True, False, False]).limit(k)


def khop_subgraph(edges_ds, seeds, hops: int = 2):
    """K-hop neighborhood extraction around seed entities — the
    "expand this entity's subgraph" primitive of every KG-serving
    path (cf. the reference's wiki-page neighborhood views).

    Each hop is ONE streaming pass over the edge set: the current
    frontier (an entity-id set) is broadcast via ``ray.put`` and every
    edge block keeps rows touching it with a vectorized ``pc.is_in``
    probe — no edge exchange, no driver-side adjacency.  The next
    frontier is the touched endpoints minus everything visited,
    reduced through the distinct-combine path (bounded pull: the
    frontier itself, which the broadcast already requires to fit).

    Scale contract (documented per the custom-operator rule): hop
    count ≤ ~3 and frontier must fit a worker — on a web graph a hub
    in the frontier explodes hop 2; callers cap degree upstream
    (``build_edges`` already pre-counts, so a degree filter is one
    predicate).  Returns the deduplicated touched edge rows: an edge
    picked up on several hops is kept once, through one bucketed
    exchange keyed on ``subj_id`` (every copy of a row shares its
    subj_id, so all copies meet in one bucket; the touched edge set may
    be graph-sized, so no single reducer task).
    """
    import numpy as np
    import ray

    from ie_ray.stages.relational import bucketed_map_groups, lowcard_combine

    edges = edges_ds.materialize()   # probed once per hop
    visited = np.unique(np.asarray(list(seeds), dtype=object))
    frontier = visited
    touched = []
    for _ in range(hops):
        if len(frontier) == 0:
            break
        # broadcast the frontier as a READY Arrow array: per-batch
        # cost is just the is_in probe (review finding r5s4 — the
        # per-batch set->sorted->Arrow rebuild was O(|F| log |F|)
        # per block)
        fref = ray.put(pa.array(sorted(frontier.tolist()),
                                type=pa.string()))

        def touch(t: pa.Table, _fref=fref) -> pa.Table:
            fset = ray.get(_fref)
            m = pc.or_(pc.is_in(t.column("subj_id"), value_set=fset),
                       pc.is_in(t.column("obj_id"), value_set=fset))
            return t.filter(m)

        hop_edges = edges.map_batches(
            touch, batch_format="pyarrow").materialize()
        touched.append(hop_edges)

        def ends(t: pa.Table) -> pa.Table:
            both = pa.concat_arrays([
                t.column("subj_id").combine_chunks().cast(pa.string()),
                t.column("obj_id").combine_chunks().cast(pa.string())])
            return pa.table({"node": both.unique()})

        def ends_combine(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t.column("node").combine_chunks().unique()})

        nodes = lowcard_combine(hop_edges, ends,
                                final_fn=ends_combine,
                                combine_fn=ends_combine).take_all()
        reached = np.unique(np.asarray(
            [r["node"] for r in nodes], dtype=object))
        frontier = np.setdiff1d(reached, visited)
        visited = np.union1d(visited, reached)

    if not touched:
        return edges.limit(0)
    out = touched[0]
    for extra in touched[1:]:
        out = out.union(extra)
    cols = edges_ds.schema(fetch_if_missing=True).names

    def dedup(t: pa.Table) -> pa.Table:
        return t.group_by(cols).aggregate([]).select(cols)

    return bucketed_map_groups(out, "subj_id", dedup)
