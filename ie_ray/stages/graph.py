"""Graph materialization: deduplicated node and edge Parquet tables with
per-partition lineage manifests.

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


def build_edges(triples_ds):
    """(subj_id, pred, obj_id) → deduplicated with counts.

    Counts pre-combine inside each block (Arrow C++ hash aggregation),
    so a hot entity's billions of mentions reduce to one row per
    (block × key) before the exchange; the global sum then runs through
    the bucketed path because the distinct-triple key domain is
    corpus-sized.
    """
    def prep(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.is_valid(batch.column("subj_id")),
                    pc.is_valid(batch.column("obj_id"))),
            pc.is_in(batch.column("kind"), value_set=_EDGE_KINDS))
        return batch.filter(mask).select(["subj_id", "pred", "obj_id"])

    def block_counts(t: pa.Table) -> pa.Table:
        # pre-combine per block (Arrow C++ hash agg) so a hot entity's
        # mentions reduce to one row per (block × key) before the shuffle
        g = t.group_by(["subj_id", "pred", "obj_id"]).aggregate(
            [("pred", "count")])
        return g.rename_columns(["subj_id", "pred", "obj_id", "n"])

    from ie_ray.stages.relational import bucketed_aggregate
    prepped = triples_ds.map_batches(prep, batch_format="pyarrow") \
        .map_batches(block_counts, batch_format="pyarrow")
    # the distinct-triple key domain is corpus-sized — sum through the
    # bucketed path (Ray's sort groupby pays per-group Python cost there)
    return bucketed_aggregate(
        prepped, ["subj_id", "pred", "obj_id"], [("n", "sum")]) \
        .map_batches(lambda t: pa.table({
            "subj_id": t.column("subj_id"), "pred": t.column("pred"),
            "obj_id": t.column("obj_id"),
            "n": t.column("n_sum").cast(pa.int64())}),
            batch_format="pyarrow")


def build_nodes(triples_ds):
    """Distinct entities with mention counts and the majority surface form.

    Skew-safe two-stage aggregation: mentions are pre-counted per
    (entity_id, label) INSIDE each batch before any shuffle, so a hot entity
    that appears on billions of pages reduces to one row per distinct label
    per block — the per-entity group the final reduce sees is bounded by the
    number of distinct surface forms, not the mention count (the "salted
    hot key" requirement of the north rule, SURVEY.md §4).
    """
    def partial_counts(batch: pa.Table) -> pa.Table:
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

    from ie_ray.stages.relational import (bucketed_aggregate,
                                          bucketed_map_groups)
    per_label = bucketed_aggregate(
        triples_ds.map_batches(partial_counts, batch_format="pyarrow"),
        ["entity_id", "label"], [("n", "sum")])

    def bucket_nodes(g: pa.Table) -> pa.Table:
        # vectorized per-bucket argmax: best label = max (count, label),
        # identical tie-break to the previous per-group reducer
        import polars as pl
        df = pl.from_arrow(g)
        out = df.group_by("entity_id").agg(
            pl.col("label").sort_by(["n_sum", "label"],
                                    descending=[True, True]).first()
            .alias("label"),
            pl.col("n_sum").sum().alias("mentions"))
        t = out.to_arrow()
        return pa.table({
            "entity_id": t.column("entity_id").cast(pa.string()),
            "label": t.column("label").cast(pa.string()),
            "mentions": t.column("mentions").cast(pa.int64())})

    return bucketed_map_groups(per_label, "entity_id", bucket_nodes)


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


def type_entities(triples_ds):
    """(entity_id, etype, evidence) — majority-vote entity typing over
    every mention in the triple stream.

    Same skew discipline as :func:`build_nodes`: votes are pre-counted
    per (entity_id, etype) INSIDE each block, so a hot entity's 10^9
    mentions reduce to ≤ 4 rows per block, and the final per-entity
    group is bounded by the number of types, not the mention count.
    Ties break deterministically (higher count, then type name).
    """

    def votes(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for sid, s, oid, o, k in zip(batch.column("subj_id").to_pylist(),
                                     batch.column("subj").to_pylist(),
                                     batch.column("obj_id").to_pylist(),
                                     batch.column("obj").to_pylist(),
                                     batch.column("kind").to_pylist()):
            if k in ("quarantine", "empty"):
                continue
            if sid is not None:
                key = (sid, _mention_type(s or ""))
                counts[key] = counts.get(key, 0) + 1
            if oid is not None:
                key = (oid, _mention_type(o or ""))
                counts[key] = counts.get(key, 0) + 1
        keys = sorted(counts)
        return pa.table({
            "entity_id": pa.array([k[0] for k in keys], type=pa.string()),
            "etype": pa.array([k[1] for k in keys], type=pa.string()),
            "n": pa.array([counts[k] for k in keys], type=pa.int64()),
        })

    from ie_ray.stages.relational import (bucketed_aggregate,
                                          bucketed_map_groups)
    per_type = bucketed_aggregate(
        triples_ds.map_batches(votes, batch_format="pyarrow"),
        ["entity_id", "etype"], [("n", "sum")])

    def bucket_decide(g: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(g)
        out = df.group_by("entity_id").agg(
            pl.col("etype").sort_by(["n_sum", "etype"],
                                    descending=[True, True]).first()
            .alias("etype"),
            pl.col("n_sum").sum().alias("evidence"))
        t = out.to_arrow()
        return pa.table({
            "entity_id": t.column("entity_id").cast(pa.string()),
            "etype": t.column("etype").cast(pa.string()),
            "evidence": t.column("evidence").cast(pa.int64())})

    return bucketed_map_groups(per_type, "entity_id", bucket_decide)


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


def write_graph(nodes_ds, edges_ds, out_dir: str, num_parts: int = 8):
    """Write node/edge tables hash-partitioned by the leading id.

    The partition column is computed inside ``map_batches`` and the write is
    Ray Data's distributed ``write_parquet(partition_cols=...)`` — the driver
    only stamps manifests afterwards from parquet footer metadata (no data
    pulled to the driver).  The caller clears ``nodes/``, ``edges/`` and
    ``manifests/`` first: a write into an existing table adds files beside
    the old ones."""

    def add_part(key):
        def fn(batch: pa.Table) -> pa.Table:
            # md5 paid once per DISTINCT id (hub entities repeat across
            # millions of rows) — dictionary-encode, hash uniques, gather
            import numpy as np
            enc = batch.column(key).combine_chunks().dictionary_encode()
            uniq = np.fromiter(
                (int(hashlib.md5(s.encode()).hexdigest()[:4], 16)
                 % num_parts for s in enc.dictionary.to_pylist()),
                dtype=np.int32, count=len(enc.dictionary))
            parts = uniq[np.asarray(enc.indices, dtype=np.int64)] \
                if len(uniq) else np.empty(0, dtype=np.int32)
            return batch.append_column(
                "part", pa.array(parts, type=pa.int32()))
        return fn

    result = {}
    for name, ds, key in (("nodes", nodes_ds, "entity_id"),
                          ("edges", edges_ds, "subj_id")):
        path = os.path.join(out_dir, name)
        ds.map_batches(add_part(key), batch_format="pyarrow") \
          .write_parquet(path, partition_cols=["part"])
        os.makedirs(path, exist_ok=True)  # empty dataset writes nothing
        result[name] = [
            stamp_manifest(out_dir, "%s-%s" % (name, d.split("=", 1)[1]),
                           name, os.path.join(path, d))
            for d in sorted(os.listdir(path)) if d.startswith("part=")]
    return result


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
    predicate).  Returns the deduplicated touched edge rows.
    """
    import numpy as np
    import ray

    from ie_ray.stages.relational import lowcard_combine

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
    # dedup rows picked up on multiple hops
    cols = edges_ds.schema(fetch_if_missing=True).names

    def dedup(t: pa.Table) -> pa.Table:
        return t.group_by(cols).aggregate([]).select(cols)

    return lowcard_combine(out, dedup)
