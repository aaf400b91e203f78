"""Distributed PageRank over the constructed knowledge graph.

Each iteration is ONE hash join (current ranks → the static
edge+outdegree table on the source id) plus one associative groupby
(incoming mass per destination) — no driver-side O(nodes) structure
anywhere: the rank table lives as a materialized Dataset in the object
store between iterations (the standard checkpoint pattern for iterative
dataflow — without it the lazy lineage re-executes every prior round).
The only values that reach the driver are two scalars per round (total
rank mass and linked mass for the dangling-node correction; linked mass
falls out of the per-edge contribution sum, since a source of out-degree
k contributes k × rank/k = rank).

The edges⋈outdeg join is loop-invariant and hoisted: it runs once and
the joined table is reused every round.  Join fan-out defaults to
``dedup._join_partitions()`` — a hash partition that receives zero keys
materializes a schema-less block and Arrow's join then fails on the key
FieldRef (the same pitfall documented there), so gate-scale runs keep
the partition count small; production callers size it to data volume.

The input edges are materialized once on entry.  Each variant reads them
for the node set (a union of both endpoint columns: two reads in one
plan), the out-degree and the edge table, and a lazy input re-runs its
whole lineage on every read.  With ``kg_edges`` as input, the union alone
ran two copies of the flagship's actor pool at once; at 2 CPUs they held
every CPU and the run never finished.

Dangling nodes (no outgoing edges) redistribute their mass uniformly,
the textbook formulation:

    r'(v) = (1-d)/N + d * (sum_{u->v} r(u)/outdeg(u) + dangling/N)

Determinism: pure float64 arithmetic over a fixed edge set; the NumPy
twin in ``pagerank_reference`` reproduces the result to fp-sum-order
tolerance (tests/test_pagerank.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ie_ray.stages.dedup import _join_partitions


def _rename(cols):
    def fn(t: pa.Table) -> pa.Table:
        return t.rename_columns(cols)
    return fn


def pagerank(edges, iters: int = 10, damping: float = 0.85,
             num_partitions=None):
    """edges: Dataset with string columns subj_id, obj_id (one row per
    edge; extra columns ignored).  Returns a Dataset (node, rank)."""
    parts = _join_partitions(num_partitions)
    edges = edges.materialize()

    def side(col):
        return (edges.select_columns([col])
                .map_batches(_rename(["node"]), batch_format="pyarrow"))

    from ie_ray.stages.relational import bucketed_aggregate
    # node/out-degree key domains are graph-sized — reduce through the
    # bucketed path (Ray's sort groupby pays per-group Python cost there)
    nodes = (bucketed_aggregate(side("subj_id").union(side("obj_id")),
                                "node", [("node", "count")])
             .map_batches(lambda t: t.select(["node"]),
                          batch_format="pyarrow")).materialize()
    n = nodes.count()

    outdeg = (bucketed_aggregate(edges.select_columns(["subj_id"]),
                                 "subj_id", [("subj_id", "count")])
              .map_batches(_rename(["subj_id", "outdeg"]),
                           batch_format="pyarrow"))

    # loop-invariant: every edge row tagged with its source's out-degree
    edges_w = (edges.select_columns(["subj_id", "obj_id"])
               .join(outdeg, "inner", num_partitions=parts,
                     on=("subj_id",))).materialize()

    def init_rank(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rank", pa.array([1.0 / n] * t.num_rows, type=pa.float64()))

    ranks = nodes.map_batches(init_rank, batch_format="pyarrow").materialize()

    def contrib(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "node": t.column("obj_id"),
            "c": pc.divide(t.column("rank"),
                           pc.cast(t.column("outdeg"), pa.float64()))})

    def zero(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"),
            "c": pa.array([0.0] * t.num_rows, type=pa.float64())})

    zeros = nodes.map_batches(zero, batch_format="pyarrow")

    for _ in range(iters):
        contribs = (edges_w
                    .join(ranks.map_batches(_rename(["subj_id", "rank"]),
                                            batch_format="pyarrow"),
                          "inner", num_partitions=parts, on=("subj_id",))
                    .map_batches(contrib,
                                 batch_format="pyarrow")).materialize()
        total = ranks.sum("rank")
        linked = contribs.sum("c") or 0.0   # == sum of linked-node ranks
        dangling = total - linked

        base = (1.0 - damping) / n + damping * dangling / n

        def finish(t: pa.Table, base=base) -> pa.Table:
            import pyarrow.compute as pc
            r = pc.add(pc.multiply(t.column("c_sum"), damping), base)
            return pa.table({"node": t.column("node"), "rank": r})

        ranks = (bucketed_aggregate(contribs.union(zeros), "node",
                                    [("c", "sum")])
                 .map_batches(finish, batch_format="pyarrow")).materialize()

    return ranks


def pagerank_weighted(edges, iters: int = 10, damping: float = 0.85,
                      num_partitions=None):
    """Weighted PageRank: edges (subj_id, obj_id, w) with one row per
    aggregated edge; a source's mass splits across targets ∝ w.  Same
    loop shape as :func:`pagerank` (one join + one groupby per round);
    the input stays at O(|distinct edges|), never per-link rows."""
    parts = _join_partitions(num_partitions)
    edges = edges.materialize()

    def side(col):
        return (edges.select_columns([col])
                .map_batches(_rename(["node"]), batch_format="pyarrow"))

    from ie_ray.stages.relational import bucketed_aggregate
    # node/out-degree key domains are graph-sized — reduce through the
    # bucketed path (Ray's sort groupby pays per-group Python cost there)
    nodes = (bucketed_aggregate(side("subj_id").union(side("obj_id")),
                                "node", [("node", "count")])
             .map_batches(lambda t: t.select(["node"]),
                          batch_format="pyarrow")).materialize()
    n = nodes.count()

    outw = (bucketed_aggregate(edges.select_columns(["subj_id", "w"]),
                               "subj_id", [("w", "sum")])
            .map_batches(_rename(["subj_id", "outw"]),
                         batch_format="pyarrow"))
    edges_w = (edges.select_columns(["subj_id", "obj_id", "w"])
               .join(outw, "inner", num_partitions=parts,
                     on=("subj_id",))).materialize()

    def init_rank(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rank", pa.array([1.0 / n] * t.num_rows, type=pa.float64()))

    ranks = nodes.map_batches(init_rank, batch_format="pyarrow").materialize()

    def contrib(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        share = pc.divide(pc.cast(t.column("w"), pa.float64()),
                          pc.cast(t.column("outw"), pa.float64()))
        return pa.table({
            "node": t.column("obj_id"),
            "c": pc.multiply(t.column("rank"), share)})

    def zero(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"),
            "c": pa.array([0.0] * t.num_rows, type=pa.float64())})

    zeros = nodes.map_batches(zero, batch_format="pyarrow")

    for _ in range(iters):
        contribs = (edges_w
                    .join(ranks.map_batches(_rename(["subj_id", "rank"]),
                                            batch_format="pyarrow"),
                          "inner", num_partitions=parts, on=("subj_id",))
                    .map_batches(contrib,
                                 batch_format="pyarrow")).materialize()
        total = ranks.sum("rank")
        linked = contribs.sum("c") or 0.0
        dangling = total - linked
        base = (1.0 - damping) / n + damping * dangling / n

        def finish(t: pa.Table, base=base) -> pa.Table:
            import pyarrow.compute as pc
            r = pc.add(pc.multiply(t.column("c_sum"), damping), base)
            return pa.table({"node": t.column("node"), "rank": r})

        ranks = (bucketed_aggregate(contribs.union(zeros), "node",
                                    [("c", "sum")])
                 .map_batches(finish, batch_format="pyarrow")).materialize()

    return ranks


def pagerank_weighted_reference(src, dst, w, iters: int = 10,
                                damping: float = 0.85) -> dict:
    """Single-process NumPy twin of :func:`pagerank_weighted`."""
    nodes = sorted(set(src) | set(dst))
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    s = np.array([idx[v] for v in src])
    d = np.array([idx[v] for v in dst])
    w = np.asarray(w, dtype=np.float64)
    outw = np.bincount(s, weights=w, minlength=n)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dangling = r[outw == 0].sum()
        inc = np.bincount(d, weights=r[s] * w / outw[s], minlength=n)
        r = (1.0 - damping) / n + damping * (inc + dangling / n)
    return {v: r[idx[v]] for v in nodes}


def pagerank_reference(src, dst, iters: int = 10,
                       damping: float = 0.85) -> dict:
    """Single-process NumPy twin for verification; returns {node: rank}."""
    nodes = sorted(set(src) | set(dst))
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    s = np.array([idx[v] for v in src])
    d = np.array([idx[v] for v in dst])
    outdeg = np.bincount(s, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        dangling = r[outdeg == 0].sum()
        inc = np.bincount(d, weights=r[s] / outdeg[s], minlength=n)
        r = (1.0 - damping) / n + damping * (inc + dangling / n)
    return {v: r[idx[v]] for v in nodes}


def pagerank_personalized(edges, seeds, iters: int = 10,
                          damping: float = 0.85, num_partitions=None):
    """Personalized PageRank (teleport to a SEED set, Haveliwala
    2002): random walks restart at the seeds instead of uniformly, so
    mass concentrates in the seeds' neighborhood — the standard
    relevance/recommendation ranking over a KG.  Identical loop shape
    to :func:`pagerank` (one join + one groupby per round); the only
    deltas are the seed-indicator init and the per-node teleport term
    (non-zero only on seeds), evaluated with one broadcast ``is_in``
    probe — no per-row Python.

    ``seeds``: iterable of node id strings.  Returns (node, rank)."""
    import pyarrow.compute as pc
    import ray as _ray

    parts = _join_partitions(num_partitions)
    edges = edges.materialize()
    seed_ids = sorted(set(seeds))
    seed_arr = pa.array(seed_ids, type=pa.string())
    k = len(seed_arr)
    if k == 0:
        raise ValueError("pagerank_personalized needs >= 1 seed")
    sref = _ray.put(seed_arr)

    def side(col):
        return (edges.select_columns([col])
                .map_batches(_rename(["node"]),
                             batch_format="pyarrow"))

    from ie_ray.stages.relational import bucketed_aggregate
    nodes = (bucketed_aggregate(side("subj_id").union(side("obj_id")),
                                "node", [("node", "count")])
             .map_batches(lambda t: t.select(["node"]),
                          batch_format="pyarrow")).materialize()

    # out-of-graph seeds silently leak teleport mass (rank no longer
    # sums to 1) — reject them up front, matching the NumPy twin
    # (review finding r5s4)
    n_present = nodes.map_batches(
        lambda t: t.filter(pc.is_in(t.column("node"),
                                    value_set=seed_arr)),
        batch_format="pyarrow").count()
    if n_present != k:
        raise ValueError(
            "pagerank_personalized: %d of %d seeds absent from the "
            "edge set" % (k - n_present, k))

    outdeg = (bucketed_aggregate(edges.select_columns(["subj_id"]),
                                 "subj_id", [("subj_id", "count")])
              .map_batches(_rename(["subj_id", "outdeg"]),
                           batch_format="pyarrow"))
    edges_w = (edges.select_columns(["subj_id", "obj_id"])
               .join(outdeg, "inner", num_partitions=parts,
                     on=("subj_id",))).materialize()

    def seed_mask(t: pa.Table):
        return pc.is_in(t.column("node"), value_set=_ray.get(sref))

    def init_rank(t: pa.Table) -> pa.Table:
        r = pc.if_else(seed_mask(t), pa.scalar(1.0 / k),
                       pa.scalar(0.0))
        return t.append_column("rank", r.cast(pa.float64()))

    ranks = nodes.map_batches(init_rank,
                              batch_format="pyarrow").materialize()

    def contrib(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("obj_id"),
            "c": pc.divide(t.column("rank"),
                           pc.cast(t.column("outdeg"),
                                   pa.float64()))})

    def zero(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"),
            "c": pa.array([0.0] * t.num_rows, type=pa.float64())})

    zeros = nodes.map_batches(zero, batch_format="pyarrow")

    for _ in range(iters):
        contribs = (edges_w
                    .join(ranks.map_batches(
                        _rename(["subj_id", "rank"]),
                        batch_format="pyarrow"),
                        "inner", num_partitions=parts,
                        on=("subj_id",))
                    .map_batches(contrib,
                                 batch_format="pyarrow")).materialize()
        total = ranks.sum("rank")
        linked = contribs.sum("c") or 0.0
        dangling = total - linked
        seed_base = (1.0 - damping) / k + damping * dangling / k

        def finish(t: pa.Table, seed_base=seed_base) -> pa.Table:
            tele = pc.if_else(seed_mask(t), pa.scalar(seed_base),
                              pa.scalar(0.0))
            r = pc.add(pc.multiply(t.column("c_sum"), damping),
                       tele.cast(pa.float64()))
            return pa.table({"node": t.column("node"), "rank": r})

        ranks = (bucketed_aggregate(contribs.union(zeros), "node",
                                    [("c", "sum")])
                 .map_batches(finish,
                              batch_format="pyarrow")).materialize()

    return ranks


def pagerank_personalized_reference(src, dst, seeds, iters: int = 10,
                                    damping: float = 0.85):
    """Dense NumPy twin of :func:`pagerank_personalized`."""
    nodes = sorted(set(src) | set(dst))
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for s in src:
        out[idx[s]] += 1
    seed_ids = sorted(set(seeds))
    missing = [s for s in seed_ids if s not in idx]
    if missing:
        raise ValueError(
            "pagerank_personalized_reference: seeds absent from the "
            "edge set: %r" % missing)
    k = len(seed_ids)
    s_vec = np.zeros(n)
    for s in seed_ids:
        s_vec[idx[s]] = 1.0 / k
    r = s_vec.copy()
    for _ in range(iters):
        nxt = np.zeros(n)
        for s, d in zip(src, dst):
            nxt[idx[d]] += r[idx[s]] / out[idx[s]]
        dangling = r[out == 0].sum()
        r = damping * (nxt + 0.0) \
            + ((1.0 - damping) + damping * dangling) * s_vec
    return {v: r[idx[v]] for v in nodes}
