"""Distributed PageRank over the constructed knowledge graph.

One power iteration serves every variant.  Each round is ONE
``relational.adaptive_join`` (current ranks → the static edge table on
the source id: a broadcast while the rank table is small, a hash
exchange beyond) plus one bucketed sum (incoming mass per destination)
— no driver-side O(nodes) structure anywhere: the rank table lives as a
materialized Dataset in the object store between rounds (the standard
checkpoint pattern for iterative dataflow — without it the lazy lineage
re-executes every prior round), and a broadcast rank table is built by
each worker from its block refs, never through the driver.  The only
values that reach the driver are two scalars per round (total rank mass
and linked mass for the dangling-node correction; linked mass falls out
of the per-edge contribution sum, since a source's shares sum to 1).

The edges ⋈ out-weight attach is loop-invariant and hoisted: it runs
once and the joined table is reused every round.  An optional ``w``
column splits a source's mass in proportion to w; without it every
edge row gets an equal share (``rank / outdeg``).

The input edges are materialized once on entry.  They are read for the
node set (a union of both endpoint columns: two reads in one plan), the
out-weight and the edge table, and a lazy input re-runs its whole
lineage on every read.  With ``kg_edges`` as input, the union alone ran
two copies of the flagship at once; at 2 CPUs the run never finished.

Dangling nodes (no outgoing edges) redistribute their mass over the
teleport set, the textbook formulation:

    r'(v) = d * sum_{u->v} r(u) * share(u->v) + t(v) * ((1-d) + d * dangling)

where ``t`` is uniform 1/N, or 1/k on the k ``seeds`` (personalized
PageRank, Haveliwala 2002), which also hold the initial mass.

Determinism: pure float64 arithmetic over a fixed edge set; the NumPy
twins below reproduce the result to fp-sum-order tolerance
(tests/test_pagerank.py, tests/test_linkgraph.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pagerank(edges, iters: int = 10, damping: float = 0.85, seeds=None):
    """edges: Dataset with string columns subj_id, obj_id (one row per
    edge) and an optional numeric ``w`` (a source's mass splits ∝ w);
    other columns are ignored.  ``seeds``: iterable of node ids to
    teleport to (every node when None); a seed absent from the edge set
    raises ``ValueError``.  Returns a Dataset (node, rank)."""
    from ie_ray.stages.relational import adaptive_join, bucketed_aggregate

    edges = edges.materialize()
    weighted = "w" in edges.schema().names

    def side(col):
        return edges.select_columns([col]).map_batches(
            lambda t: t.rename_columns(["node"]), batch_format="pyarrow")

    # node/out-weight key domains are graph-sized — reduce through the
    # bucketed path (Ray's sort groupby pays per-group Python cost there)
    nodes = (bucketed_aggregate(side("subj_id").union(side("obj_id")),
                                "node", [("node", "count")])
             .map_batches(lambda t: t.select(["node"]),
                          batch_format="pyarrow")).materialize()
    n = nodes.count()

    if seeds is None:
        seed_arr, k = None, n
    else:
        seed_arr = pa.array(sorted(set(seeds)), type=pa.string())
        k = len(seed_arr)
        if k == 0:
            raise ValueError("pagerank needs >= 1 seed")
        # out-of-graph seeds silently leak teleport mass (rank no
        # longer sums to 1) — reject them up front, as the twin does
        n_present = nodes.map_batches(
            lambda t: t.filter(pc.is_in(t.column("node"),
                                        value_set=seed_arr)),
            batch_format="pyarrow").count()
        if n_present != k:
            raise ValueError(
                "pagerank: %d of %d seeds absent from the edge set"
                % (k - n_present, k))

    def teleport(t: pa.Table, mass: float) -> pa.Array:
        """``mass`` on each row of the teleport set, 0 elsewhere."""
        if seed_arr is None:
            return pa.array(np.full(t.num_rows, mass))
        return pc.if_else(pc.is_in(t.column("node"), value_set=seed_arr),
                          pa.scalar(mass), pa.scalar(0.0))

    # the edge table keyed on its source as "node", so the rank table
    # attaches without a rename
    cols = ["subj_id", "obj_id"] + (["w"] if weighted else [])
    src = edges.select_columns(cols).map_batches(
        lambda t: t.rename_columns(["node"] + cols[1:]),
        batch_format="pyarrow")
    outw = (bucketed_aggregate(src.select_columns(["node"] + cols[2:]),
                               "node",
                               [("w", "sum")] if weighted
                               else [("node", "count")])
            .map_batches(lambda t: t.rename_columns(["node", "outw"]),
                         batch_format="pyarrow"))
    # loop-invariant: every edge row tagged with its source's out-weight
    edges_w = adaptive_join(src, outw, "node").materialize()

    def contrib(t: pa.Table) -> pa.Table:
        outw = pc.cast(t.column("outw"), pa.float64())
        if weighted:
            c = pc.multiply(t.column("rank"), pc.divide(
                pc.cast(t.column("w"), pa.float64()), outw))
        else:
            c = pc.divide(t.column("rank"), outw)
        return pa.table({"node": t.column("obj_id"), "c": c})

    def zero(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t.column("node"),
            "c": pa.array([0.0] * t.num_rows, type=pa.float64())})

    zeros = nodes.map_batches(zero, batch_format="pyarrow")
    ranks = nodes.map_batches(
        lambda t: t.append_column("rank", teleport(t, 1.0 / k)),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        contribs = (adaptive_join(edges_w, ranks, "node")
                    .map_batches(contrib, batch_format="pyarrow")
                    ).materialize()
        total = _exact_sum(ranks, "rank")
        linked = _exact_sum(contribs, "c")   # == sum of linked-node ranks
        dangling = total - linked
        base = (1.0 - damping) / k + damping * dangling / k

        def finish(t: pa.Table, base=base) -> pa.Table:
            r = pc.add(pc.multiply(t.column("c_sum"), damping),
                       teleport(t, base))
            return pa.table({"node": t.column("node"), "rank": r})

        ranks = (bucketed_aggregate(contribs.union(zeros), "node",
                                    [("c", "sum")])
                 .map_batches(finish, batch_format="pyarrow")).materialize()

    return ranks


# one float64 as an integer count of 2**-1127 units: frexp's 53-bit
# mantissa shifted left by e + 1074, which is >= 1 down to the least
# subnormal (e = -1073)
_EXACT_SHIFT = 1074


def _exact_sum(ds, col: str) -> float:
    """Σ ``col`` rounded once from the exact sum, so the same bits in
    any block order (``Dataset.sum`` adds its block partials in the
    order they finish).  Each block sends one Python int; finite
    values only."""
    from fractions import Fraction

    def part(t: pa.Table) -> pa.Table:
        m, e = np.frexp(np.asarray(t.column(col), dtype=np.float64))
        mi = (m * 2.0 ** 53).astype(np.int64)
        e = e + _EXACT_SHIFT
        exact = 0
        for ex in np.unique(e):
            sel = mi[e == ex]
            # split the 53-bit mantissas so their int64 sums cannot wrap
            exact += ((int((sel >> 26).sum()) << 26)
                      + int((sel & ((1 << 26) - 1)).sum())) << int(ex)
        return pa.table({"s": [str(exact)]})

    exact = sum(int(r["s"]) for r in
                ds.map_batches(part, batch_format="pyarrow").take_all())
    return float(Fraction(exact, 1 << (53 + _EXACT_SHIFT)))


def pagerank_weighted_reference(src, dst, w, iters: int = 10,
                                damping: float = 0.85) -> dict:
    """Single-process NumPy twin of :func:`pagerank` with a ``w`` column."""
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


def pagerank_personalized_reference(src, dst, seeds, iters: int = 10,
                                    damping: float = 0.85):
    """Dense NumPy twin of :func:`pagerank` with ``seeds=``."""
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
