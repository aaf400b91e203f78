"""Label-propagation community detection (Raghavan et al. 2007) with a
DETERMINISTIC, oracle-checkable schedule.

Classic LPA is randomized (visit order + random tie-breaks).  This
module fixes both: synchronous rounds (every node updates from the
previous round's labels simultaneously) and a total tie-break
(neighbour-label frequency DESC, then label ASC), run for a FIXED
number of rounds.  That makes the whole algorithm a pure function of
the edge set — each round unrolls into one SQL stage (join → count →
row_number pick), so DuckDB can replay it exactly and the driver's
hash check applies to an *iterative graph algorithm*, not just its
row count.  Communities differ from connected components precisely on
bridge-joined clusters: a dense cluster's label outvotes the one
label arriving over a bridge, so two cliques sharing one edge keep
separate labels where CC merges them (gated in tests/test_lpa.py).

Scale shape (node/edge domains are corpus-shaped — rows-sized in
general): per round, ONE adaptive join ships the previous labels onto
the symmetric adjacency (broadcast while the node table is small,
hash exchange beyond — same policy as PageRank's rank table), then a
bucketed (node, label) count and a bucketed per-node argmax — no
driver-side graph, no per-node Python.  The label table materializes
once per round (it feeds both the join and the next round).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _sym(edges):
    """(w1, w2) → both directions as (node, nb)."""
    def both(t: pa.Table) -> pa.Table:
        a = t.column("w1").to_pylist()
        b = t.column("w2").to_pylist()
        return pa.table({
            "node": pa.array(a + b, type=pa.string()),
            "nb": pa.array(b + a, type=pa.string())})
    return edges.map_batches(both, batch_format="pyarrow")


def lpa_labels(edges, rounds: int = 5):
    """Community label per node after ``rounds`` synchronous LPA
    rounds over an undirected edge Dataset ``(w1, w2)``; initial label
    = the node's own id.  Returns a Dataset ``(node, community)``.
    Isolated nodes don't occur (every node comes from an edge)."""
    from ie_ray.stages.relational import (adaptive_join,
                                          bucketed_aggregate,
                                          bucketed_map_groups)

    sym = _sym(edges).materialize()

    labels = bucketed_aggregate(sym.select_columns(["node"]), "node",
                                [("node", "count")]) \
        .map_batches(lambda t: pa.table({
            "nb": t.column("node"), "lab": t.column("node")}),
            batch_format="pyarrow").materialize()

    def pick(g: pa.Table) -> pa.Table:
        import polars as pl
        df = pl.from_arrow(g)
        top = (df.sort(["node", "c", "lab"],
                       descending=[False, True, False])
               .group_by("node", maintain_order=True).first())
        out = top.select(["node", "lab"]).to_arrow()
        return pa.table({
            "nb": out.column("node").cast(pa.string()),
            "lab": out.column("lab").cast(pa.string())})

    for _ in range(rounds):
        # ship the previous round's label of the NEIGHBOUR endpoint
        got = adaptive_join(sym, labels, on="nb")
        cnt = bucketed_aggregate(
            got.map_batches(lambda t: pa.table({
                "node": t.column("node"), "lab": t.column("lab"),
                "c": pa.array(np.ones(len(t), dtype=np.int64))}),
                batch_format="pyarrow"),
            ["node", "lab"], [("c", "sum")])
        labels = bucketed_map_groups(
            cnt.map_batches(lambda t: pa.table({
                "node": t.column("node"), "lab": t.column("lab"),
                "c": t.column("c_sum").cast(pa.int64())}),
                batch_format="pyarrow"),
            "node", pick).materialize()

    return labels.map_batches(lambda t: pa.table({
        "node": t.column("nb"), "community": t.column("lab")}),
        batch_format="pyarrow")


def lpa_oracle_sql(edges_cte: str, rounds: int = 5,
                   order_by: str = "node") -> str:
    """Unrolled exact SQL twin.  ``edges_cte`` must define a CTE named
    ``e(w1, w2)`` with distinct undirected edges (w1 < w2)."""
    parts = [edges_cte,
             "sym AS (SELECT w1 AS node, w2 AS nb FROM e "
             "UNION ALL SELECT w2, w1 FROM e), "
             "l0 AS (SELECT DISTINCT node AS nb, node AS lab FROM sym)"]
    for r in range(1, rounds + 1):
        parts.append(
            "l%d AS (SELECT node AS nb, lab FROM ("
            "SELECT sym.node, l.lab, count(*) AS c, row_number() OVER "
            "(PARTITION BY sym.node ORDER BY count(*) DESC, l.lab) AS rn "
            "FROM sym JOIN l%d l ON l.nb = sym.nb "
            "GROUP BY sym.node, l.lab) WHERE rn = 1)" % (r, r - 1))
    return ("WITH " + ", ".join(parts) +
            " SELECT nb AS node, lab AS community FROM l%d ORDER BY %s"
            % (rounds, order_by))


def lpa_bruteforce(edge_list, rounds: int = 5):
    """Single-process twin for tests: same synchronous schedule, same
    (count desc, label asc) tie-break."""
    adj: dict = {}
    for a, b in edge_list:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    lab = {n: n for n in adj}
    for _ in range(rounds):
        new = {}
        for n, nbs in adj.items():
            freq: dict = {}
            for m in nbs:
                freq[lab[m]] = freq.get(lab[m], 0) + 1
            new[n] = min(freq, key=lambda k: (-freq[k], k))
        lab = new
    return dict(sorted(lab.items()))
