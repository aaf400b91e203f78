"""Driver contract for the ie_ray engine.

``entry()`` runs the flagship KG pipeline (pages → triples) at smoke scale.
``queries()`` exposes one callable per implemented operator family
(SURVEY.md §2 + the training-data operators); ``oracle_sql()`` provides the
DuckDB-equivalent SQL for every SQL-expressible one.  Column names match the
SQL aliases exactly; float aggregates are rounded identically on both sides.

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from typing import Any

import pyarrow as pa

from ie_ray.stages.relational import KeyLookup

# BM25 query: one rare term ('dup', df≈25/500 at sf0.01) + three common
# ones, so idf and length-normalization both move the ranking
_BM25_QUERY = ["dup", "join", "stream", "hash"]

_EN_STOPWORDS_SQL = ("['the','a','an','and','or','of','to','in','is','are',"
                     "'was','were','it','that','this','with','for','on','as',"
                     "'at','by','be','has','have','not','but']")


def _sf_pages(sf_dir: str) -> int:
    """Scale the synthetic pages table with the testdata scale factor."""
    m = re.search(r"sf([0-9.]+)", sf_dir or "")
    sf = float(m.group(1)) if m else 0.001
    return max(60, int(sf * 20000))


def _word_count_partial(b: pa.Table) -> pa.Table:
    """Block-local word-count combiner shared by top_words /
    doc_oov_rate / word_edit2_pairs.  NULL text contributes nothing
    (the oracle's unnest(regexp_split_to_array(NULL, …)) yields no
    rows); tokenization is whitespace-run splitting with empties
    dropped — Python str.split() semantics, which is what the oracles'
    regexp_split_to_array(lower(text), '\\s+') + word != '' express.
    Fully Arrow-vectorized: lower → split → value_counts hash-agg, no
    per-token Python loop on the corpus-scale path."""
    import pyarrow.compute as pc
    col = pc.utf8_lower(b.column("text").combine_chunks().drop_null())
    words = pc.utf8_split_whitespace(col).flatten()
    words = pc.filter(words, pc.not_equal(words, ""))
    if len(words) == 0:
        return pa.table({"word": pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int64())})
    vc = words.value_counts()
    return pa.table({"word": vc.field("values"),
                     "n": vc.field("counts").cast(pa.int64())})


def _strip_meta(b: pa.Table) -> pa.Table:
    """Drop parquet field metadata (pandas dicts) — it defeats Ray's schema
    dedup hashing in groupby reduces (zero-copy cast, types unchanged)."""
    return b.cast(pa.schema([pa.field(f.name, f.type) for f in b.schema]))


def _docs(sf_dir):
    import ray.data
    # gate-scale tables are a few thousand rows: Ray's default 64-way block
    # split turns every operator into 64 tiny tasks and the fixed scheduling
    # cost dominates — 8 blocks keeps parallelism without the task spam
    # (real corpora come in many files and block naturally)
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        override_num_blocks=8).map_batches(
        _strip_meta, batch_format="pyarrow")


def _tbl(sf_dir, name, columns=None, blocks=None):
    import ray.data
    path = os.path.join(sf_dir, name + ".parquet")
    if blocks is None:
        # size-aware block count (~1 MiB of parquet per block, floor 8,
        # cap 64): Ray's default 2×CPU split turns a 2 MB table into 64
        # tiny blocks and every downstream sort/aggregate into 128 tiny
        # exchange tasks whose scheduling cost dwarfs the compute.  Real
        # corpora arrive as many files and block naturally by file, so
        # the cap only ever binds at gate scale.
        blocks = max(8, min(64, os.path.getsize(path) >> 20))
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=blocks).map_batches(
        _strip_meta, batch_format="pyarrow")


def _r4(x: float) -> float:
    """Half-away-from-zero 4-dp rounding — the DuckDB round(x, 4)
    convention (scale, round half-away, unscale).  Python round() is
    ties-to-even over the exact decimal and diverges at midpoints;
    np.round is half-even too.  Every float-emitting kernel that an
    oracle checks must use THIS (review findings r5s4, twice)."""
    import numpy as np
    return float(np.floor(abs(x) * 1e4 + 0.5) / 1e4
                 * (1 if x >= 0 else -1))


# Oracle-side twin of _rev_scaled (exact int64 money — see below).
_REV_SQL = ("CAST(round(l_extendedprice * 100) AS BIGINT) * "
            "(100 - CAST(round(l_discount * 100) AS BIGINT))")


def _rev_scaled(t: pa.Table):
    """Exact TPC-H revenue in int64 hundredths-of-cents.

    Prices and discounts sit on a 2-decimal grid, so
    ``cents x (100 - disc_pct)`` is exact and ASSOCIATIVE — summing it
    in any block/shuffle order yields the same integer, unlike the
    float64 ``price * (1 - disc)`` partial sums whose association order
    could flip the final ``round(_, 2)`` digit vs the oracle
    (VERDICT r3 what's-wrong #1).  Divide by 10^4 once at output;
    the oracle SQL uses the identical expression (``_REV_SQL``) so
    both sides round the very same float64.
    """
    import numpy as np
    cents = np.round(t.column("l_extendedprice").combine_chunks()
                     .to_numpy(zero_copy_only=False) * 100.0) \
        .astype(np.int64)
    pct = np.round(t.column("l_discount").combine_chunks()
                   .to_numpy(zero_copy_only=False) * 100.0) \
        .astype(np.int64)
    return cents * (100 - pct)


# ---------------------------------------------------------------------------
# flagship
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline at smoke scale: pages → extract → dedup → segment →
    parse → compose → link → triples Dataset."""
    from ie_ray.pipelines.kg import default_fixture_dir, kg_triples
    fd = default_fixture_dir(n_pages=60, pool_size=300)
    return kg_triples(fd)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    import ray.data
    from ie_ray.pipelines.kg import default_fixture_dir, kg_triples
    from ie_ray.stages import dedup, similarity, textstats
    from ie_ray.stages.graph import build_edges, build_nodes
    from ie_ray.stages.relational import lowcard_combine

    # -- documents table -------------------------------------------------

    def exact_dedup_docs(sf_dir):
        return dedup.exact_dedup_docs(_docs(sf_dir))

    def doc_token_counts(sf_dir):
        def count(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            # vectorized whitespace tokens == Python str.split() semantics:
            # trim first (arrow emits boundary empties), special-case ""
            trimmed = pc.utf8_trim_whitespace(b.column("text"))
            n = pc.list_value_length(
                pc.utf8_split_whitespace(trimmed)).cast(pa.int64())
            n = pc.if_else(pc.equal(trimmed, ""),
                           pa.scalar(0, type=pa.int64()), n)
            return pa.table({"doc_id": b.column("doc_id"), "n_tokens": n})
        return _docs(sf_dir).map_batches(count, batch_format="pyarrow")

    def doc_quality(sf_dir):
        return _docs(sf_dir).map_batches(textstats.quality_batch,
                                         batch_format="pyarrow")

    def lang_counts(sf_dir):
        def partial(t: pa.Table) -> pa.Table:
            return t.select(["lang"]).group_by("lang").aggregate(
                [([], "count_all")]).rename_columns(["lang", "n"])

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by("lang").aggregate([("n", "sum")])
            return pa.table({"lang": g.column("lang"),
                             "n": g.column("n_sum").cast(pa.int64())})

        return lowcard_combine(_docs(sf_dir), partial, final)

    def paragraph_counts(sf_dir):
        def count(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return pa.table({
                "doc_id": b.column("doc_id"),
                "n_paras": pc.list_value_length(
                    pc.split_pattern(b.column("text"), "\n")
                ).cast(pa.int64())})
        return _docs(sf_dir).map_batches(count, batch_format="pyarrow")

    def doc_md5(sf_dir):
        import hashlib
        return _docs(sf_dir).map_batches(
            lambda b: pa.table({
                "doc_id": b.column("doc_id"),
                "text_md5": pa.array(
                    [hashlib.md5(t.encode("utf-8")).hexdigest()
                     for t in b.column("text").to_pylist()],
                    type=pa.string())}),
            batch_format="pyarrow")

    def langid(sf_dir):
        return _docs(sf_dir).map_batches(textstats.langid_batch,
                                         batch_format="pyarrow")

    def doc_fingerprints(sf_dir):
        return _docs(sf_dir).map_batches(textstats.fingerprint_batch,
                                         batch_format="pyarrow")

    def minhash_dedup_pairs(sf_dir):
        return dedup.minhash_lsh_pairs(_docs(sf_dir))

    def minhash_dedup_keep(sf_dir):
        """The full near-dedup flow: LSH candidates → exact-jaccard verified
        pairs → distributed connected components → one canonical keeper
        (numeric-min doc_id) per duplicate cluster, plus all untouched docs.
        This is the keep-list a training-data pipeline actually consumes.

        Fully distributed: the component labels stay in the cluster and
        every doc batch probes them by broadcast — no O(nodes) driver-side
        map and no join after connected components."""
        docs = _docs(sf_dir)
        return dedup.cluster_keepers(docs, dedup.ngram_jaccard_pairs(docs),
                                     "doc_id", "doc_a", "doc_b")

    def quality_filter_docs(sf_dir):
        """Keep-list from quality signals (≥10 tokens, ≥1 stopword) —
        every signal is SQL-reproducible so the oracle verifies the kept
        set exactly."""
        scored = _docs(sf_dir).map_batches(textstats.quality_batch,
                                           batch_format="pyarrow")

        def keep(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            mask = pc.and_(
                pc.greater_equal(b.column("n_tokens"), 10),
                pc.greater_equal(b.column("n_stopwords"), 1))
            return pa.table({"doc_id": b.filter(mask).column("doc_id")})

        return scored.map_batches(keep, batch_format="pyarrow")

    def doc_repetition(sf_dir):
        """Gopher-style repetition metrics (dup-word / top-word /
        dup-2-gram fractions) per doc — vectorized polars kernels,
        value-exact against REPETITION_SQL."""
        return _docs(sf_dir).map_batches(textstats.repetition_batch,
                                         batch_format="pyarrow")

    def repetition_filter_docs(sf_dir):
        """Keep-list from the repetition metrics (Gopher-rule shape:
        drop docs dominated by one word or repeated 2-grams)."""
        scored = _docs(sf_dir).map_batches(textstats.repetition_batch,
                                           batch_format="pyarrow")

        def keep(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            mask = pc.and_(
                pc.less_equal(b.column("top_word_frac"), 0.1),
                pc.less_equal(b.column("dup_word_frac"), 0.65))
            return pa.table({"doc_id": b.filter(mask).column("doc_id")})

        return scored.map_batches(keep, batch_format="pyarrow")

    def simhash_pairs(sf_dir):
        return dedup.simhash_pairs(_docs(sf_dir))

    def ngram_jaccard_pairs(sf_dir):
        return dedup.ngram_jaccard_pairs(_docs(sf_dir))

    # -- embeddings ------------------------------------------------------

    def embedding_dup_pairs(sf_dir):
        return dedup.embedding_dup_pairs(_tbl(sf_dir, "embeddings", blocks=8))

    def embedding_sim_pairs(sf_dir):
        import numpy as np
        import pyarrow.parquet as pq
        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])
        corpus = np.asarray(t.column("embedding").to_pylist(),
                            dtype=np.float64)
        ids = t.column("vec_id").to_pylist()
        return similarity.sim_pairs_exact(_tbl(sf_dir, "embeddings", blocks=8),
                                          corpus, ids, threshold=0.4)

    def knn_top1(sf_dir):
        import numpy as np
        import pyarrow.parquet as pq
        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")) \
            .sort_by("vec_id")
        qids = t.column("vec_id").to_pylist()[:10]
        qs = np.asarray(t.column("embedding").to_pylist()[:10],
                        dtype=np.float64)
        ds = _tbl(sf_dir, "embeddings", blocks=8)
        # exclude self-matches so the answer is a real neighbor
        res = similarity.knn_brute(ds, qs, qids, k=2)

        def pick(group: pa.Table) -> pa.Table:
            g = group.sort_by([("cosine", "descending"),
                               ("neighbor", "ascending")])
            qid = g.column("query_id")[0].as_py()
            for i in range(g.num_rows):
                if g.column("neighbor")[i].as_py() != qid:
                    return pa.table({
                        "query_id": pa.array([qid], type=pa.int64()),
                        "neighbor": pa.array([g.column("neighbor")[i].as_py()],
                                             type=pa.int64())})
            return pa.table({"query_id": pa.array([], type=pa.int64()),
                             "neighbor": pa.array([], type=pa.int64())})

        return res.groupby("query_id").map_groups(pick, batch_format="pyarrow")

    # -- relational engine breadth --------------------------------------

    def q1_pricing(sf_dir):
        """Low-cardinality aggregate with a block-level combiner: each
        block pre-reduces to ≤|groups| rows (arrow group_by kernel), so
        the exchange moves blocks×6 rows instead of the whole table —
        the shape that holds at 10^9-row lineitem."""
        ds = _tbl(sf_dir, "lineitem",
                  columns=["l_returnflag", "l_linestatus", "l_quantity",
                           "l_extendedprice"])

        def partial(t: pa.Table) -> pa.Table:
            g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
                [("l_quantity", "sum"), ("l_extendedprice", "sum"),
                 ("l_quantity", "count")])
            return g.rename_columns(
                ["l_returnflag", "l_linestatus", "sum_qty",
                 "sum_base_price", "count_order"])

        def final(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
                [("sum_qty", "sum"), ("sum_base_price", "sum"),
                 ("count_order", "sum")])
            return pa.table({
                "l_returnflag": g.column("l_returnflag"),
                "l_linestatus": g.column("l_linestatus"),
                "sum_qty": pc.round(g.column("sum_qty_sum"), 2),
                "sum_base_price": pc.round(
                    g.column("sum_base_price_sum"), 2),
                "count_order": g.column("count_order_sum")
                               .cast(pa.int64())})

        return lowcard_combine(ds, partial, final)

    def q1_incremental_refresh(sf_dir):
        """Incremental view maintenance with RETRACTIONS (the TPC-H
        RF1/RF2 shape, relational sibling of kg_incremental): the q1
        aggregate is maintained from three independently-arriving
        deltas — base load, an insert batch, a delete batch — via
        SIGNED partials (sign·cents, sign·1) that tree-combine like
        any other mergeable aggregate; groups whose maintained count
        reaches zero vanish.  Exact int64 cents make the subtraction
        safe (float partial sums would not cancel exactly).  The
        oracle recomputes from scratch on the final state, so the
        gate proves maintained ≡ recomputed."""
        import numpy as np
        import pyarrow.compute as pc

        cols = ["l_orderkey", "l_returnflag", "l_linestatus",
                "l_quantity", "l_extendedprice"]

        def delta(pred, sign):
            def fn(t: pa.Table) -> pa.Table:
                ok = np.asarray(t.column("l_orderkey"),
                                dtype=np.int64)
                t = t.filter(pa.array(pred(ok)))
                qty_c = np.round(np.asarray(
                    t.column("l_quantity"), dtype=np.float64)
                    * 100.0).astype(np.int64) * sign
                bp_c = np.round(np.asarray(
                    t.column("l_extendedprice"), dtype=np.float64)
                    * 100.0).astype(np.int64) * sign
                g = pa.table({
                    "l_returnflag": t.column("l_returnflag"),
                    "l_linestatus": t.column("l_linestatus"),
                    "qty_c": pa.array(qty_c),
                    "bp_c": pa.array(bp_c),
                    "n": pa.array(np.full(t.num_rows, sign,
                                          dtype=np.int64))}) \
                    .group_by(["l_returnflag", "l_linestatus"]) \
                    .aggregate([("qty_c", "sum"), ("bp_c", "sum"),
                                ("n", "sum")])
                return g.rename_columns(
                    ["l_returnflag", "l_linestatus", "qty_c",
                     "bp_c", "n"])
            return fn

        src = lambda: _tbl(sf_dir, "lineitem", columns=cols)  # noqa
        base = src().map_batches(
            delta(lambda k: k % 10 != 0, 1), batch_format="pyarrow")
        ins = src().map_batches(
            delta(lambda k: k % 10 == 0, 1), batch_format="pyarrow")
        dele = src().map_batches(
            delta(lambda k: k % 97 == 0, -1), batch_format="pyarrow")

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["l_returnflag", "l_linestatus"]) \
                .aggregate([("qty_c", "sum"), ("bp_c", "sum"),
                            ("n", "sum")]).rename_columns(
                ["l_returnflag", "l_linestatus", "qty_c", "bp_c",
                 "n"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            t = t.filter(pc.greater(t.column("n"), 0))
            return pa.table({
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "sum_qty": pc.round(pc.divide(
                    t.column("qty_c").cast(pa.float64()), 100.0), 2),
                "sum_base_price": pc.round(pc.divide(
                    t.column("bp_c").cast(pa.float64()), 100.0), 2),
                "count_order": t.column("n").cast(pa.int64())})

        return lowcard_combine(base.union(ins).union(dele),
                               combine, final)

    def orders_backlog_timeseries(sf_dir):
        """Event-sourced running balance across two tables (the
        open-orders backlog curve): daily placements from orders,
        daily completions from each order's LAST lineitem shipment
        (a rows-sized per-order max through the bucketed path), then
        one bounded day-grid combine and a final cumulative
        placed−completed sweep — the raw tables never co-shuffle."""
        import numpy as np
        import pyarrow.compute as pc
        from ie_ray.stages.relational import bucketed_aggregate

        DAY = 86_400_000_000

        def placed_partial(t: pa.Table) -> pa.Table:
            d = pc.divide(t.column("o_orderdate")
                          .cast(pa.timestamp("us")).cast(pa.int64()),
                          DAY)
            g = pa.table({"day": d}).group_by("day").aggregate(
                [([], "count_all")])
            return g.rename_columns(["day", "placed"]) \
                .append_column("completed", pa.array(
                    np.zeros(g.num_rows, dtype=np.int64)))

        placed = _tbl(sf_dir, "orders", columns=["o_orderdate"]) \
            .map_batches(placed_partial, batch_format="pyarrow")

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_shipdate"])
        last_ship = bucketed_aggregate(li, "l_orderkey",
                                       [("l_shipdate", "max")])

        def completed_partial(t: pa.Table) -> pa.Table:
            d = pc.divide(t.column("l_shipdate_max")
                          .cast(pa.timestamp("us"))
                          .cast(pa.int64()), DAY)
            g = pa.table({"day": d}).group_by("day").aggregate(
                [([], "count_all")])
            g = g.rename_columns(["day", "completed"])
            return pa.table({
                "day": g.column("day"),
                "placed": pa.array(np.zeros(g.num_rows,
                                            dtype=np.int64)),
                "completed": g.column("completed").cast(pa.int64())})

        completed = last_ship.map_batches(completed_partial,
                                          batch_format="pyarrow")

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("day").aggregate(
                [("placed", "sum"), ("completed", "sum")]) \
                .rename_columns(["day", "placed", "completed"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            o = np.argsort(np.asarray(t.column("day"),
                                      dtype=np.int64))
            day = np.asarray(t.column("day"), dtype=np.int64)[o]
            p = np.asarray(t.column("placed"), dtype=np.int64)[o]
            c = np.asarray(t.column("completed"), dtype=np.int64)[o]
            return pa.table({
                "day": pa.array(day), "placed": pa.array(p),
                "completed": pa.array(c),
                "backlog": pa.array(np.cumsum(p - c))})

        return lowcard_combine(placed.union(completed), combine,
                               final)

    def orders_per_segment(sf_dir):
        # broadcast hash join: customer (small side) shipped once via ray.put
        import ray as _ray
        import pyarrow.parquet as pq
        import numpy as np
        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_mktsegment"])
        # dictionary-encode the small side once: sorted keys + segment
        # codes, probed per batch with np.searchsorted + pa.take (no
        # per-row Python dict lookups in the hot loop)
        keys = cust.column("c_custkey").to_numpy(zero_copy_only=False)
        dct = cust.column("c_mktsegment").combine_chunks().dictionary_encode()
        codes = dct.indices.to_numpy(zero_copy_only=False).astype(np.int32)
        order = np.argsort(keys, kind="stable")
        ref = _ray.put((keys[order], codes[order],
                        dct.dictionary.cast(pa.string())))

        def join(batch: pa.Table) -> pa.Table:
            skeys, scodes, sdict = _ray.get(ref)
            probe = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(skeys, probe)
            pos = np.clip(pos, 0, len(skeys) - 1)
            hit = skeys[pos] == probe
            seg_codes = np.where(hit, scodes[pos], 0)
            segs = pa.DictionaryArray.from_arrays(
                pa.array(seg_codes, type=pa.int32(), mask=~hit),
                sdict).cast(pa.string())
            return pa.table({"c_mktsegment": segs})

        ds = _tbl(sf_dir, "orders", columns=["o_custkey"])
        joined = ds.map_batches(join, batch_format="pyarrow")

        def partial(t: pa.Table) -> pa.Table:
            return t.group_by("c_mktsegment").aggregate(
                [([], "count_all")]).rename_columns(
                ["c_mktsegment", "n_orders"])

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by("c_mktsegment").aggregate(
                [("n_orders", "sum")])
            return pa.table({
                "c_mktsegment": g.column("c_mktsegment"),
                "n_orders": g.column("n_orders_sum").cast(pa.int64())})

        return lowcard_combine(joined, partial, final)

    def top10_parts(sf_dir):
        ds = _tbl(sf_dir, "part",
                  columns=["p_partkey", "p_name", "p_retailprice"])
        return ds.sort(["p_retailprice", "p_partkey"],
                       descending=[True, False]).limit(10)

    def events_by_type(sf_dir):
        # bounded key domain (5 event types) → block partials + single
        # reducer (lowcard_combine) instead of a sort-based shuffle
        ds = _tbl(sf_dir, "events", columns=["event_type", "value"])

        def partial(t: pa.Table) -> pa.Table:
            g = t.group_by("event_type").aggregate(
                [([], "count_all"), ("value", "sum")])
            return g.rename_columns(["event_type", "n", "total_value"])

        def final(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            g = t.group_by("event_type").aggregate(
                [("n", "sum"), ("total_value", "sum")])
            return pa.table({
                "event_type": g.column("event_type"),
                "n": g.column("n_sum").cast(pa.int64()),
                "total_value": pc.round(g.column("total_value_sum"), 2)})

        return lowcard_combine(ds, partial, final)

    def nation_region(sf_dir):
        import ray as _ray
        import pyarrow.parquet as pq
        reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
        rm = dict(zip(reg.column("r_regionkey").to_pylist(),
                      reg.column("r_name").to_pylist()))
        ds = _tbl(sf_dir, "nation", columns=["n_regionkey"])
        joined = ds.map_batches(
            lambda b: pa.table({"r_name": pa.array(
                [rm.get(k) for k in b.column("n_regionkey").to_pylist()],
                type=pa.string())}),
            batch_format="pyarrow")
        return (joined.groupby("r_name").count()
                .map_batches(lambda t: t.rename_columns(
                    ["r_name", "n_nations"]), batch_format="pyarrow"))

    def events_hourly_window(sf_dir):
        """Tumbling event-time window — the batch re-expression of the
        reference's streaming consumer (SURVEY.md §2.10): ordering-free,
        keyed by (window, type)."""
        ds = _tbl(sf_dir, "events", columns=["ts", "event_type", "value"])

        def wnd(b: pa.Table) -> pa.Table:
            import numpy as np
            import pyarrow.compute as pc
            w = pc.floor_temporal(b.column("ts"), unit="hour").cast(
                pa.timestamp("s"))
            # exact int64 cents (2-decimal grid, see _rev_scaled):
            # distributed float sums are association-ordered and land a
            # ULP off the oracle before rounding — integers don't
            cents = np.round(np.asarray(b.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            return pa.table({
                "window_start": pc.strftime(w, format="%Y-%m-%d %H:%M:%S"),
                "event_type": b.column("event_type"),
                "value": pa.array(cents),
            })

        def partial(t: pa.Table) -> pa.Table:
            g = t.group_by(["window_start", "event_type"]).aggregate(
                [([], "count_all"), ("value", "sum")])
            return g.rename_columns(
                ["window_start", "event_type", "n", "total_value"])

        def combine(t: pa.Table) -> pa.Table:
            g = t.group_by(["window_start", "event_type"]).aggregate(
                [("n", "sum"), ("total_value", "sum")])
            return g.rename_columns(
                ["window_start", "event_type", "n", "total_value"])

        def final(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            g = t.group_by(["window_start", "event_type"]).aggregate(
                [("n", "sum"), ("total_value", "sum")])
            return pa.table({
                "window_start": g.column("window_start"),
                "event_type": g.column("event_type"),
                "n": g.column("n_sum").cast(pa.int64()),
                "total_value": pc.round(pc.divide(
                    g.column("total_value_sum").cast(pa.float64()),
                    100.0), 2)})

        # windows × types GROWS with the time range (a decade of hours
        # ≈ 90k keys) — too wide for the bare single-reducer contract at
        # high block counts, so the partials tree-reduce through a
        # mergeable combine level before the final task
        return lowcard_combine(
            ds.map_batches(wnd, batch_format="pyarrow"), partial, final,
            combine_fn=combine)

    def events_user_stats(sf_dir):
        from ie_ray.stages.relational import bucketed_aggregate
        ds = _tbl(sf_dir, "events", columns=["user_id", "value"])
        # user_id is a rows-sized key domain — bucketed reduce
        agg = bucketed_aggregate(ds, "user_id",
                                 [("value", "count"), ("value", "mean")])

        def finish(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return pa.table({
                "user_id": t.column("user_id"),
                "n_events": t.column("value_count").cast(pa.int64()),
                "avg_value": pc.round(t.column("value_mean"), 4)})
        return agg.map_batches(finish, batch_format="pyarrow")

    def events_sessions(sf_dir):
        """Sessionization: count per-user sessions split at >30-min gaps —
        the classic stateful streaming op, expressed as a per-key group
        sort (event-time order is only ever needed within one user)."""
        ds = _tbl(sf_dir, "events", columns=["user_id", "ts"])

        def bucket_sessions(g: pa.Table) -> pa.Table:
            # one vectorized pass for ALL users in the bucket: a session
            # starts at each user's first event and after every >30-min
            # same-user gap; counting starts per user = bincount
            import numpy as np
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            us = np.asarray(g.column("ts").cast(pa.timestamp("us"))
                            .cast(pa.int64()), dtype=np.int64)
            order = np.lexsort((us, uid))
            u, t = uid[order], us[order]
            new_user = np.r_[True, u[1:] != u[:-1]]
            start = new_user | np.r_[
                False, (t[1:] - t[:-1] > 1800 * 1_000_000) & ~new_user[1:]]
            uu, inv = np.unique(u, return_inverse=True)
            n = np.bincount(inv, weights=start.astype(np.float64))
            return pa.table({
                "user_id": pa.array(uu, type=pa.int64()),
                "n_sessions": pa.array(n.astype(np.int64))})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(ds, "user_id", bucket_sessions)

    def events_asof_purchase_click(sf_dir):
        """AS-OF join: each purchase matched to the same user's most
        recent click at-or-before it (temporal join operator — see
        ie_ray/stages/temporal.py for the partitioning contract)."""
        from ie_ray.stages.temporal import asof_join_prior
        ev = _tbl(sf_dir, "events",
                  columns=["event_id", "user_id", "ts", "event_type"])

        def typed(name):
            import pyarrow.compute as pc
            return ev.map_batches(
                lambda t, _n=name: t.filter(
                    pc.equal(t.column("event_type"), _n)),
                batch_format="pyarrow")

        return asof_join_prior(typed("purchase"), typed("click"),
                               by="user_id", on="ts", id_col="event_id")

    def events_range_click_purchase(sf_dir):
        """Range join: every (click, purchase) pair by the same user
        where the purchase lands within 6 hours after the click —
        forward-window complement of the as-of join (see
        ie_ray/stages/temporal.py::range_join_forward for the
        slim-exchange + searchsorted-expand contract)."""
        from ie_ray.stages.temporal import range_join_forward
        ev = _tbl(sf_dir, "events",
                  columns=["event_id", "user_id", "ts", "event_type"])

        def typed(name):
            import pyarrow.compute as pc
            return ev.map_batches(
                lambda t, _n=name: t.filter(
                    pc.equal(t.column("event_type"), _n)),
                batch_format="pyarrow")

        return range_join_forward(
            typed("click"), typed("purchase"), by="user_id", on="ts",
            id_col="event_id", window_us=6 * 3_600_000_000)

    def customers_without_events(sf_dir):
        """Anti-join: customers with no event activity (NOT EXISTS).
        Membership decided by a hash exchange with per-block key dedup on
        the probe side — no broadcast, both sides may be arbitrarily
        large (ie_ray/stages/relational.py scale contract)."""
        from ie_ray.stages.relational import anti_join
        cust = _tbl(sf_dir, "customer",
                    columns=["c_custkey", "c_mktsegment", "c_acctbal"])
        ev = _tbl(sf_dir, "events", columns=["user_id"])
        return anti_join(cust, ev, "c_custkey", "user_id")

    def events_distinct_users(sf_dir):
        """Exact count(DISTINCT user_id) per event type via two-level
        dedup (block-local unique pairs → one exchange → per-group
        unique)."""
        from ie_ray.stages.relational import distinct_count
        ev = _tbl(sf_dir, "events", columns=["event_type", "user_id"])
        return distinct_count(ev, "event_type", "user_id",
                              out="n_users")

    def events_users_approx(sf_dir):
        """HyperLogLog approximate distinct users per event type — the
        scale path when exact distinct_count's per-pair exchange is the
        job (constant 16 KiB registers per block×group, merged by max;
        ±1% at p=14, gate-tested ±3%; see stages/sketches.py).  No SQL
        oracle: the estimate is sketch-defined (deterministic, pytest
        pins accuracy vs exact)."""
        from ie_ray.stages.sketches import hll_distinct
        ev = _tbl(sf_dir, "events", columns=["event_type", "user_id"])
        return hll_distinct(ev, "user_id", group_col="event_type")

    _LANGS = ("de", "en", "es", "fr", "zh")

    def docs_lang_pivot(sf_dir):
        """Pivot/crosstab: doc counts per source spread across one column
        per language.  The lang domain is fixed and small, so each block
        emits ONE row per source with 5 partial-count columns
        (combiner-friendly) and the exchange is O(sources)."""
        import pyarrow.compute as pc

        def partial(t: pa.Table) -> pa.Table:
            g = t.select(["source", "lang"]).group_by(
                ["source", "lang"]).aggregate([([], "count_all")])
            src = sorted(set(g.column("source").to_pylist()))
            sidx = {s: i for i, s in enumerate(src)}
            import numpy as np
            counts = np.zeros((len(src), len(_LANGS)), dtype=np.int64)
            for s, l, n in zip(g.column("source").to_pylist(),
                               g.column("lang").to_pylist(),
                               g.column("count_all").to_pylist()):
                if l in _LANGS:
                    counts[sidx[s], _LANGS.index(l)] += n
            cols = {"source": pa.array(src, type=pa.string())}
            for j, l in enumerate(_LANGS):
                cols["n_" + l] = pa.array(counts[:, j], type=pa.int64())
            return pa.table(cols)

        def finish(t: pa.Table) -> pa.Table:
            g = t.group_by("source").aggregate(
                [("n_" + l, "sum") for l in _LANGS])
            cols = {"source": g.column("source")}
            for l in _LANGS:
                cols["n_" + l] = g.column("n_%s_sum" % l).cast(pa.int64())
            return pa.table(cols)

        return lowcard_combine(
            _tbl(sf_dir, "documents", columns=["source", "lang"]),
            partial, finish)

    def docs_longest100(sf_dir):
        """Global top-100 documents by length: distributed `Dataset.sort`
        on (n_chars DESC, doc_id ASC) + limit — the streaming executor's
        range-partitioned sort, not a driver-side collect.  (doc_id
        breaks ties so the cut at rank 100 is deterministic.)"""
        return (_tbl(sf_dir, "documents",
                     columns=["doc_id", "n_chars", "source"])
                .sort(["n_chars", "doc_id"], descending=[True, False])
                .limit(100))

    def events_value_histogram(sf_dir):
        """Fixed-width histogram of event values (bin = floor(v/50)):
        per-block (bin, count, sum) partials, one tiny exchange."""
        import numpy as np
        import pyarrow.compute as pc

        def partial(t: pa.Table) -> pa.Table:
            v = np.asarray(t.column("value"))
            b = np.floor(v / 50.0).astype(np.int64)
            part = pa.table({"bin": pa.array(b, type=pa.int64()),
                             "v": pa.array(v, type=pa.float64())})
            g = part.group_by("bin").aggregate(
                [("v", "sum"), ([], "count_all")])
            return g.rename_columns(["bin", "s", "n"])

        def finish(t: pa.Table) -> pa.Table:
            g = t.group_by("bin").aggregate(
                [("s", "sum"), ("n", "sum")])
            n = g.column("n_sum").cast(pa.int64())
            return pa.table({
                "bin": g.column("bin"),
                "n": n,
                "avg_value": pc.round(pc.divide(
                    g.column("s_sum"), n.cast(pa.float64())), 4)})

        return lowcard_combine(_tbl(sf_dir, "events", columns=["value"]),
                               partial, finish)

    def events_corr_value_time(sf_dir):
        """Pearson corr(value, event time) per event type via CENTERED
        co-moments: each block contributes one
        (n, mean_x, mean_y, M2x, M2y, Cxy) row per type, and the single
        final task folds them with the Chan pairwise merge
        (ie_ray/stages/moments.py) — numerically stable at ANY value
        offset, unlike raw Σx²/Σxy sufficient statistics which cancel
        catastrophically once the data sit far from zero (round-4
        fp-hygiene sweep; tests/test_moments.py drives 1e9 offsets)."""
        import numpy as np

        from ie_ray.stages.moments import (block_comoments_by,
                                           reduce_grouped_comoments)

        def partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({
                    "event_type": pa.array([], type=pa.string()),
                    **{c: pa.array([], type=pa.float64())
                       for c in ("n", "mx", "my", "m2x", "m2y", "cxy")}})
            y = np.asarray(t.column("value"), dtype=np.float64)
            x = np.asarray(
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                dtype=np.float64) / 1e6
            return block_comoments_by(t, "event_type", x, y)

        def finish(t: pa.Table) -> pa.Table:
            agg = reduce_grouped_comoments(
                zip(t.column("event_type").to_pylist(),
                    *(np.asarray(t.column(c)) for c in
                      ("n", "mx", "my", "m2x", "m2y", "cxy"))))
            types = sorted(agg)
            r = [agg[k][5] / np.sqrt(agg[k][3] * agg[k][4])
                 for k in types]
            return pa.table({
                "event_type": pa.array(types, type=pa.string()),
                "corr_vt": pa.array(np.round(r, 4), type=pa.float64())})

        return lowcard_combine(
            _tbl(sf_dir, "events", columns=["event_type", "ts", "value"]),
            partial, finish)

    def events_trend_by_type(sf_dir):
        """Per-type OLS trend line of value over event time (slope per
        DAY, intercept, R²) — the regression sibling of
        events_corr_value_time, riding the same Chan centered-comoment
        merge (stages/moments.py): slope = Cxy/M2x is stable at any
        time offset where raw Σx² would cancel catastrophically."""
        import numpy as np

        from ie_ray.stages.moments import (block_comoments_by,
                                           reduce_grouped_comoments)

        def partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({
                    "event_type": pa.array([], type=pa.string()),
                    **{c: pa.array([], type=pa.float64())
                       for c in ("n", "mx", "my", "m2x", "m2y", "cxy")}})
            y = np.asarray(t.column("value"), dtype=np.float64)
            x = np.asarray(
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                dtype=np.float64) / 86_400_000_000.0   # days
            return block_comoments_by(t, "event_type", x, y)

        def finish(t: pa.Table) -> pa.Table:
            agg = reduce_grouped_comoments(
                zip(t.column("event_type").to_pylist(),
                    *(np.asarray(t.column(c)) for c in
                      ("n", "mx", "my", "m2x", "m2y", "cxy"))))
            types = sorted(agg)
            # zero-variance / singleton groups: regr_slope & friends
            # return NULL, not inf/nan (review finding r5s4)
            slope, icept, r2 = [], [], []
            for k in types:
                _, mx, my, m2x, m2y, cxy = agg[k]
                if m2x == 0.0:
                    slope.append(None)
                    icept.append(None)
                else:
                    s = cxy / m2x
                    slope.append(_r4(s))
                    icept.append(_r4(my - s * mx))
                r2.append(None if m2x == 0.0 or m2y == 0.0
                          else _r4(cxy ** 2 / (m2x * m2y)))
            return pa.table({
                "event_type": pa.array(types, type=pa.string()),
                "slope_per_day": pa.array(slope, type=pa.float64()),
                "intercept": pa.array(icept, type=pa.float64()),
                "r2": pa.array(r2, type=pa.float64())})

        return lowcard_combine(
            _tbl(sf_dir, "events", columns=["event_type", "ts", "value"]),
            partial, finish)

    def events_throttled(sf_dir):
        """Debounce/throttle (the streaming rate-limit shape): per
        (user, type) ordered stream, keep an event only if ≥ 60 s have
        passed since its PREDECESSOR (lag semantics — per-row
        decidable, so the whole operator is one bucketed exchange +
        one vectorized sort/shift pass; the chained every-Nth variant
        is iterative and documented out of scope)."""
        import polars as pl
        from ie_ray.stages.relational import bucketed_map_groups

        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "event_type", "event_id", "ts"])

        def kernel(g: pa.Table) -> pa.Table:
            df = pl.from_arrow(pa.table({
                "user_id": g.column("user_id").cast(pa.int64()),
                "event_type": g.column("event_type"),
                "event_id": g.column("event_id").cast(pa.int64()),
                "ts_us": g.column("ts").cast(pa.timestamp("us"))
                .cast(pa.int64())}))
            out = (df.sort(["user_id", "event_type", "ts_us",
                            "event_id"])
                   .with_columns(pl.col("ts_us").shift(1)
                                 .over(["user_id", "event_type"])
                                 .alias("prev_us"))
                   .filter(pl.col("prev_us").is_null()
                           | ((pl.col("ts_us") - pl.col("prev_us"))
                              > 60_000_000))
                   .drop("prev_us"))
            return out.to_arrow()

        return bucketed_map_groups(ds, "user_id", kernel)

    def events_zorder_key(sf_dir):
        """Z-order (Morton) layout key over (user_id, cents) — the
        multi-dimensional clustering primitive behind ZORDER-BY write
        optimization (ie_ray/stages/zorder.py): any aligned range of
        the interleaved key is a bounded (user, value) rectangle, so
        z-sorted files prune on EITHER column from min/max stats
        alone.  Pure vectorized bit-ladder; the oracle reproduces the
        interleave bit-for-bit via generated BIGINT SQL."""
        import numpy as np
        from ie_ray.stages.zorder import morton2

        ds = _tbl(sf_dir, "events",
                  columns=["event_id", "user_id", "value"])

        def key(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            z = morton2(
                t.column("user_id").cast(pa.int64()).combine_chunks()
                .to_numpy(zero_copy_only=False), cents)
            return pa.table({
                "event_id": t.column("event_id").cast(pa.int64()),
                "zkey": pa.array(z, type=pa.int64())})

        return ds.map_batches(key, batch_format="pyarrow")

    def events_rollup(sf_dir):
        """ROLLUP-style hierarchical aggregate: event counts at three
        levels — (type, hour-of-day), (type), grand total — computed in
        ONE pass: each block emits tagged partials for every level, one
        groupby sums them (sentinels: type='ALL', hr=-1)."""
        import numpy as np

        def partial(t: pa.Table) -> pa.Table:
            hr = pa.compute.hour(
                t.column("ts").cast(pa.timestamp("us"))).cast(pa.int64())
            base = pa.table({"event_type": t.column("event_type"),
                             "hr": hr})
            l0 = base.group_by(["event_type", "hr"]).aggregate(
                [([], "count_all")]).rename_columns(
                ["event_type", "hr", "n"])
            l1 = base.group_by("event_type").aggregate(
                [([], "count_all")]).rename_columns(["event_type", "n"])
            l1 = pa.table({
                "event_type": l1.column("event_type"),
                "hr": pa.array(np.full(l1.num_rows, -1), type=pa.int64()),
                "n": l1.column("n")})
            l2 = pa.table({
                "event_type": pa.array(["ALL"]),
                "hr": pa.array([-1], type=pa.int64()),
                "n": pa.array([t.num_rows], type=pa.int64())})
            return pa.concat_tables([l0, l1, l2])

        def finish(t: pa.Table) -> pa.Table:
            g = t.group_by(["event_type", "hr"]).aggregate(
                [("n", "sum")])
            return pa.table({"event_type": g.column("event_type"),
                             "hr": g.column("hr"),
                             "n": g.column("n_sum").cast(pa.int64())})

        return lowcard_combine(
            _tbl(sf_dir, "events", columns=["event_type", "ts"]),
            partial, finish)

    def doc_compression_ratio(sf_dir):
        """Gopher-style compressibility quality signal: zlib-compressed
        size ÷ raw utf-8 size per doc (boilerplate/repetition compresses
        far below ~0.4).  Deterministic (fixed zlib level), pure
        streaming map; no SQL zlib ⇒ pytest golden instead of a DuckDB
        oracle."""
        import zlib
        docs = _docs(sf_dir)

        def ratio(t: pa.Table) -> pa.Table:
            texts = t.column("text").to_pylist()
            out = []
            for x in texts:
                raw = x.encode("utf-8")
                out.append(round(len(zlib.compress(raw, 6))
                                 / max(len(raw), 1), 4))
            return pa.table({
                "doc_id": t.column("doc_id"),
                "compression_ratio": pa.array(out, type=pa.float64())})

        return docs.map_batches(ratio, batch_format="pyarrow")

    def doc_char_entropy(sf_dir):
        """Per-document Shannon entropy (bits) over unicode codepoints —
        a cheap gibberish/boilerplate QC signal.  Fully vectorized: one
        UTF-32 decode per batch, one np.unique over (doc, codepoint)
        pairs, two bincounts — no per-character Python.  Empty docs drop
        (no codepoints → no row), matching the unnest-based oracle."""
        import numpy as np

        def entropy_batch(t: pa.Table) -> pa.Table:
            texts = t.column("text").to_pylist()
            ids = np.asarray(t.column("doc_id"), dtype=np.int64)
            lens = np.fromiter((len(s) for s in texts), dtype=np.int64,
                               count=len(texts))
            codes = np.frombuffer(
                "".join(texts).encode("utf-32-le"), dtype=np.uint32)
            owner = np.repeat(np.arange(len(texts)), lens)
            # codepoints < 2^21, so (doc, char) packs into one int64
            pairs = owner.astype(np.int64) * (1 << 21) + codes
            uniq, counts = np.unique(pairs, return_counts=True)
            uowner = (uniq >> 21).astype(np.int64)
            n = np.bincount(uowner, weights=counts,
                            minlength=len(texts))
            s = np.bincount(uowner, weights=counts * np.log2(counts),
                            minlength=len(texts))
            keep = n > 0
            ent = np.log2(n[keep]) - s[keep] / n[keep]
            return pa.table({
                "doc_id": pa.array(ids[keep], type=pa.int64()),
                "char_entropy": pa.array(np.round(ent, 4),
                                         type=pa.float64())})

        return _tbl(sf_dir, "documents",
                    columns=["doc_id", "text"]).map_batches(
            entropy_batch, batch_format="pyarrow")

    def customer_event_counts(sf_dir):
        """LEFT OUTER join + aggregate: every customer with their event
        count, zero for the inactive majority.  Events pre-count per
        block (the exchange moves (user, partial_n), not rows); the
        outer join is the tagged-union groupby from relational.py's
        contract — no broadcast, no driver map."""
        import numpy as np

        def ev_partial(t: pa.Table) -> pa.Table:
            g = t.group_by("user_id").aggregate([([], "count_all")])
            return pa.table({
                "__k": g.column("user_id").cast(pa.int64()),
                "c_mktsegment": pa.nulls(g.num_rows, pa.string()),
                "n_events": g.column("count_all").cast(pa.int64())})

        def cust_tag(t: pa.Table) -> pa.Table:
            return pa.table({
                "__k": t.column("c_custkey").cast(pa.int64()),
                "c_mktsegment": t.column("c_mktsegment"),
                "n_events": pa.nulls(t.num_rows, pa.int64())})

        ev = _tbl(sf_dir, "events", columns=["user_id"]).map_batches(
            ev_partial, batch_format="pyarrow")
        cust = _tbl(sf_dir, "customer",
                    columns=["c_custkey", "c_mktsegment"]).map_batches(
            cust_tag, batch_format="pyarrow")

        def bucket_merge(g: pa.Table) -> pa.Table:
            # vectorized left-outer merge for every customer key in the
            # bucket; keys with no customer row (non-customer events)
            # drop via the segment filter
            import polars as pl
            df = pl.from_arrow(g)
            out = (df.group_by("__k").agg(
                pl.col("c_mktsegment").drop_nulls().first()
                .alias("c_mktsegment"),
                pl.col("n_events").fill_null(0).sum().alias("n_events"))
                .filter(pl.col("c_mktsegment").is_not_null()))
            t = out.to_arrow()
            return pa.table({
                "c_custkey": t.column("__k").cast(pa.int64()),
                "c_mktsegment":
                    t.column("c_mktsegment").cast(pa.string()),
                "n_events": t.column("n_events").cast(pa.int64())})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(cust.union(ev), "__k", bucket_merge)

    def q6_forecast_revenue(sf_dir):
        """TPC-H Q6 shape: pure filter + global sum — pruned 4-column
        read, vectorized mask, one-row block partials."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        lo = pa.scalar(datetime.datetime(1996, 1, 1))
        hi = pa.scalar(datetime.datetime(1997, 1, 1))

        def partial(t: pa.Table) -> pa.Table:
            m = pc.and_(pc.and_(
                pc.greater_equal(t.column("l_shipdate"), lo),
                pc.less(t.column("l_shipdate"), hi)),
                pc.and_(pc.and_(
                    pc.greater_equal(t.column("l_discount"), 0.05),
                    pc.less_equal(t.column("l_discount"), 0.07)),
                    pc.less(t.column("l_quantity"), 24.0)))
            t = t.filter(m)
            rev = float(np.sum(np.asarray(t.column("l_extendedprice")) *
                               np.asarray(t.column("l_discount"))))
            return pa.table({"one": pa.array([1], type=pa.int64()),
                             "rev": pa.array([rev], type=pa.float64())})

        def finish(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc2
            return pa.table({
                "revenue": pc2.round(
                    pa.chunked_array([pa.array(
                        [pc2.sum(t.column("rev")).as_py() or 0.0],
                        type=pa.float64())]), 2)})

        return lowcard_combine(
            _tbl(sf_dir, "lineitem",
                 columns=["l_shipdate", "l_discount", "l_quantity",
                          "l_extendedprice"]),
            partial, finish)

    def events_funnel(sf_dir):
        """Ordered view→click→purchase funnel per user: the earliest
        view, the earliest click AFTER it, the earliest purchase after
        THAT; only users completing all three stages emit.  One key
        exchange; the per-group kernel is three sorted-array probes."""
        import numpy as np

        def bucket_stages(g: pa.Table) -> pa.Table:
            # vectorized staged mins for every user in the bucket:
            # np.minimum.at scatter-reduces each stage's earliest
            # qualifying time per user, each stage gated by the previous
            et = np.asarray(g.column("event_type").cast(pa.string())
                            .to_pylist())
            t = np.asarray(g.column("ts").cast(pa.timestamp("us"))
                           .cast(pa.int64()))
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            uu, inv = np.unique(uid, return_inverse=True)
            big = np.iinfo(np.int64).max

            def stage_min(mask):
                out = np.full(len(uu), big, dtype=np.int64)
                np.minimum.at(out, inv[mask], t[mask])
                return out

            t1 = stage_min(et == "view")
            t2 = stage_min((et == "click") & (t > t1[inv]))
            t3 = stage_min((et == "purchase") & (t > t2[inv]))
            keep = t3 < big
            return pa.table({
                "user_id": pa.array(uu[keep], type=pa.int64()),
                "view_us": pa.array(t1[keep], type=pa.int64()),
                "click_us": pa.array(t2[keep], type=pa.int64()),
                "purchase_us": pa.array(t3[keep], type=pa.int64())})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(
            _tbl(sf_dir, "events",
                 columns=["user_id", "event_type", "ts"]),
            "user_id", bucket_stages)

    def events_cohort_retention(sf_dir):
        """Cohort retention matrix: users grouped by first-activity day,
        counted per day-offset they return.  Two exchanges: (1) per-user
        first day (block partial mins → groupby min), joined back by a
        hash join; (2) distinct (cohort, offset, user) → counts via the
        block-dedup trick."""
        import numpy as np
        from ie_ray.stages.dedup import _join_partitions

        ev = _tbl(sf_dir, "events", columns=["user_id", "ts"])

        def day_partial(t: pa.Table) -> pa.Table:
            d = pa.compute.floor(pa.compute.divide(
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
                 .cast(pa.float64()),
                86_400_000_000.0)).cast(pa.int64())
            part = pa.table({"user_id": t.column("user_id"), "day": d})
            return part.group_by("user_id").aggregate(
                [("day", "min")]).rename_columns(["user_id", "day"])

        from ie_ray.stages.relational import bucketed_aggregate
        first = (bucketed_aggregate(
            ev.map_batches(day_partial, batch_format="pyarrow"),
            "user_id", [("day", "min")])
                 .map_batches(lambda t: t.rename_columns(
                     ["user_id", "cohort_day"]), batch_format="pyarrow"))

        days = ev.map_batches(
            lambda t: pa.table({
                "user_id": t.column("user_id"),
                "day": pa.compute.floor(pa.compute.divide(
                    t.column("ts").cast(pa.timestamp("us"))
                     .cast(pa.int64()).cast(pa.float64()),
                    86_400_000_000.0)).cast(pa.int64()),
            }).group_by(["user_id", "day"]).aggregate([]),
            batch_format="pyarrow")

        joined = days.join(first, "inner",
                           num_partitions=_join_partitions(),
                           on=("user_id",), right_on=("user_id",))

        def offs(t: pa.Table) -> pa.Table:
            off = pa.compute.subtract(t.column("day"),
                                      t.column("cohort_day"))
            part = pa.table({"cohort_day": t.column("cohort_day"),
                             "day_offset": off,
                             "user_id": t.column("user_id")})
            return part.group_by(
                ["cohort_day", "day_offset", "user_id"]).aggregate([])

        # rows are already distinct per (cohort, offset, user), so the
        # distinct-user count is a plain bucketed count on a key domain
        # that grows as days² — no per-group Python
        return bucketed_aggregate(
            joined.map_batches(offs, batch_format="pyarrow"),
            ["cohort_day", "day_offset"], [("user_id", "count")]) \
            .map_batches(lambda t: pa.table({
                "cohort_day": t.column("cohort_day").cast(pa.int64()),
                "day_offset": t.column("day_offset").cast(pa.int64()),
                "n_users": t.column("user_id_count").cast(pa.int64())}),
                batch_format="pyarrow")

    _PROFILE_COLS = ("l_quantity", "l_extendedprice", "l_discount",
                     "l_tax")

    def lineitem_profile(sf_dir):
        """Column-profile / summary-statistics operator: count, nulls,
        min, max, mean for every numeric column in ONE pass — each block
        contributes one 6-field partial row per column."""
        import numpy as np

        def partial(t: pa.Table) -> pa.Table:
            rows = {"col": [], "n": [], "n_null": [], "mn": [], "mx": [],
                    "s": []}
            for c in _PROFILE_COLS:
                # to_numpy(zero_copy_only=False) maps nulls to NaN
                v = t.column(c).cast(pa.float64()).combine_chunks() \
                    .to_numpy(zero_copy_only=False)
                nn = int(np.isnan(v).sum())
                vv = v[~np.isnan(v)]
                rows["col"].append(c)
                rows["n"].append(len(vv))
                rows["n_null"].append(nn)
                rows["mn"].append(float(vv.min()) if len(vv) else np.inf)
                rows["mx"].append(float(vv.max()) if len(vv) else -np.inf)
                # values sit on a 4-decimal grid: sum exactly in scaled
                # int64 so the mean is the same rational number the SQL
                # oracle computes, immune to block-order fp drift
                rows["s"].append(int(np.round(vv * 10000.0)
                                     .astype(np.int64).sum()))
            return pa.table({
                "col": pa.array(rows["col"], type=pa.string()),
                "n": pa.array(rows["n"], type=pa.int64()),
                "n_null": pa.array(rows["n_null"], type=pa.int64()),
                "mn": pa.array(rows["mn"], type=pa.float64()),
                "mx": pa.array(rows["mx"], type=pa.float64()),
                "s": pa.array(rows["s"], type=pa.int64())})

        # sum/min/max reduce together in one single-task final (4 keys,
        # one partial row per block per key)
        def finish(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            g = t.group_by("col").aggregate(
                [("n", "sum"), ("n_null", "sum"), ("mn", "min"),
                 ("mx", "max"), ("s", "sum")])
            n = g.column("n_sum").cast(pa.int64())
            return pa.table({
                "col": g.column("col"),
                "n": n,
                "n_null": g.column("n_null_sum").cast(pa.int64()),
                "min_v": pc.round(g.column("mn_min"), 4),
                "max_v": pc.round(g.column("mx_max"), 4),
                "mean_v": pc.divide(
                    g.column("s_sum").cast(pa.float64()),
                    pc.multiply(pa.scalar(10000.0),
                                n.cast(pa.float64())))})

        return lowcard_combine(
            _tbl(sf_dir, "lineitem", columns=list(_PROFILE_COLS)),
            partial, finish)

    def events_top3_per_user(sf_dir):
        """Windowed row_number() ≤ 3 per user by value (top-k-per-group
        operator with block-level partial top-k before the shuffle)."""
        from ie_ray.stages.temporal import top_k_per_group
        ev = _tbl(sf_dir, "events",
                  columns=["user_id", "event_id", "value"])
        return top_k_per_group(ev, key="user_id", value="value", k=3)

    def events_ohlc_hourly(sf_dir):
        """Per-hour OHLC candlestick bars over the event stream —
        ordered first/last aggregates (kdb+ xbar idiom) made mergeable
        by carrying the (ts, event_id) arg-key in each partial; see
        ie_ray/stages/temporal.py::ohlc_bars for the tree-combine
        shape.  Values ride as exact int64 cents."""
        from ie_ray.stages.temporal import ohlc_bars

        ev = _tbl(sf_dir, "events", columns=["event_id", "ts", "value"])

        def h_to_us(t: pa.Table) -> pa.Table:
            return t.set_column(0, "h_us", t.column("h").cast(pa.int64()))

        return ohlc_bars(ev).map_batches(h_to_us, batch_format="pyarrow")

    def decontaminate_docs(sf_dir):
        """Training-data decontamination: train docs (source != src0)
        sharing any 8-gram with the src0 eval split."""
        import pyarrow.compute as pc
        from ie_ray.stages.decontam import decontaminate
        docs = _tbl(sf_dir, "documents",
                    columns=["doc_id", "text", "source"])

        def split(src_eq: bool):
            return docs.map_batches(
                lambda t, _e=src_eq: t.filter(
                    pc.equal(t.column("source"), "src0") if _e
                    else pc.not_equal(t.column("source"), "src0")),
                batch_format="pyarrow")

        return decontaminate(split(False), split(True), n=8)

    def events_props_stats(sf_dir):
        """JSON payload extraction (reference S3 article→JSON analogue):
        parse the props JSON per row, aggregate k per event type with a
        block-level combiner."""
        ds = _tbl(sf_dir, "events", columns=["event_type", "props"])

        def partial(t: pa.Table) -> pa.Table:
            import json as _json
            ks = [_json.loads(p)["k"] for p in t.column("props").to_pylist()]
            tt = pa.table({"event_type": t.column("event_type"),
                           "k": pa.array(ks, type=pa.int64())})
            g = tt.group_by(["event_type"]).aggregate(
                [("k", "sum"), ("k", "count")])
            return g.rename_columns(["event_type", "k_sum", "n"])

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by("event_type").aggregate(
                [("k_sum", "sum"), ("n", "sum")])
            ks = g.column("k_sum_sum").to_pylist()
            ns = g.column("n_sum").to_pylist()
            return pa.table({
                "event_type": g.column("event_type"),
                "n": pa.array(ns, type=pa.int64()),
                "avg_k": pa.array([round(a / b, 4)
                                   for a, b in zip(ks, ns)],
                                  type=pa.float64())})

        return lowcard_combine(ds, partial, final)

    def events_value_quantiles(sf_dir):
        """Exact per-group quantiles (linear interpolation — DuckDB
        quantile_cont semantics).  Per-key groups fit in memory here; the
        100 TB path for high-cardinality keys is fixed-bin histograms."""
        import numpy as np
        ds = _tbl(sf_dir, "events", columns=["event_type", "value"])

        def q(group: pa.Table) -> pa.Table:
            vals = np.asarray(group.column("value"), dtype=np.float64)
            p50, p95 = np.percentile(vals, [50, 95])
            return pa.table({
                "event_type": group.slice(0, 1).column("event_type"),
                "p50": pa.array([round(float(p50), 4)], type=pa.float64()),
                "p95": pa.array([round(float(p95), 4)], type=pa.float64())})

        return ds.groupby("event_type").map_groups(q, batch_format="pyarrow")

    def events_global_quantiles(sf_dir):
        """Exact GLOBAL p50/p95/p99 of events.value by histogram-
        refinement selection (relational.global_quantiles) — the 100 TB
        path where neither a full sort nor a driver pull is possible.
        max_pull=512 forces ≥1 refinement round even at sf0.01."""
        from ie_ray.stages.relational import global_quantiles
        ds = _tbl(sf_dir, "events", columns=["value"])
        qv = global_quantiles(ds, "value", [0.5, 0.95, 0.99],
                              max_pull=512)
        return pa.table({
            "p50": pa.array([round(qv[0.5], 4)], type=pa.float64()),
            "p95": pa.array([round(qv[0.95], 4)], type=pa.float64()),
            "p99": pa.array([round(qv[0.99], 4)], type=pa.float64())})

    def events_latest_per_user(sf_dir):
        """Keep-latest-per-key (the 'latest crawl of each URL' shape):
        associative per-block argmax, one bounded exchange
        (relational.latest_per_group)."""
        from ie_ray.stages.relational import latest_per_group
        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id", "event_type",
                           "value"])
        out = latest_per_group(ds, "user_id", "ts", "event_id")

        def finish(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc_
            return pa.table({
                "user_id": t.column("user_id"),
                "ts_us": t.column("ts").cast(pa.timestamp("us"))
                          .cast(pa.int64()),
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
                "value": t.column("value")})

        return out.map_batches(finish, batch_format="pyarrow")

    def events_dq_report(sf_dir):
        """One-pass distributed data-quality audit: rule-violation
        counts reduced as one partial row per block (no exchange wider
        than |rules|)."""
        from datetime import datetime, timezone
        from ie_ray.stages.relational import lowcard_combine
        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_type", "value"])
        allowed = {"view", "click", "purchase", "signup"}
        lo = datetime(2024, 1, 1, tzinfo=timezone.utc).timestamp() * 1e6
        hi = datetime(2024, 2, 1, tzinfo=timezone.utc).timestamp() * 1e6

        def partial(t: pa.Table) -> pa.Table:
            import numpy as np
            import pyarrow.compute as pc_
            ts = t.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
            tsv = np.asarray(ts, dtype=np.int64)
            types = t.column("event_type").to_pylist()
            vals = np.asarray(t.column("value"), dtype=np.float64)
            return pa.table({
                "n_rows": pa.array([t.num_rows], type=pa.int64()),
                "n_null_user": pa.array(
                    [t.column("user_id").null_count], type=pa.int64()),
                "n_nonpos_value": pa.array(
                    [int((vals <= 0).sum())], type=pa.int64()),
                "n_bad_type": pa.array(
                    [sum(1 for x in types if x not in allowed)],
                    type=pa.int64()),
                "n_ts_out_of_range": pa.array(
                    [int(((tsv < lo) | (tsv >= hi)).sum())],
                    type=pa.int64())})

        def final(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc_
            return pa.table({c: pa.array([pc_.sum(t.column(c)).as_py()],
                                         type=pa.int64())
                             for c in t.column_names})

        return lowcard_combine(ds, partial, final)

    def events_value_zscore(sf_dir):
        """Global z-score normalization: one CENTERED-moments pass
        (n, mean, M2 per block, Chan pairwise merge — stable at any
        value offset, ie_ray/stages/moments.py) → broadcast scalars →
        streaming map.  The feature-scaling shape of every training
        pipeline."""
        import numpy as np

        from ie_ray.stages.moments import merge_moments
        ds = _tbl(sf_dir, "events", columns=["event_id", "value"])

        def stats(t: pa.Table) -> pa.Table:
            v = np.asarray(t.column("value"), dtype=np.float64)
            if not len(v):
                return pa.table({c: pa.array([], type=pa.float64())
                                 for c in ("n", "mean", "m2")})
            m = v.mean()
            return pa.table({
                "n": pa.array([float(len(v))]),
                "mean": pa.array([m]),
                "m2": pa.array([float(((v - m) ** 2).sum())])})

        agg = (0.0, 0.0, 0.0)
        for r in ds.map_batches(stats, batch_format="pyarrow").iter_rows():
            agg = merge_moments(agg, (r["n"], r["mean"], r["m2"]))
        n, mean, m2 = agg
        std = float(np.sqrt(m2 / n))

        def z(t: pa.Table) -> pa.Table:
            v = np.asarray(t.column("value"), dtype=np.float64)
            return pa.table({
                "event_id": t.column("event_id"),
                "z": pa.array(np.round((v - mean) / std, 4))})

        return ds.map_batches(z, batch_format="pyarrow")

    def events_zscore_by_type(sf_dir):
        """Per-GROUP z-score: one combiner pass reduces CENTERED moments
        (n, mean, M2) per event_type (bounded key domain → ≤|types|
        rows/block), the driver folds the tiny moment rows with the
        Chan pairwise merge (stable at any value offset,
        ie_ray/stages/moments.py), and normalization is a streaming
        map.  The grouped feature-scaling shape."""
        import numpy as np

        from ie_ray.stages.moments import (block_moments_by,
                                           reduce_grouped_moments)
        ds = _tbl(sf_dir, "events",
                  columns=["event_id", "event_type", "value"])

        def stats(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({
                    "event_type": pa.array([], type=pa.string()),
                    **{c: pa.array([], type=pa.float64())
                       for c in ("n", "mean", "m2")}})
            return block_moments_by(t, "event_type", "value")

        rows = []
        for r in (ds.map_batches(stats, batch_format="pyarrow")
                  .iter_rows()):
            rows.append((r["event_type"], r["n"], r["mean"], r["m2"]))
        agg = {}
        for k, (n, mean, m2) in reduce_grouped_moments(rows).items():
            agg[k] = (mean, float(np.sqrt(m2 / n)))

        def z(t: pa.Table) -> pa.Table:
            v = np.asarray(t.column("value"), dtype=np.float64)
            types = t.column("event_type").to_pylist()
            m = np.array([agg[x][0] for x in types])
            s = np.array([agg[x][1] for x in types])
            return pa.table({
                "event_id": t.column("event_id"),
                "z": pa.array(np.round((v - m) / s, 4))})

        return ds.map_batches(z, batch_format="pyarrow")

    def events_value_ntile4(sf_dir):
        """Global ntile(4) over (value, event_id) WITHOUT a global
        sort: stats pass → bounded histogram exchange → per-bin local
        rank + DuckDB-exact tile mapping
        (relational.global_ntile)."""
        from ie_ray.stages.relational import global_ntile
        ds = _tbl(sf_dir, "events", columns=["event_id", "value"])
        return global_ntile(ds, "value", "event_id", k=4)

    def events_cumulative_value(sf_dir):
        """Running per-user value total ordered by (ts, event_id) — the
        cumulative-window shape: key-partitioned sorted prefix sum,
        bounded per-key groups (hot keys salt by time range, same
        contract as temporal.py)."""
        import numpy as np
        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id", "value"])

        def bucket_cum(g: pa.Table) -> pa.Table:
            # segmented prefix sum for all users in the bucket: global
            # cumsum minus each user-segment's starting offset
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            ts = np.asarray(g.column("ts").cast(pa.timestamp("us"))
                            .cast(pa.int64()), dtype=np.int64)
            eid = np.asarray(g.column("event_id"), dtype=np.int64)
            # values sit on a 2-decimal grid: prefix-sum exactly in
            # scaled int64 (association-order-proof; oracle uses the
            # identical round(value*10000) BIGINT expression)
            val = np.round(np.asarray(g.column("value"),
                                      dtype=np.float64) * 10000.0) \
                .astype(np.int64)
            order = np.lexsort((eid, ts, uid))
            u, v = uid[order], val[order]
            cs = np.cumsum(v)
            starts = np.r_[0, np.flatnonzero(u[1:] != u[:-1]) + 1]
            seg = np.repeat(np.arange(len(starts)), np.diff(
                np.r_[starts, len(u)]))
            base = np.r_[np.int64(0), cs[starts[1:] - 1]]
            run = cs - base[seg]
            return pa.table({
                "event_id": pa.array(eid[order], type=pa.int64()),
                "cum_value": pa.array(
                    np.round(run.astype(np.float64) / 10000.0, 4),
                    type=pa.float64())})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(ds, "user_id", bucket_cum)

    def events_interarrival(sf_dir):
        """Per-user mean inter-event gap (seconds): key-partitioned
        sorted diff, bounded per-key groups (windowed lag re-expressed
        for the exchange)."""
        import numpy as np
        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id"])

        def bucket_gaps(g: pa.Table) -> pa.Table:
            # same-user consecutive diffs for every user in the bucket
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            ts = np.asarray(g.column("ts").cast(pa.timestamp("us"))
                            .cast(pa.int64()), dtype=np.int64)
            eid = np.asarray(g.column("event_id"), dtype=np.int64)
            order = np.lexsort((eid, ts, uid))
            u, t = uid[order], ts[order]
            same = u[1:] == u[:-1]
            d = (t[1:] - t[:-1])[same] / 1e6
            du = u[1:][same]
            uu, inv_all = np.unique(u, return_inverse=True)
            pos = np.searchsorted(uu, du)
            n_gaps = np.bincount(pos, minlength=len(uu)).astype(np.int64)
            sums = np.bincount(pos, weights=d, minlength=len(uu))
            avg = np.where(n_gaps > 0, np.round(
                sums / np.maximum(n_gaps, 1), 4), np.nan)
            return pa.table({
                "user_id": pa.array(uu, type=pa.int64()),
                "avg_gap_s": pa.array(
                    [None if n == 0 else float(a)
                     for a, n in zip(avg, n_gaps)], type=pa.float64()),
                "n_gaps": pa.array(n_gaps)})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(ds, "user_id", bucket_gaps)

    def events_quantile_digest(sf_dir):
        """Mergeable t-digest-style per-group quantiles (the unbounded-
        key-cardinality path; exchange = blocks × groups × k × 16 B,
        row-count independent).  Approximate by design → rank-error
        pytest gate instead of a hash oracle
        (stages/sketches.py::quantile_digest)."""
        from ie_ray.stages.sketches import quantile_digest
        ds = _tbl(sf_dir, "events", columns=["event_type", "value"])
        return quantile_digest(ds, "value", "event_type",
                               [0.5, 0.95], k=128).sort("event_type")

    def events_sliding_3h(sf_dir):
        """Sliding event-time window (3 h wide, 1 h slide): each event
        fans out to its 3 covering windows, pre-counted per block before
        one small groupby."""
        ds = _tbl(sf_dir, "events", columns=["ts"])

        def explode(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            base = pc.floor_temporal(b.column("ts"), unit="hour").cast(
                pa.timestamp("s"))
            chunks = []
            for i in range(3):
                w = pc.subtract(base, pa.scalar(i * 3600,
                                                type=pa.duration("s")))
                chunks.append(pc.strftime(w, format="%Y-%m-%d %H:%M:%S"))
            ws = pa.chunked_array(chunks)
            g = pa.table({"window_start": ws}).group_by(
                ["window_start"]).aggregate([([], "count_all")])
            return g.rename_columns(["window_start", "n"])

        from ie_ray.stages.relational import bucketed_aggregate
        # the window key domain grows with the time range — bucketed sum
        agg = bucketed_aggregate(
            ds.map_batches(explode, batch_format="pyarrow"),
            "window_start", [("n", "sum")])
        return agg.map_batches(
            lambda t: pa.table({
                "window_start": t.column("window_start"),
                "n": t.column("n_sum").cast(pa.int64())}),
            batch_format="pyarrow")

    def boilerplate_ngrams(sf_dir):
        """Boilerplate detection: 3-grams appearing in ≥5 distinct docs,
        top-20 by document frequency.  One row per (doc, distinct gram)
        enters the exchange, partially counted per block first."""
        from ie_ray.stages.dedup import _words
        docs = _docs(sf_dir)

        def grams(b: pa.Table) -> pa.Table:
            counts: dict = {}
            for txt in b.column("text").to_pylist():
                w = _words(txt)
                for g in {" ".join(w[i:i + 3])
                          for i in range(len(w) - 2)}:
                    counts[g] = counts.get(g, 0) + 1
            keys = sorted(counts)
            return pa.table({
                "gram": pa.array(keys, type=pa.string()),
                "df": pa.array([counts[k] for k in keys],
                               type=pa.int64())})

        from ie_ray.stages.relational import bucketed_aggregate
        agg = (bucketed_aggregate(
            docs.map_batches(grams, batch_format="pyarrow"),
            "gram", [("df", "sum")])
               .map_batches(lambda t: pa.table({
                   "gram": t.column("gram"),
                   "df": t.column("df_sum").cast(pa.int64())}),
                            batch_format="pyarrow"))
        import pyarrow.compute as pc
        filt = agg.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("df"), 5)),
            batch_format="pyarrow")
        return filt.sort(["df", "gram"], descending=[True, False]).limit(20)

    def doc_dup_ngram_frac(sf_dir):
        """Cross-document duplication signal (the Dolma/Gopher dup-span
        filter): per doc, the fraction of its distinct 3-grams that occur
        in at least one OTHER doc.  Complements doc_repetition
        (within-doc) and boilerplate_ngrams (corpus-level list): the
        corpus gram frequencies are joined BACK to the per-doc gram rows.
        Two combiner-safe exchanges (gram dfreq, per-doc fraction) plus
        one hash join — no doc's gram set ever leaves its block twice."""
        from ie_ray.stages import dedup
        from ie_ray.stages.dedup import _words
        docs = _docs(sf_dir)

        def gram_rows(b: pa.Table) -> pa.Table:
            ids, grams = [], []
            for d, txt in zip(b.column("doc_id").to_pylist(),
                              b.column("text").to_pylist()):
                w = _words(txt)
                for g in {" ".join(w[i:i + 3]) for i in range(len(w) - 2)}:
                    ids.append(d)
                    grams.append(g)
            return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                             "gram": pa.array(grams, type=pa.string())})

        # e feeds the df count AND the join probe — materialize once
        e = docs.map_batches(gram_rows,
                             batch_format="pyarrow").materialize()
        from ie_ray.stages.relational import bucketed_aggregate
        dfreq = (bucketed_aggregate(e.select_columns(["gram"]), "gram",
                                    [("gram", "count")])
                 .map_batches(lambda t: pa.table({
                     "gram": t.column("gram"),
                     "df": t.column("gram_count").cast(pa.int64())}),
                              batch_format="pyarrow"))
        joined = e.join(dfreq, "inner",
                        num_partitions=dedup._join_partitions(),
                        on=("gram",))

        def flag(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            dup = pc.cast(pc.greater_equal(t.column("df"), 2), pa.int64())
            return pa.table({
                "doc_id": t.column("doc_id"),
                "dup": dup,
                "one": pa.array([1] * t.num_rows, type=pa.int64())})

        def finish(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            frac = pc.divide(pc.cast(t.column("dup_sum"), pa.float64()),
                             pc.cast(t.column("one_sum"), pa.float64()))
            return pa.table({"doc_id": t.column("doc_id"),
                             "dup_gram_frac": frac})

        from ie_ray.stages.relational import bucketed_aggregate
        return (bucketed_aggregate(
            joined.map_batches(flag, batch_format="pyarrow"),
            "doc_id", [("dup", "sum"), ("one", "sum")])
            .map_batches(finish, batch_format="pyarrow"))

    def normalize_docs(sf_dir):
        """Stopword-stripped normalization fingerprint per doc — the
        text-normalization map every training pipeline runs before
        dedup; exact SQL parity via the shared tokenizer contract."""
        import hashlib
        from ie_ray.stages.dedup import _words
        from ie_ray.stages.textstats import _STOPWORDS_EN

        def norm(b: pa.Table) -> pa.Table:
            out = []
            for txt in b.column("text").to_pylist():
                kept = [w for w in _words(txt) if w not in _STOPWORDS_EN]
                out.append(hashlib.md5(
                    " ".join(kept).encode("utf-8")).hexdigest())
            return pa.table({
                "doc_id": b.column("doc_id"),
                "norm_md5": pa.array(out, type=pa.string())})

        return _docs(sf_dir).map_batches(norm, batch_format="pyarrow")

    def docs_sample_10pct(sf_dir):
        """Deterministic content-hash sampling (the reproducible-sampling
        trick at scale: no RNG state, no coordination — a pure map)."""
        import hashlib

        def keep(b: pa.Table) -> pa.Table:
            ids = [d for d, t in zip(b.column("doc_id").to_pylist(),
                                     b.column("text").to_pylist())
                   if int.from_bytes(
                       hashlib.md5(t.encode("utf-8")).digest()[:4],
                       "big") % 10 == 0]
            return pa.table({"doc_id": pa.array(ids, type=pa.int64())})

        return _docs(sf_dir).map_batches(keep, batch_format="pyarrow")

    def docs_sample_exact100(sf_dir):
        """EXACTLY-k uniform sample without replacement, deterministic
        and coordination-free: rank every row by a content-hash priority
        and keep the global k smallest (hash-priority reservoir — the
        distributed form of Vitter's algorithm with a fixed key).  Each
        block pre-reduces to its local top-k, so only k × n_blocks rows
        reach the final sort."""
        import hashlib
        import pyarrow.compute as pc
        k = 100
        docs = _docs(sf_dir)

        def pri(b: pa.Table) -> pa.Table:
            prios = [hashlib.md5(t.encode("utf-8")).hexdigest()
                     for t in b.column("text").to_pylist()]
            out = pa.table({
                "doc_id": b.column("doc_id"),
                "pri": pa.array(prios, type=pa.string())})
            idx = pc.sort_indices(out, sort_keys=[("pri", "ascending"),
                                                  ("doc_id", "ascending")])
            return out.take(idx[:k])

        return (docs.map_batches(pri, batch_format="pyarrow")
                .sort(["pri", "doc_id"]).limit(k))

    def docs_pack_sequences(sf_dir):
        """Sequence packing: each doc's start offset and chunk id in the
        concatenated 2048-token training stream (distributed prefix sum —
        one small bucket-totals groupby + bounded per-bucket groups; see
        ie_ray/stages/packing.py)."""
        from ie_ray.stages.packing import pack_sequences
        return pack_sequences(_docs(sf_dir), seq_len=2048)

    def docs_new_vs_seen(sf_dir):
        """Continuous-crawl membership: which probe docs are NEW vs a
        seen corpus (doc_id % 3 == 0), exactly — a broadcast Bloom
        prefilter drops definite-new rows locally and only bloom-positive
        rows enter the exact anti-join exchange (see stages/bloom.py)."""
        import hashlib
        from ie_ray.stages.bloom import bloom_new_rows

        def keyed(b: pa.Table) -> pa.Table:
            ks = [int.from_bytes(
                hashlib.md5(t.encode("utf-8")).digest()[:4], "big")
                for t in b.column("text").to_pylist()]
            return pa.table({"doc_id": b.column("doc_id"),
                             "k": pa.array(ks, type=pa.int64())})

        def third(want: bool):
            def fn(b: pa.Table) -> pa.Table:
                import numpy as np
                m = b.column("doc_id").to_numpy() % 3 == 0
                return b.filter(pa.array(m if want else ~m))
            return fn

        docs = _docs(sf_dir).map_batches(keyed, batch_format="pyarrow")
        seen = docs.map_batches(third(True), batch_format="pyarrow")
        probe = docs.map_batches(third(False), batch_format="pyarrow")
        new = bloom_new_rows(probe, seen, "k")
        return new.select_columns(["doc_id"])

    def docs_weighted_mix(sf_dir):
        """Per-source weighted corpus mixing — the data-mixing step of
        training-corpus assembly: each source gets a deterministic keep
        rate (here 25/50/75/100 % cycling by source index) and rows are
        kept by content hash, so the mix is reproducible with no RNG
        state, no coordination, and no shuffle (a pure map over blocks)."""
        import hashlib

        def keep(b: pa.Table) -> pa.Table:
            ids, srcs = [], []
            for d, t, s in zip(b.column("doc_id").to_pylist(),
                               b.column("text").to_pylist(),
                               b.column("source").to_pylist()):
                rate_pct = 25 * (int(s[3:]) % 4 + 1)
                h = int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[:4], "big")
                if h % 100 < rate_pct:
                    ids.append(d)
                    srcs.append(s)
            return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                             "source": pa.array(srcs, type=pa.string())})

        return _docs(sf_dir).map_batches(keep, batch_format="pyarrow")

    def events_stratified_sample(sf_dir):
        """Stratified sample: 5 events per type, ranked by md5(event_id) —
        deterministic, shuffle-light (top-k-per-group over a hash)."""
        import hashlib
        ev = _tbl(sf_dir, "events", columns=["event_type", "event_id"])

        def ranked(b: pa.Table) -> pa.Table:
            hs = [hashlib.md5(str(e).encode()).hexdigest()
                  for e in b.column("event_id").to_pylist()]
            return pa.table({
                "event_type": b.column("event_type"),
                "event_id": b.column("event_id"),
                "h": pa.array(hs, type=pa.string()),
            })

        ds = ev.map_batches(ranked, batch_format="pyarrow")

        def pick(group: pa.Table) -> pa.Table:
            g = group.sort_by([("h", "ascending"), ("event_id", "ascending")])
            g = g.slice(0, 5)
            return g.select(["event_type", "event_id"])

        return ds.groupby("event_type").map_groups(pick,
                                                   batch_format="pyarrow")

    def q3_shipping(sf_dir):
        """TPC-H Q3 shape (3-table join): the customer→segment filter is
        a broadcast sorted-key array (customers are a dimension, ~1% of
        data), and orders⋈lineitem — the two unbounded sides — meet in a
        real `Dataset.join` hash exchange (same pattern as Q5).  Lineitem
        revenue is pre-combined per l_orderkey inside every block before
        the exchange, so the shuffle carries one row per (block, order)."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.dedup import _join_partitions

        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_mktsegment"])
        ckeys = np.sort(cust.filter(
            pc.equal(cust.column("c_mktsegment"), "BUILDING"))
            .column("c_custkey").to_numpy(zero_copy_only=False))
        ckeys_ref = _ray.put(ckeys)
        cutoff = pa.scalar(datetime.datetime(1995, 3, 15))

        def ord_prep(t: pa.Table) -> pa.Table:
            ck = _ray.get(ckeys_ref)
            t = t.filter(pc.less(t.column("o_orderdate"), cutoff))
            probe = t.column("o_custkey").to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(ck, probe), 0, len(ck) - 1)
            t = t.filter(pa.array(ck[pos] == probe))
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_orderdate": pc.strftime(
                    t.column("o_orderdate").cast(pa.timestamp("s")),
                    format="%Y-%m-%d %H:%M:%S")})

        def li_prep(b: pa.Table) -> pa.Table:
            b = b.filter(pc.greater(b.column("l_shipdate"), cutoff))
            # exact int64 money (see _rev_scaled): association-order-proof
            part = pa.table({
                "l_orderkey": b.column("l_orderkey").cast(pa.int64()),
                "revenue": pa.array(_rev_scaled(b), type=pa.int64())})
            return part.group_by("l_orderkey").aggregate(
                [("revenue", "sum")]).rename_columns(
                ["l_orderkey", "revenue"])

        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
            .map_batches(ord_prep, batch_format="pyarrow")
        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_extendedprice", "l_discount",
                           "l_shipdate"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        from ie_ray.stages.relational import bucketed_aggregate
        agg = bucketed_aggregate(joined.map_batches(
            lambda t: t.select(["l_orderkey", "o_orderdate", "revenue"]),
            batch_format="pyarrow"),
            ["l_orderkey", "o_orderdate"], [("revenue", "sum")])

        def finish(t: pa.Table) -> pa.Table:
            return pa.table({
                "l_orderkey": t.column("l_orderkey"),
                "o_orderdate": t.column("o_orderdate"),
                "rev_scaled": t.column("revenue_sum").cast(pa.int64())})

        def present(t: pa.Table) -> pa.Table:
            return pa.table({
                "l_orderkey": t.column("l_orderkey"),
                "o_orderdate": t.column("o_orderdate"),
                "revenue": pc.round(
                    pc.divide(t.column("rev_scaled").cast(pa.float64()),
                              pa.scalar(10000.0)),
                    2, round_mode="half_towards_infinity")})

        return (agg.map_batches(finish, batch_format="pyarrow")
                .sort(["rev_scaled", "l_orderkey"],
                      descending=[True, False])
                .limit(10)
                .map_batches(present, batch_format="pyarrow"))

    def q5_local_supplier(sf_dir):
        """TPC-H Q5 shape (6 tables): region→nation→supplier/customer
        are dimension lookups broadcast as dense int arrays; the two
        unbounded tables (orders, lineitem) meet in a real hash join
        (`Dataset.join`, fan-out via `_join_partitions`), with lineitem
        revenue pre-combined per (l_orderkey, s_nationkey) inside every
        block before the exchange.  At 100 TB the dims stay broadcast
        (TPC-H dims are ~1% of data); if customer ever outgrows an
        actor, swap its lookup for a second hash join."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        from ie_ray.stages.dedup import _join_partitions

        reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
        asia = reg.filter(pc.equal(reg.column("r_name"), "ASIA")) \
                  .column("r_regionkey").combine_chunks()
        nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
        nat = nat.filter(pc.is_in(nat.column("n_regionkey"),
                                  value_set=asia))
        nkeys = nat.column("n_nationkey").combine_chunks().cast(pa.int64())
        nname = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))

        def dense_lookup(path, key, val):
            t = pq.read_table(os.path.join(sf_dir, path),
                              columns=[key, val])
            t = t.filter(pc.is_in(t.column(val).cast(pa.int64()),
                                  value_set=nkeys))
            # sparse-key-safe: dense gather only when max(key) ~ n
            return KeyLookup(np.asarray(t.column(key).cast(pa.int64())),
                             np.asarray(t.column(val).cast(pa.int64())),
                             default=-1)

        s_nat = dense_lookup("supplier.parquet", "s_suppkey", "s_nationkey")
        c_nat = dense_lookup("customer.parquet", "c_custkey", "c_nationkey")
        lo = pa.scalar(datetime.datetime(1996, 1, 1))
        hi = pa.scalar(datetime.datetime(1997, 1, 1))

        def ord_prep(t: pa.Table, _c=c_nat) -> pa.Table:
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("o_orderdate"), lo),
                pc.less(t.column("o_orderdate"), hi)))
            ck = np.asarray(t.column("o_custkey").cast(pa.int64()))
            cn = _c.take(ck)
            keep = cn >= 0
            return pa.table({
                "o_orderkey": pa.array(
                    np.asarray(t.column("o_orderkey"))[keep],
                    type=pa.int64()),
                "c_nat": pa.array(cn[keep], type=pa.int64())})

        def li_prep(t: pa.Table, _s=s_nat) -> pa.Table:
            sk = np.asarray(t.column("l_suppkey").cast(pa.int64()))
            sn = _s.take(sk)
            keep = sn >= 0
            # exact int64 money (see _rev_scaled)
            rev = _rev_scaled(t)
            part = pa.table({
                "l_orderkey": pa.array(
                    np.asarray(t.column("l_orderkey"))[keep],
                    type=pa.int64()),
                "s_nat": pa.array(sn[keep], type=pa.int64()),
                "rev": pa.array(rev[keep], type=pa.int64())})
            return part.group_by(["l_orderkey", "s_nat"]).aggregate(
                [("rev", "sum")]).rename_columns(
                ["l_orderkey", "s_nat", "rev"])

        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
            .map_batches(ord_prep, batch_format="pyarrow")
        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                           "l_discount"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        def local_only(t: pa.Table, _n=nname) -> pa.Table:
            t = t.filter(pc.equal(t.column("s_nat"), t.column("c_nat")))
            names = [_n[k] for k in t.column("s_nat").to_pylist()]
            return pa.table({"n_name": pa.array(names, type=pa.string()),
                             "rev": t.column("rev")})

        agg = (joined.map_batches(local_only, batch_format="pyarrow")
               .groupby("n_name").sum("rev"))

        def finish(t: pa.Table) -> pa.Table:
            return pa.table({
                "n_name": t.column("n_name"),
                "revenue": pc.round(
                    pc.divide(t.column("sum(rev)").cast(pa.float64()),
                              pa.scalar(10000.0)),
                    2, round_mode="half_towards_infinity")})

        return (agg.map_batches(finish, batch_format="pyarrow")
                .sort("revenue", descending=True))

    def knn_top1_ivf(sf_dir):
        """IVF-flat ANN variant of knn_top1 (rows-only driver check; the
        recall ≥0.9 gate vs brute force lives in tests/test_operators.py)."""
        import numpy as np
        import pyarrow.parquet as pq
        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet")) \
            .sort_by("vec_id")
        qids = t.column("vec_id").to_pylist()[:10]
        qs = np.asarray(t.column("embedding").to_pylist()[:10],
                        dtype=np.float64)
        ds = _tbl(sf_dir, "embeddings", blocks=8)
        res = similarity.knn_ivf(ds, qs, qids, k=2, n_centroids=16, nprobe=8)

        def pick(group: pa.Table) -> pa.Table:
            g = group.sort_by([("cosine", "descending"),
                               ("neighbor", "ascending")])
            import pyarrow.compute as pc
            g = g.filter(pc.not_equal(g.column("neighbor"),
                                      g.column("query_id")[0]))
            return pa.table({
                "query_id": g.slice(0, 1).column("query_id"),
                "neighbor": g.slice(0, 1).column("neighbor")})
        return res.groupby("query_id").map_groups(pick,
                                                  batch_format="pyarrow")

    def top_words(sf_dir):
        """Corpus-wide top-20 words: per-batch partial counts (combiner)
        → one small groupby → sort+limit (heavy-hitter pattern)."""
        ds = _docs(sf_dir)

        agg = (ds.map_batches(_word_count_partial, batch_format="pyarrow")
               .groupby("word").sum("n")
               .map_batches(lambda t: t.rename_columns(["word", "n"]),
                            batch_format="pyarrow"))
        return agg.sort(["n", "word"], descending=[True, False]).limit(20)

    def doc_oov_rate(sf_dir):
        """Vocabulary pruning / OOV-rate (the tokenizer-vocab design
        loop every training pipeline runs): pass 1 reduces the corpus to
        global word counts via block combiners and keeps the top-10
        vocabulary (tiny → driver → ray.put broadcast); pass 2 scores
        each doc's out-of-vocabulary token fraction vectorized against
        the broadcast vocab.  At 100 TB the vocab stays top-K-bounded
        and crosses the cluster once."""
        import ray as _ray
        ds = _docs(sf_dir)

        vocab_rows = (ds.map_batches(_word_count_partial,
                                     batch_format="pyarrow")
                      .groupby("word").sum("n")
                      .map_batches(lambda t: t.rename_columns(["word", "n"]),
                                   batch_format="pyarrow")
                      .sort(["n", "word"], descending=[True, False])
                      .limit(10).take_all())
        vocab_ref = _ray.put(frozenset(r["word"] for r in vocab_rows))

        def score(b: pa.Table) -> pa.Table:
            vocab = _ray.get(vocab_ref)
            ids, rates = [], []
            for i, t in zip(b.column("doc_id").to_pylist(),
                            b.column("text").to_pylist()):
                words = t.lower().split()
                if not words:
                    continue
                oov = sum(1 for w in words if w not in vocab)
                ids.append(i)
                rates.append(oov / len(words))
            import pyarrow.compute as pc
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                # duckdb round() is half-away-from-zero (pyarrow:
                # half_towards_infinity); Python round() banker's-rounds
                # (21/32 = .65625 → .6562) — match duckdb
                "oov_rate": pc.round(
                    pa.array(rates, type=pa.float64()), 4,
                    round_mode="half_towards_infinity")})

        return ds.map_batches(score, batch_format="pyarrow")

    def bm25_top10(sf_dir):
        """Okapi BM25 top-10 docs for a fixed mixed-rarity term query.
        One combiner pass reduces (n_docs, Σ dl, per-term df) to
        ≤ |query|+2 rows; scoring is a stateless map with per-block
        local top-k, so only k×n_blocks rows reach the global sort.
        See ie_ray/stages/retrieval.py."""
        from ie_ray.stages.retrieval import bm25_topk
        return bm25_topk(_docs(sf_dir), _BM25_QUERY, k=10)

    def doc_unigram_logprob(sf_dir):
        """Per-doc unigram-LM log-probability (perplexity-style quality
        score): block-local tf → one vocab exchange (stays a Dataset) →
        hash join → per-doc sum.  No driver-side vocab map."""
        from ie_ray.stages.retrieval import unigram_logprob
        return unigram_logprob(_docs(sf_dir))

    def docs_chunk_sliding(sf_dir):
        """RAG/training-style sliding-window chunking: 32-token windows,
        stride 24 (8-token overlap), trailing partial kept.  Pure
        streaming flat-map — a doc's tokens live in one row, so chunking
        never shuffles; output is (doc_id, chunk_idx, n_tokens, chunk)."""
        W, S = 32, 24
        docs = _docs(sf_dir)

        def chunk(t: pa.Table) -> pa.Table:
            ids, idxs, ns, texts = [], [], [], []
            for did, text in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist()):
                w = text.split(" ")
                n_chunks = (len(w) + S - 1) // S
                for i in range(n_chunks):
                    seg = w[i * S:i * S + W]
                    ids.append(did)
                    idxs.append(i)
                    ns.append(len(seg))
                    texts.append(" ".join(seg))
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "chunk_idx": pa.array(idxs, type=pa.int64()),
                "n_tokens": pa.array(ns, type=pa.int64()),
                "chunk": pa.array(texts, type=pa.string())})

        return docs.map_batches(chunk, batch_format="pyarrow")

    def pmi_collocations(sf_dir):
        """Top-20 adjacent-word collocations by PMI (Church & Hanks):
        block-local bigram+unigram counts, bounded exchanges, min-count
        pre-filter BEFORE the two unigram hash joins
        (stages/retrieval.py::pmi_bigrams)."""
        from ie_ray.stages.retrieval import pmi_bigrams
        return pmi_bigrams(_docs(sf_dir), k=20, min_count=20)

    def heavy_hitter_words(sf_dir):
        """Exact ≥1%-frequency words via mergeable Misra-Gries block
        summaries + one exact-count verify pass — no vocabulary-wide
        exchange (stages/sketches.py::heavy_hitters)."""
        from ie_ray.stages.sketches import heavy_hitters
        return heavy_hitters(_docs(sf_dir), phi=0.01)

    def bpe_top_pairs(sf_dir):
        """Top-20 BPE merge candidates (adjacent char-pair counts) —
        the distributed kernel of tokenizer training.  Per-block
        Counter over DISTINCT words, one bounded-key combiner
        exchange.  See ie_ray/stages/tokenizer.py."""
        from ie_ray.stages.tokenizer import bpe_top_pairs as _bpe
        return _bpe(_docs(sf_dir), k=20)

    def doc_tfidf_top3(sf_dir):
        """Per-doc top-3 TF-IDF terms — the canonical two-exchange
        corpus-statistics shape: (1) per-block polars explode computes
        exact per-doc term frequencies WITHOUT a shuffle (a doc's text is
        one row, so its words never span blocks), (2) one vocab-sized
        exchange on `word` builds document frequency, (3) a hash join
        ships idf back to the tf rows, (4) one exchange on `doc_id` takes
        per-doc top-3 (groups are O(words-per-doc), so map_groups is
        safe).  Vocabulary stays distributed end-to-end — no driver-side
        vocab map, which is what survives a 100 TB corpus."""
        docs = _docs(sf_dir)
        n_docs = docs.count()

        def tf_batch(b: pa.Table) -> pa.Table:
            import polars as pl
            df = pl.from_arrow(b.select(["doc_id", "text"]))
            e = (df.with_columns(pl.col("text").str.split(" ").alias("w"))
                   .drop("text").explode("w"))
            tf = e.group_by(["doc_id", "w"]).agg(pl.len().alias("c"))
            n = e.group_by("doc_id").agg(pl.len().alias("n_words"))
            out = (tf.join(n, on="doc_id").rename({"w": "word"})
                     .with_columns(pl.col("c").cast(pl.Int64),
                                   pl.col("n_words").cast(pl.Int64))
                     .to_arrow())
            # polars emits large_string; Ray's hash join needs both sides
            # to agree on plain string
            return out.cast(pa.schema([
                pa.field(f.name, pa.string() if f.type == pa.large_string()
                         else f.type) for f in out.schema]))

        # tf feeds the df count AND the join probe — materialize once or
        # the lazy lineage re-reads + re-explodes the corpus per consumer
        tf = docs.map_batches(tf_batch,
                              batch_format="pyarrow").materialize()
        # tf is unique per (doc_id, word) → row count per word == df(word)
        from ie_ray.stages.relational import bucketed_aggregate
        dfreq = (bucketed_aggregate(tf.select_columns(["word"]), "word",
                                    [("word", "count")])
                 .map_batches(lambda t: pa.table({
                     "word": t.column("word"),
                     "dfreq": t.column("word_count").cast(pa.int64())}),
                              batch_format="pyarrow"))
        joined = tf.join(dfreq, "inner",
                         num_partitions=dedup._join_partitions(),
                         on=("word",))

        def score(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            s = pc.multiply(
                pc.divide(pc.cast(b.column("c"), pa.float64()),
                          pc.cast(b.column("n_words"), pa.float64())),
                pc.ln(pc.divide(float(n_docs),
                                pc.cast(b.column("dfreq"), pa.float64()))))
            return pa.table({"doc_id": b.column("doc_id"),
                             "word": b.column("word"),
                             "score": s})

        def bucket_top3(g: pa.Table) -> pa.Table:
            # one vectorized sort+window per BUCKET (all docs hashed
            # there), not one Python-sliced group per doc
            import polars as pl
            df = pl.from_arrow(g)
            out = (df.sort(["doc_id", "score", "word"],
                           descending=[False, True, False])
                     .with_columns(pl.col("word").cum_count()
                                   .over("doc_id").alias("rk"))
                     .filter(pl.col("rk") <= 3))
            t = out.to_arrow()
            return pa.table({
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "word": t.column("word").cast(pa.string()),
                "score": t.column("score").cast(pa.float64()),
                "rk": t.column("rk").cast(pa.int64())})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(
            joined.map_batches(score, batch_format="pyarrow"),
            "doc_id", bucket_top3)

    def inverted_index(sf_dir):
        """Sharded inverted index: word × doc-range shard → sorted posting
        list.  The shard key (doc_id // 128) is the load-bearing scale
        decision: a posting list for a common term is O(corpus) and would
        otherwise concentrate an entire hub group in one task — sharding
        bounds every group at 128 doc ids (this is how real IR systems
        split postings too).  Per-block distinct (doc_id, word) needs no
        shuffle (a doc's text is one row), so the whole op is one bounded
        exchange on (word, shard)."""
        docs = _docs(sf_dir)

        def tok_batch(b: pa.Table) -> pa.Table:
            import polars as pl
            df = pl.from_arrow(b.select(["doc_id", "text"]))
            e = (df.with_columns(pl.col("text").str.split(" ").alias("w"))
                   .drop("text").explode("w").unique()
                   .rename({"w": "word"})
                   .with_columns((pl.col("doc_id") // 128).alias("shard")))
            out = e.to_arrow()
            return out.cast(pa.schema([
                pa.field(f.name, pa.string() if f.type == pa.large_string()
                         else f.type) for f in out.schema]))

        def bucket_postings(g: pa.Table) -> pa.Table:
            # all (word, shard) lists in the bucket built by one polars
            # sort + group_by (posting order = sorted doc ids)
            import polars as pl
            df = pl.from_arrow(g)
            out = (df.sort(["word", "shard", "doc_id"])
                     .group_by(["word", "shard"], maintain_order=True)
                     .agg(pl.len().alias("n_docs"),
                          pl.col("doc_id").cast(pl.String)
                          .str.join(",").alias("postings")))
            t = out.to_arrow()
            return pa.table({
                "word": t.column("word").cast(pa.string()),
                "shard": t.column("shard").cast(pa.int64()),
                "n_docs": t.column("n_docs").cast(pa.int64()),
                "postings": t.column("postings").cast(pa.string())})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(
            docs.map_batches(tok_batch, batch_format="pyarrow"),
            ["word", "shard"], bucket_postings)

    def label_centroids(sf_dir):
        """Per-label mean embedding as (label, dim, mean_v) rows — the
        vector-aggregate shape: each block emits one partial
        (label, dim, sum, count) row per label×dim (bounded by label
        cardinality × dim, independent of corpus size), then a single
        associative groupby finishes the mean.  Row-per-dim output keeps
        the oracle comparison exact (no list-column hashing)."""
        import numpy as np

        emb = _tbl(sf_dir, "embeddings", blocks=8)

        def partials(b: pa.Table) -> pa.Table:
            m = np.asarray(b.column("embedding").to_pylist(),
                           dtype=np.float64)
            labels = np.asarray(b.column("label").to_pylist())
            out_l, out_d, out_s, out_n = [], [], [], []
            for lab in np.unique(labels):
                rows = m[labels == lab]
                s = rows.sum(axis=0)
                for d in range(m.shape[1]):
                    out_l.append(int(lab))
                    out_d.append(d + 1)
                    out_s.append(float(s[d]))
                    out_n.append(rows.shape[0])
            # label stays int32 to mirror the source column (and the
            # oracle's GROUP BY output) exactly
            return pa.table({
                "label": pa.array(out_l, type=pa.int32()),
                "dim": pa.array(out_d, type=pa.int64()),
                "s": pa.array(out_s, type=pa.float64()),
                "n": pa.array(out_n, type=pa.int64())})

        def finish(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            g = b.group_by(["label", "dim"]).aggregate(
                [("s", "sum"), ("n", "sum")])
            return pa.table({
                "label": g.column("label"),
                "dim": g.column("dim"),
                "mean_v": pc.divide(g.column("s_sum"),
                                    pc.cast(g.column("n_sum"),
                                            pa.float64()))})

        # label × dim keys are bounded by construction → single reducer
        return lowcard_combine(emb, partials, finish)

    def embedding_outliers(sf_dir):
        """Embedding QC: vectors farther than τ=1.0 from their label's
        centroid.  The centroid table is O(labels × dim) — small by
        construction — so it is collected once and broadcast (`ray.put`),
        and the scan is a pure streaming map_batches filter; no per-row
        state, no second exchange.  Parity note: `dist` is 4-dp-stable,
        not bit-exact — the centroid means are float averages whose
        association order differs between engines by design (full-
        precision audit r5s4: ULP-level only; embeddings have no exact
        integer grid to ride, unlike the money columns)."""
        import numpy as np
        import ray

        cent = label_centroids(sf_dir).to_pandas()
        labels = sorted(cent.label.unique())
        lidx = {l: i for i, l in enumerate(labels)}
        dim = int(cent.dim.max())
        mat = np.zeros((len(labels), dim), dtype=np.float64)
        for _, r in cent.iterrows():
            mat[lidx[int(r.label)], int(r.dim) - 1] = r.mean_v
        mref = ray.put((lidx, mat))

        class Score:
            def __init__(self, ref):
                self.lidx, self.mat = ray.get(ref)

            def __call__(self, b: pa.Table) -> pa.Table:
                m = np.asarray(b.column("embedding").to_pylist(),
                               dtype=np.float64)
                labs = b.column("label").to_pylist()
                rows = np.array([self.lidx[int(l)] for l in labs])
                d = np.linalg.norm(m - self.mat[rows], axis=1)
                keep = d > 1.0
                return pa.table({
                    "vec_id": pa.array(
                        np.asarray(b.column("vec_id"))[keep],
                        type=pa.int64()),
                    "label": pa.array(np.asarray(labs)[keep],
                                      type=pa.int32()),
                    "dist": pa.array(d[keep], type=pa.float64())})

        return _tbl(sf_dir, "embeddings", blocks=8).map_batches(
            Score(mref), batch_format="pyarrow")

    def embedding_kmeans(sf_dir):
        """Distributed Lloyd's k-means (k=8, 5 rounds) over the embedding
        table: per-round centroid broadcast + per-batch partial sums (at
        most k rows per block reach the driver), then one streaming
        assignment pass.  Not SQL-expressible (iterative) — verified
        exactly against a single-process NumPy twin in
        tests/test_clustering.py."""
        from ie_ray.stages import clustering
        emb = _tbl(sf_dir, "embeddings", blocks=8)
        centroids = clustering.kmeans_fit(emb, k=8, iters=5)
        return clustering.kmeans_assign(emb, centroids)

    def lexicon_extract(sf_dir):
        """A4: stem → distinct category signatures over the derivation
        corpus (flat_map tokens → groupby(stem) distinct-count)."""
        from ie_ray.ccg import parse_ccgbank
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        ds = ray.data.read_parquet(os.path.join(fd, "derivations.parquet"))

        def toks(b: pa.Table) -> pa.Table:
            stems, cats = [], []
            from ie_ray.semantics.lexicon import Token
            for drv in b.column("ccgbank").to_pylist():
                _, leaves = parse_ccgbank(drv)
                for l in leaves:
                    t = Token(l.idx, l.word, l.pos, l.cat)
                    stems.append(t.stem)
                    cats.append(l.cat.signature)
            return pa.table({"stem": pa.array(stems, type=pa.string()),
                             "category": pa.array(cats, type=pa.string())})

        pairs = ds.map_batches(toks, batch_format="pyarrow")

        def agg(group: pa.Table) -> pa.Table:
            cats = sorted(set(group.column("category").to_pylist()))
            return pa.table({
                "stem": group.slice(0, 1).column("stem"),
                "n_categories": pa.array([len(cats)], type=pa.int64()),
                "categories": pa.array([",".join(cats)], type=pa.string()),
            })
        return pairs.groupby("stem").map_groups(agg, batch_format="pyarrow")

    def order_status_counts(sf_dir):
        def partial(t: pa.Table) -> pa.Table:
            return t.group_by("o_orderstatus").aggregate(
                [([], "count_all")]).rename_columns(["o_orderstatus", "n"])

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by("o_orderstatus").aggregate([("n", "sum")])
            return pa.table({"o_orderstatus": g.column("o_orderstatus"),
                             "n": g.column("n_sum").cast(pa.int64())})

        return lowcard_combine(
            _tbl(sf_dir, "orders", columns=["o_orderstatus"]),
            partial, final)

    # -- KG pipeline (synthetic pages; rows-only checks) ----------------

    def _pages_ds(sf_dir, columns):
        import ray.data
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        return ray.data.read_parquet(os.path.join(fd, "pages"),
                                     columns=columns)

    def page_link_graph(sf_dir):
        """Host-level web link graph from raw page HTML: vectorized
        href extraction reduced to per-block (src_host, dst_host)
        partial counts before ONE bounded exchange.  See
        ie_ray/stages/linkgraph.py (pytest: planted-page golden +
        NumPy twin)."""
        from ie_ray.stages.linkgraph import page_link_edges
        return page_link_edges(_pages_ds(sf_dir, ["url", "html"]))

    def host_pagerank(sf_dir):
        """Weighted PageRank over the host link graph — mass splits by
        link count on the COUNT-aggregated edge table (O(|hosts|²) loop
        input, never per-link rows)."""
        from ie_ray.stages.linkgraph import host_pagerank as _hpr
        return _hpr(_pages_ds(sf_dir, ["url", "html"]), iters=5).sort("node")

    def kg_triples_q(sf_dir):
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        return kg_triples(fd)

    def kg_triples_warc(sf_dir):
        """Flagship from the WARC container (ISO 28500, Common-Crawl
        gzip-per-record layout) instead of Parquet: the SAME
        deterministic corpus serialized as WARC, ingested via
        sources/warc.py::read_warc, then the unchanged extract→segment→
        parse→compose→link pipeline.  Rows-only (the pages table is not
        an oracle view); tests/test_warc.py gates writer↔parser
        round-trip, malformed-record quarantine, and byte-identical
        extraction vs the Parquet path."""
        import glob as _glob
        from ie_ray.sources.warc import read_warc, write_warc_fixture
        n = _sf_pages(sf_dir)
        fd = default_fixture_dir(n_pages=n)  # alias table lives here
        # v2: atomic publish — shards are generated into a temp dir and
        # renamed into place as a unit, so a crash mid-generation can
        # never leave a half-fixture that later runs mistake for
        # complete (a lone pages-000 shard would silently quarter the
        # corpus)
        wdir = "/tmp/ie_ray_fixtures/warc_v2_p%d" % n
        if not os.path.isdir(wdir):
            import shutil as _shutil
            tmp = "%s.tmp.%d" % (wdir, os.getpid())
            write_warc_fixture(os.path.join(tmp, "pages.warc.gz"),
                               n_pages=n, gzip_per_record=True,
                               shards=4, pool_size=1200)
            try:
                os.rename(tmp, wdir)
            except OSError:  # lost a publish race — theirs is complete
                _shutil.rmtree(tmp, ignore_errors=True)
        paths = sorted(_glob.glob(os.path.join(wdir, "pages-*.warc.gz")))
        pages = read_warc(paths).select_columns(["url", "html", "lang"])
        return kg_triples(fd, pages_ds=pages)

    def kg_comention_pairs(sf_dir):
        """Top-50 same-sentence entity co-mention pairs (relatedness
        signal): block-local per-sentence sets → bounded pair explode →
        one exchange (stages/graph.py::co_mention_pairs)."""
        from ie_ray.stages.graph import co_mention_pairs
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        return co_mention_pairs(kg_triples(fd))

    def kg_entity_types(sf_dir):
        """Majority-vote entity typing (person/org/concept/other) over
        all triple mentions — block-level vote pre-counts, bounded
        per-entity groups (stages/graph.py::type_entities)."""
        from ie_ray.stages.graph import type_entities
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        return type_entities(kg_triples(fd))

    def kg_nodes(sf_dir):
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        good = kg_triples(fd).filter(
            expr="kind != 'quarantine' and kind != 'empty'")
        return build_nodes(good)

    def kg_edges(sf_dir):
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        good = kg_triples(fd).filter(
            expr="kind != 'quarantine' and kind != 'empty'")
        return build_edges(good)

    def kg_incremental(sf_dir):
        """Incremental graph maintenance: the fixture corpus arrives as
        two deltas merged into versioned mergeable state (label counts +
        additive edge counts) by the one-shot build's own count sum,
        majority kernel and writer (stages/graph.py); returns the final
        edges table — the rows build_edges gives over both deltas
        (pinned against build_nodes/build_edges by
        tests/test_graph_update.py)."""
        import tempfile
        from ie_ray.stages.graph_update import read_graph, update_graph
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        good = kg_triples(fd).filter(
            expr="kind != 'quarantine' and kind != 'empty'").materialize()

        def half(parity):
            def fn(b: pa.Table) -> pa.Table:
                mask = [len(u) % 2 == parity
                        for u in b.column("url").to_pylist()]
                return b.filter(pa.array(mask))
            return fn

        out = tempfile.mkdtemp(prefix="kg_inc_", dir="/tmp")
        update_graph(out, good.map_batches(half(0), batch_format="pyarrow"))
        update_graph(out, good.map_batches(half(1), batch_format="pyarrow"))
        return read_graph(out, "edges")

    def kg_canonical_edges(sf_dir):
        """Full canonicalization path: triples → _AKA alias edges →
        distributed connected components (each block contracted, then
        labelled in one task) → canonical-id relabel, every triple batch
        probing the one-block label table by broadcast — the component
        labels never pass through the driver."""
        from ie_ray.stages.link import (alias_edges_from_triples,
                                        canonicalize_ids_ds,
                                        connected_components)
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        triples = kg_triples(fd).materialize()
        labels = connected_components(alias_edges_from_triples(triples))
        canon = canonicalize_ids_ds(triples, labels, ("subj_id", "obj_id"))
        good = canon.filter(expr="kind != 'quarantine' and kind != 'empty'")
        return build_edges(good)

    def events_median_interarrival_us(sf_dir):
        """EXACT global median of per-user inter-event gaps — an
        UNBOUNDED int64 domain (µs latencies), so the cent-grid
        histogram trick does not apply: distributed selection by
        iterative range narrowing (stages/selection.py — ≤4 counting
        passes of 2¹⁶ bounded bins + one bounded collect; the gap
        stream is materialized once so passes re-scan blocks, not
        lineage).  Continuous interpolation matches quantile_cont."""
        import polars as pl
        from ie_ray.stages.relational import bucketed_map_groups
        from ie_ray.stages.selection import exact_quantile_int64

        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id"])

        def gaps(g: pa.Table) -> pa.Table:
            df = pl.from_arrow(pa.table({
                "u": g.column("user_id").cast(pa.int64()),
                "ts": g.column("ts").cast(pa.timestamp("us"))
                .cast(pa.int64()),
                "id": g.column("event_id").cast(pa.int64())}))
            out = (df.sort(["u", "ts", "id"])
                   .with_columns((pl.col("ts") - pl.col("ts").shift(1))
                                 .over("u").alias("gap"))
                   .drop_nulls("gap").select("gap"))
            return out.to_arrow()

        gap_ds = bucketed_map_groups(ds, "user_id", gaps).materialize()
        med = exact_quantile_int64(gap_ds, "gap", 0.5)
        return pa.table({"med_us": pa.array([med], type=pa.float64())})

    def docs_ks_by_source(sf_dir):
        """Two-sample Kolmogorov–Smirnov drift statistic per source vs
        the whole corpus over document length — the nonparametric
        sibling of the KL monitor (KL needs shared-token smoothing; KS
        is binless and assumption-free).  Length sits on a bounded
        grid, so each block reduces to (source, len, n) counts, ONE
        lowcard tree-combine carries both empirical CDFs, and the
        final task evaluates D = max|F_src − F_all| on the pooled
        support.  Division and rounding replicated op-for-op (half-
        away) so the float output matches DuckDB exactly."""
        import numpy as np
        import pyarrow.compute as pc

        def partial(t: pa.Table) -> pa.Table:
            g = pa.table({
                "source": t.column("source"),
                "len": pc.utf8_length(t.column("text"))
                .cast(pa.int64())}) \
                .group_by(["source", "len"]).aggregate(
                [([], "count_all")])
            return g.rename_columns(["source", "len", "n"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["source", "len"]).aggregate(
                [("n", "sum")]).rename_columns(["source", "len", "n"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            src = np.asarray(t.column("source").to_pylist(),
                             dtype=object)
            ln = np.asarray(t.column("len"), dtype=np.int64)
            n = np.asarray(t.column("n"), dtype=np.int64)
            grid = np.unique(ln)
            sources = sorted(set(src.tolist()))
            tot_all = int(n.sum())
            # vectorized CDFs: scatter-add counts onto the grid, then
            # cumsum — O(rows + grid) instead of the masked-sum
            # O(sources × grid × rows) (review finding r5s4)
            gi = np.searchsorted(grid, ln)
            hall = np.zeros(len(grid), dtype=np.int64)
            np.add.at(hall, gi, n)
            cum_all = np.cumsum(hall)
            rows = []
            for s in sources:
                m = src == s
                ns = int(n[m].sum())
                hs = np.zeros(len(grid), dtype=np.int64)
                np.add.at(hs, gi[m], n[m])
                cum_s = np.cumsum(hs)
                d = np.abs(cum_s / ns - cum_all / tot_all)
                rows.append((s, np.floor(d.max() * 1e4 + 0.5) / 1e4))
            return pa.table({
                "source": pa.array([r[0] for r in rows],
                                   type=pa.string()),
                "ks": pa.array([r[1] for r in rows],
                               type=pa.float64())})

        return lowcard_combine(
            _docs(sf_dir).map_batches(
                lambda t: t.select(["source", "text"]),
                batch_format="pyarrow"),
            partial, final_fn=final, combine_fn=combine)

    def events_value_band_pairs(sf_dir):
        """Band self-join count: pairs of same-type events whose
        values differ by ≤ 5 cents — the ε-band join shape (neither an
        equi- nor a time-range join): rows block into ε-width value
        buckets, each row GHOSTS into its left neighbor so every
        qualifying pair co-locates exactly once (within-bucket pairs
        in their home bucket, cross-boundary pairs in the lower
        bucket); the per-bucket count is two vectorized searchsorted
        sweeps, never an all-pairs loop.  Exact integer output."""
        import numpy as np
        from ie_ray.stages.relational import (bucketed_map_groups,
                                              lowcard_combine)

        EPS = 5
        ds = _tbl(sf_dir, "events", columns=["event_type", "value"])

        def prep(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            b = cents // EPS
            ty = t.column("event_type")
            home = pa.table({
                "event_type": ty, "bucket": pa.array(b),
                "cents": pa.array(cents),
                "ghost": pa.array(np.zeros(len(cents), dtype=np.int8))})
            ghost = pa.table({
                "event_type": ty, "bucket": pa.array(b - 1),
                "cents": pa.array(cents),
                "ghost": pa.array(np.ones(len(cents), dtype=np.int8))})
            return pa.concat_tables([home, ghost])

        def kernel(g: pa.Table) -> pa.Table:
            # Fully vectorized across ALL (type, bucket) groups in the
            # partition: a composite (type-code, bucket, cents)
            # structured sort makes one global searchsorted respect
            # group boundaries — probes carry the same (code, bucket),
            # so they can never cross into a neighboring group (no
            # per-group Python loop; the group domain is rows-sized).
            ty = np.asarray(g.column("event_type").to_pylist(),
                            dtype=object)
            codes = np.unique(ty, return_inverse=True)[1] \
                .astype(np.int64)
            bk = np.asarray(g.column("bucket"), dtype=np.int64)
            c = np.asarray(g.column("cents"), dtype=np.int64)
            gh = np.asarray(g.column("ghost"), dtype=np.int8)

            dt = np.dtype([("k", "<i8"), ("b", "<i8"), ("c", "<i8")])

            def rec(mask):
                r = np.empty(int(mask.sum()), dtype=dt)
                r["k"], r["b"], r["c"] = codes[mask], bk[mask], c[mask]
                r.sort()
                return r

            home, ghosts = rec(gh == 0), rec(gh == 1)
            n_per_home = np.zeros(len(home), dtype=np.int64)
            if len(home):
                probe = home.copy()
                probe["c"] = home["c"] + EPS
                # within-home unordered pairs with Δ <= EPS
                hi = np.searchsorted(home, probe, side="right")
                n_per_home += hi - np.arange(len(home)) - 1
                if len(ghosts):
                    # home × ghost: every pair crosses the bucket
                    # boundary, counted only here
                    hi2 = np.searchsorted(ghosts, probe, side="right")
                    probe["c"] = home["c"] - EPS
                    lo = np.searchsorted(ghosts, probe, side="left")
                    n_per_home += hi2 - lo
            if not len(home):
                return pa.table({
                    "event_type": pa.array([], type=pa.string()),
                    "n_pairs": pa.array([], type=pa.int64())})
            uniq = np.unique(ty)
            per_code = np.bincount(home["k"], weights=n_per_home,
                                   minlength=len(uniq)) \
                .astype(np.int64)
            keep = per_code > 0
            return pa.table({
                "event_type": pa.array(uniq[keep], type=pa.string()),
                "n_pairs": pa.array(per_code[keep])})

        per_bucket = bucketed_map_groups(
            ds.map_batches(prep, batch_format="pyarrow"),
            ["event_type", "bucket"], kernel)

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("event_type").aggregate(
                [("n_pairs", "sum")]).rename_columns(
                ["event_type", "n_pairs"])

        return lowcard_combine(per_bucket, combine)

    def events_max_concurrency(sf_dir):
        """Peak concurrency by distributed SWEEP-LINE: each event
        holds a [ts, ts+30 min) activity interval; +1/−1 edges bucket
        by hour (complete-hour buckets via the bucketed exchange),
        each bucket reduces to (hour, Σdelta, max-running-prefix) with
        one vectorized sort+cumsum, and the bounded hour domain
        resolves the global running maximum as carry-in + local peak —
        the rows-sized edge stream is swept exactly once, no global
        sort.  Same-timestamp ties process −1 before +1 (half-open
        interval semantics), matching the window oracle's ORDER BY
        t, d."""
        import numpy as np
        from ie_ray.stages.relational import bucketed_map_groups

        W = 1_800_000_000
        HOUR = 3_600_000_000
        ds = _tbl(sf_dir, "events", columns=["ts"])

        def edges(t: pa.Table) -> pa.Table:
            ts = t.column("ts").cast(pa.timestamp("us")) \
                .cast(pa.int64()).combine_chunks() \
                .to_numpy(zero_copy_only=False)
            tt = np.concatenate([ts, ts + W])
            dd = np.concatenate([
                np.ones(len(ts), dtype=np.int64),
                np.full(len(ts), -1, dtype=np.int64)])
            return pa.table({"hour": pa.array(tt // HOUR),
                             "t": pa.array(tt), "d": pa.array(dd)})

        def kernel(g: pa.Table) -> pa.Table:
            import polars as pl
            df = pl.from_arrow(g)
            out = (df.sort(["hour", "t", "d"])
                   .with_columns(pl.col("d").cum_sum().over("hour")
                                 .alias("run"))
                   .group_by("hour")
                   .agg(pl.col("d").sum().alias("sum_d"),
                        pl.col("run").max().alias("peak")))
            return out.to_arrow()

        hours = bucketed_map_groups(
            ds.map_batches(edges, batch_format="pyarrow"),
            "hour", kernel)

        def final(t: pa.Table) -> pa.Table:
            h = np.asarray(t.column("hour"), dtype=np.int64)
            if len(h) == 0:
                # empty stream: zero rows — the oracle's HAVING
                # max(c) IS NOT NULL drops its aggregate row too
                return pa.table({"max_concurrent": pa.array(
                    [], type=pa.int64())})
            s = np.asarray(t.column("sum_d"), dtype=np.int64)
            p = np.asarray(t.column("peak"), dtype=np.int64)
            o = np.argsort(h)
            s, p = s[o], p[o]
            carry = np.concatenate([[0], np.cumsum(s)[:-1]])
            return pa.table({"max_concurrent": pa.array(
                [int((carry + p).max())], type=pa.int64())})

        return lowcard_combine(hours, lambda t: t, final_fn=final)

    def embedding_quantize_int8(sf_dir):
        """Per-dimension min/max int8 quantization of the embedding
        matrix — the model/index-compression shape (FAISS SQ8): pass 1
        reduces every block to 64 (dim, min, max) rows through one
        lowcard combine (the scale table is O(dim), pulled once and
        closed over); pass 2 is a pure vectorized map emitting
        exploded (vec_id, dim, q) rows so the oracle hash covers every
        quantized cell.  Arithmetic is op-identical to the SQL twin
        (float32 → float64 promotion, ×254 / range, half-away round)."""
        import numpy as np

        DIM = 64
        # materialized once: both the stats pass and the quantize pass
        # scan it (re-executing the parquet read doubles table I/O)
        ds = _tbl(sf_dir, "embeddings",
                  columns=["vec_id", "embedding"], blocks=8) \
            .materialize()

        def mat(t: pa.Table) -> "np.ndarray":
            col = t.column("embedding").combine_chunks()
            return np.asarray(col.values, dtype=np.float32) \
                .reshape(-1, DIM)

        def mm_partial(t: pa.Table) -> pa.Table:
            m = mat(t)
            return pa.table({
                "dim": pa.array(np.arange(1, DIM + 1,
                                          dtype=np.int64)),
                "mn": pa.array(m.min(axis=0).astype(np.float64)),
                "mx": pa.array(m.max(axis=0).astype(np.float64))})

        def mm_combine(t: pa.Table) -> pa.Table:
            g = t.group_by("dim").aggregate(
                [("mn", "min"), ("mx", "max")])
            return g.rename_columns(["dim", "mn", "mx"])

        stats = lowcard_combine(ds, mm_partial, mm_combine).take_all()
        mn = np.zeros(DIM)
        mx = np.zeros(DIM)
        for r in stats:
            mn[r["dim"] - 1] = r["mn"]
            mx[r["dim"] - 1] = r["mx"]
        rng_ = mx - mn
        const = rng_ == 0.0

        def quantize(t: pa.Table) -> pa.Table:
            m = mat(t).astype(np.float64)
            x = (m - mn) * 254.0 / np.where(const, 1.0, rng_)
            q = (np.floor(x + 0.5) - 127.0).astype(np.int64)
            q[:, const] = -127
            n = m.shape[0]
            return pa.table({
                "vec_id": pa.array(np.repeat(
                    np.asarray(t.column("vec_id"), dtype=np.int64),
                    DIM)),
                "dim": pa.array(np.tile(
                    np.arange(1, DIM + 1, dtype=np.int64), n)),
                "q": pa.array(q.ravel())})

        return ds.map_batches(quantize, batch_format="pyarrow")

    def users_churned_monthly(sf_dir):
        """Monthly churn — the temporal ANTI-join: users active in
        month m with no activity in m+1.  Distinct (user, month-index)
        pairs bucket by user; inside a complete bucket the next-month
        lookup is one vectorized sorted-membership probe (no
        self-join); the bounded month domain carries the counts."""
        import numpy as np
        import polars as pl
        import pyarrow.compute as pc
        from ie_ray.stages.relational import bucketed_map_groups

        ds = _tbl(sf_dir, "events", columns=["user_id", "ts"])

        def to_month(t: pa.Table) -> pa.Table:
            ts = t.column("ts").cast(pa.timestamp("us"))
            midx = pc.add(pc.multiply(pc.year(ts).cast(pa.int64()),
                                      12),
                          pc.month(ts).cast(pa.int64()))
            return pa.table({
                "user_id": t.column("user_id").cast(pa.int64()),
                "midx": midx})

        def kernel(g: pa.Table) -> pa.Table:
            df = pl.from_arrow(pa.table({
                "u": g.column("user_id"), "m": g.column("midx")})) \
                .unique(["u", "m"]).sort(["u", "m"])
            u = df.get_column("u").to_numpy()
            m = df.get_column("m").to_numpy()
            # (u, m+1) present?  one searchsorted over the sorted
            # composite — same idiom as the as-of join
            dt = np.dtype([("u", "<i8"), ("m", "<i8")])
            rec = np.empty(len(u), dtype=dt)
            rec["u"], rec["m"] = u, m
            probe = np.empty(len(u), dtype=dt)
            probe["u"], probe["m"] = u, m + 1
            idx = np.searchsorted(rec, probe)
            idx = np.clip(idx, 0, max(len(rec) - 1, 0))
            retained = (rec[idx] == probe) if len(rec) else \
                np.zeros(0, dtype=bool)
            churn_m = m[~retained]
            out = pa.table({"midx": pa.array(churn_m),
                            "n": pa.array(np.ones(len(churn_m),
                                                  dtype=np.int64))})
            return out.group_by("midx").aggregate([("n", "sum")]) \
                .rename_columns(["midx", "n_churned"])

        per_bucket = bucketed_map_groups(
            ds.map_batches(to_month, batch_format="pyarrow"),
            "user_id", kernel)

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("midx").aggregate(
                [("n_churned", "sum")]).rename_columns(
                ["midx", "n_churned"])

        return lowcard_combine(per_bucket, combine)

    def docs_length_gini(sf_dir):
        """Gini coefficient of the document-length distribution — the
        inequality statistic of corpus balance: computed EXACTLY from
        the bounded length-grid histogram with the rank formula
        Σ(2·rank − n − 1)·x / (n·Σx), whose numerator collapses to
        integer cumulative sums over (len, count) — one lowcard
        tree-combine, all-int64 numerator/denominator, a single float
        division shared op-for-op with the window oracle (tie-order
        invariant, so the rank formula needs no tie policy)."""
        import numpy as np
        import pyarrow.compute as pc

        def partial(t: pa.Table) -> pa.Table:
            g = pa.table({
                "len": pc.utf8_length(t.column("text"))
                .cast(pa.int64())}) \
                .group_by("len").aggregate([([], "count_all")])
            return g.rename_columns(["len", "n"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("len").aggregate([("n", "sum")]) \
                .rename_columns(["len", "n"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            ln = np.asarray(t.column("len"), dtype=np.int64)
            c = np.asarray(t.column("n"), dtype=np.int64)
            o = np.argsort(ln)
            ln, c = ln[o], c[o]
            n = int(c.sum())
            cum_prev = np.concatenate([[0], np.cumsum(c)[:-1]])
            # Σ over the c_k items at ranks (cum_prev, cum_prev+c_k]
            # of (2·rank − n − 1), times len_k — exact int64
            # Python ints over the BOUNDED grid: int64 would wrap
            # once n·Σlen ≳ 9.2e18 (review finding r5s4) — the grid is
            # ≤ distinct lengths, so the exact big-int loop is cheap
            num = 0
            den_s = 0
            for li, ci, cp in zip(ln.tolist(), c.tolist(),
                                  cum_prev.tolist()):
                rank_sum = ci * cp + ci * (ci + 1) // 2
                num += (2 * rank_sum - ci * (n + 1)) * li
                den_s += li * ci
            den = n * den_s
            gini = np.floor(num / den * 1e4 + 0.5) / 1e4 \
                if den else None
            return pa.table({
                "n_docs": pa.array([n], type=pa.int64()),
                "gini": pa.array([gini], type=pa.float64())})

        return lowcard_combine(
            _docs(sf_dir).map_batches(
                lambda t: t.select(["text"]), batch_format="pyarrow"),
            partial, final_fn=final, combine_fn=combine)

    def docs_length_theil(sf_dir):
        """Theil-T inequality of document length, DECOMPOSED by source
        — the additively decomposable inequality index (Theil 1967):
        T = T_between + Σ share_g·T_g, so the report shows how much
        corpus imbalance lives across sources vs inside them.  All
        sums reduce over the bounded (source, len) histogram in one
        lowcard tree-combine; the ln/division float tail is evaluated
        with the same expression shape as the SQL twin and rounded
        4 dp.  Output: one row per source (share, T_within) plus the
        __between__ and __total__ rows — the decomposition identity
        is part of the oracle check."""
        import numpy as np
        import pyarrow.compute as pc

        def partial(t: pa.Table) -> pa.Table:
            g = pa.table({
                "source": t.column("source"),
                "len": pc.utf8_length(t.column("text"))
                .cast(pa.int64())}) \
                .group_by(["source", "len"]).aggregate(
                [([], "count_all")])
            return g.rename_columns(["source", "len", "n"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["source", "len"]).aggregate(
                [("n", "sum")]).rename_columns(["source", "len", "n"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            src = np.asarray(t.column("source").to_pylist(),
                             dtype=object)
            ln = np.asarray(t.column("len"), dtype=np.float64)
            c = np.asarray(t.column("n"), dtype=np.float64)
            n = c.sum()
            mu = (ln * c).sum() / n
            sources = sorted(set(src.tolist()))
            rows = []
            t_within_sum = 0.0
            t_between = 0.0
            for s in sources:
                m = src == s
                ns = c[m].sum()
                mus = (ln[m] * c[m]).sum() / ns
                r = ln[m] / mus
                t_g = float((c[m] * r * np.log(r)).sum() / ns)
                share = float((ns * mus) / (n * mu))   # length share
                t_within_sum += share * t_g
                t_between += share * np.log(mus / mu)
                rows.append((s, share, t_g))
            total = float((c * (ln / mu) * np.log(ln / mu)).sum() / n)
            rows.append(("__between__", 1.0, t_between))
            rows.append(("__total__", 1.0, total))
            return pa.table({
                "source": pa.array([r[0] for r in rows],
                                   type=pa.string()),
                "share": pa.array(
                    [np.floor(r[1] * 1e4 + 0.5) / 1e4 for r in rows],
                    type=pa.float64()),
                "theil": pa.array(
                    [np.floor(abs(r[2]) * 1e4 + 0.5) / 1e4
                     * (1 if r[2] >= 0 else -1) for r in rows],
                    type=pa.float64())})

        return lowcard_combine(
            _docs(sf_dir).map_batches(
                lambda t: t.select(["source", "text"]),
                batch_format="pyarrow"),
            partial, final_fn=final, combine_fn=combine)

    def docs_chi2_lang_source(sf_dir):
        """Chi-squared independence test of the (source × lang)
        contingency table — the data-quality hypothesis test "is
        language mix independent of source?": cell counts reduce over
        the bounded grid in one lowcard tree-combine; expected counts,
        the χ² statistic and the degrees of freedom are one vectorized
        final-task pass (cells with zero expected count are
        structurally impossible — expected = row·col/n > 0 whenever
        the cell's row and column both exist)."""
        import numpy as np

        ds = _docs(sf_dir).map_batches(
            lambda t: t.select(["source", "lang"]).drop_null(),
            batch_format="pyarrow")

        def partial(t: pa.Table) -> pa.Table:
            g = t.group_by(["source", "lang"]).aggregate(
                [([], "count_all")])
            return g.rename_columns(["source", "lang", "n"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["source", "lang"]).aggregate(
                [("n", "sum")]).rename_columns(
                ["source", "lang", "n"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            src = np.asarray(t.column("source").to_pylist(),
                             dtype=object)
            lang = np.asarray(t.column("lang").to_pylist(),
                              dtype=object)
            n = np.asarray(t.column("n"), dtype=np.float64)
            rows = sorted(set(src.tolist()))
            cols = sorted(set(lang.tolist()))
            ri = {r: i for i, r in enumerate(rows)}
            ci = {c: i for i, c in enumerate(cols)}
            obs = np.zeros((len(rows), len(cols)))
            for s, l, k in zip(src, lang, n):
                obs[ri[s], ci[l]] = k
            tot = obs.sum()
            exp = obs.sum(axis=1, keepdims=True) \
                * obs.sum(axis=0, keepdims=True) / tot
            with np.errstate(divide="ignore", invalid="ignore"):
                cells = np.where(exp > 0,
                                 (obs - exp) ** 2 / exp, 0.0)
            chi2 = float(cells.sum())
            dof = (len(rows) - 1) * (len(cols) - 1)
            return pa.table({
                "chi2": pa.array(
                    [np.floor(chi2 * 1e4 + 0.5) / 1e4],
                    type=pa.float64()),
                "dof": pa.array([dof], type=pa.int64()),
                "n": pa.array([int(tot)], type=pa.int64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def events_weekend_ttest(sf_dir):
        """Welch's unequal-variance t-test: does event value differ
        between weekdays and weekends?  Per-group n, Σx, Σx² ride as
        EXACT int64 cents(²) through one lowcard combine (2 groups),
        so mean and sample variance are the same rationals on both
        engines; the t statistic and Welch–Satterthwaite df are one
        shared float expression, rounded 4 dp."""
        import numpy as np
        import pyarrow.compute as pc

        ds = _tbl(sf_dir, "events", columns=["ts", "value"])

        def partial(t: pa.Table) -> pa.Table:
            dow = np.asarray(pc.day_of_week(
                t.column("ts"), count_from_zero=True,
                week_start=7).cast(pa.int64()))
            wknd = ((dow == 0) | (dow == 6)).astype(np.int64)
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({
                "wknd": pa.array(wknd),
                "n": pa.array(np.ones(len(cents), dtype=np.int64)),
                "s": pa.array(cents),
                "s2": pa.array(cents * cents)}) \
                .group_by("wknd").aggregate(
                [("n", "sum"), ("s", "sum"), ("s2", "sum")])
            return g.rename_columns(["wknd", "n", "s", "s2"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("wknd").aggregate(
                [("n", "sum"), ("s", "sum"), ("s2", "sum")]) \
                .rename_columns(["wknd", "n", "s", "s2"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            stats = {}
            for w, n, s, s2 in zip(t.column("wknd").to_pylist(),
                                   t.column("n").to_pylist(),
                                   t.column("s").to_pylist(),
                                   t.column("s2").to_pylist()):
                if n < 2:
                    continue
                m = s / n
                # float(s)*s, NOT the exact bigint s*s: the oracle's
                # s::DOUBLE * s rounds s once — match it so the last
                # ulps of v agree at any scale (review finding)
                v = (s2 - float(s) * s / n) / (n - 1)
                stats[w] = (n, m, v)
            if 1 not in stats or 0 not in stats:
                # degenerate split: zero rows, like the oracle's
                # n>1-filtered cross join
                return pa.table({
                    "n_weekend": pa.array([], type=pa.int64()),
                    "n_weekday": pa.array([], type=pa.int64()),
                    "mean_diff": pa.array([], type=pa.float64()),
                    "t_stat": pa.array([], type=pa.float64()),
                    "welch_df": pa.array([], type=pa.float64())})
            n1, m1, v1 = stats[1]
            n0, m0, v0 = stats[0]
            se2 = v1 / n1 + v0 / n0
            tstat = (m1 - m0) / np.sqrt(se2)
            df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1)
                             + (v0 / n0) ** 2 / (n0 - 1))

            r4 = _r4

            return pa.table({
                "n_weekend": pa.array([n1], type=pa.int64()),
                "n_weekday": pa.array([n0], type=pa.int64()),
                "mean_diff": pa.array([r4((m1 - m0) / 100.0)],
                                      type=pa.float64()),
                "t_stat": pa.array([r4(tstat)], type=pa.float64()),
                "welch_df": pa.array([r4(df)], type=pa.float64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def events_mannwhitney_purchase_view(sf_dir):
        """Mann–Whitney U (rank-sum) test: do purchase and view
        values come from the same distribution?  The nonparametric
        sibling of the Welch t-test — EXACT U from the bounded
        cent-grid histograms (ties counted half, so 2·U is an
        integer), tie-corrected normal approximation; mean/variance/z
        share one float expression with the avg-rank window oracle."""
        import numpy as np
        import pyarrow.compute as pc

        ds = _tbl(sf_dir, "events", columns=["event_type", "value"])

        def partial(t: pa.Table) -> pa.Table:
            m = pc.is_in(t.column("event_type"),
                         value_set=pa.array(["purchase", "view"]))
            t = t.filter(m)
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({
                "grp": t.column("event_type"),
                "c": pa.array(cents),
                "n": pa.array(np.ones(len(cents), dtype=np.int64))}) \
                .group_by(["grp", "c"]).aggregate([("n", "sum")])
            return g.rename_columns(["grp", "c", "n"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["grp", "c"]).aggregate([("n", "sum")]) \
                .rename_columns(["grp", "c", "n"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            grp = np.asarray(t.column("grp").to_pylist(), dtype=object)
            c = np.asarray(t.column("c"), dtype=np.int64)
            n = np.asarray(t.column("n"), dtype=np.int64)
            vals = np.unique(c)
            h1 = np.zeros(len(vals), dtype=np.int64)   # purchase
            h2 = np.zeros(len(vals), dtype=np.int64)   # view
            iv = np.searchsorted(vals, c)
            np.add.at(h1, iv[grp == "purchase"], n[grp == "purchase"])
            np.add.at(h2, iv[grp == "view"], n[grp == "view"])
            n1, n2 = int(h1.sum()), int(h2.sum())
            ntot = n1 + n2
            below2 = np.concatenate([[0], np.cumsum(h2)[:-1]])
            # ties count half: carry 2U as an exact integer
            u2x = int((h1 * (2 * below2 + h2)).sum())
            u = u2x / 2.0
            ttf = (h1 + h2).astype(np.float64)
            # cube in FLOAT like the oracle's t::DOUBLE — int64 tt**3
            # wraps once a cent value has ≳2.1M tied rows (review)
            tie_term = float((ttf ** 3 - ttf).sum())
            mean = n1 * n2 / 2.0
            var = n1 * n2 / 12.0 * (
                (ntot + 1) - tie_term / (ntot * (ntot - 1.0)))
            z = (u - mean) / np.sqrt(var)

            r4 = _r4

            return pa.table({
                "n_purchase": pa.array([n1], type=pa.int64()),
                "n_view": pa.array([n2], type=pa.int64()),
                "u": pa.array([u], type=pa.float64()),
                "z": pa.array([r4(z)], type=pa.float64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def source_shingle_overlap(sf_dir):
        """Source-pair CONTENT similarity matrix: KMV sketches over
        the corpus's 5-word shingle hashes per source (the same
        shingle function the MinHash dedup family uses) estimate
        shingle-set Jaccard / overlap between every pair of sources —
        the corpus-mixing diagnostic ("how much do my crawl sources
        overlap?") at a constant k·|sources| sketch cost regardless of
        corpus size.  Sketch-defined (rows-only); kmv accuracy and
        merge invariance are gated in tests/test_kmv.py."""
        from ie_ray.stages.dedup import _shingles
        from ie_ray.stages.sketches import kmv_overlap

        def shingle_rows(t: pa.Table) -> pa.Table:
            srcs, hs = [], []
            for s, txt in zip(t.column("source").to_pylist(),
                              t.column("text").to_pylist()):
                for h in _shingles(txt or ""):
                    srcs.append(s)
                    hs.append(h)
            return pa.table({
                "source": pa.array(srcs, type=pa.string()),
                "h": pa.array(hs, type=pa.int64())})

        rows = _docs(sf_dir).map_batches(
            lambda t: t.select(["source", "text"]),
            batch_format="pyarrow").map_batches(
            shingle_rows, batch_format="pyarrow")
        return kmv_overlap(rows, "h", "source", k=512)

    def events_type_user_overlap(sf_dir):
        """Audience-overlap matrix between event types via KMV
        k-minimum-values sketches (stages/sketches.py::kmv_overlap) —
        the set-INTERSECTION estimate HLL cannot give: per type the k
        smallest value hashes merge by union+truncate, and the union's
        k-sample yields Jaccard + intersection size per type pair.
        Sketch-defined (no SQL oracle); accuracy and block-layout
        invariance pytest-gated (tests/test_kmv.py)."""
        from ie_ray.stages.sketches import kmv_overlap

        ev = _tbl(sf_dir, "events", columns=["event_type", "user_id"])
        return kmv_overlap(ev, "user_id", "event_type", k=256)

    def word_max_spanning_backbone(sf_dir):
        """Maximum-spanning backbone of the df≥60 co-occurrence graph
        — the strongest-links skeleton (max ≡ min on negated weights):
        distributed Borůvka (stages/msf.py) where every round is
        Dataset joins + bucketed argmins and merges run through the
        existing two-pass connected components; no driver-side graph.
        Iterative — no SQL oracle; exact Kruskal twin in
        tests/test_msf.py."""
        import pyarrow.compute as pc
        from ie_ray.stages.cooccur import cooccur_edges
        from ie_ray.stages.msf import minimum_spanning_forest

        edges = cooccur_edges(_docs(sf_dir), df_min=60)

        def negate(t: pa.Table) -> pa.Table:
            return pa.table({
                "w1": t.column("w1").cast(pa.string()),
                "w2": t.column("w2").cast(pa.string()),
                "weight": pc.negate(
                    t.column("df").cast(pa.int64()))})

        forest, converged = minimum_spanning_forest(
            edges.map_batches(negate, batch_format="pyarrow"))

        def present(t: pa.Table) -> pa.Table:
            return pa.table({
                "w1": t.column("w1"), "w2": t.column("w2"),
                "n": pc.negate(t.column("weight")),
                "converged": pa.array(
                    [converged] * t.num_rows, type=pa.bool_())})

        return forest.map_batches(present, batch_format="pyarrow")

    def _top_degree_seeds(edges, n_seeds=2):
        """Deterministic seed pick shared by kg_khop2 / kg_ppr_top20:
        highest row-count degree, lexicographic tie-break."""
        def deg(t: pa.Table) -> pa.Table:
            both = pa.concat_arrays([
                t.column("subj_id").combine_chunks().cast(pa.string()),
                t.column("obj_id").combine_chunks().cast(pa.string())])
            g = pa.table({"node": both}).group_by("node").aggregate(
                [([], "count_all")])
            return g.rename_columns(["node", "d"])

        def deg_combine(t: pa.Table) -> pa.Table:
            return t.group_by("node").aggregate([("d", "sum")]) \
                .rename_columns(["node", "d"])

        top = lowcard_combine(edges, deg, final_fn=deg_combine,
                              combine_fn=deg_combine) \
            .sort(["d", "node"], descending=[True, False]) \
            .limit(n_seeds)
        return [r["node"] for r in top.take_all()]

    def kg_khop2(sf_dir):
        """2-hop neighborhood subgraph around the two highest-degree
        canonical entities (deterministic seeds: row-count degree,
        lexicographic tie-break) — the KG-serving expand primitive;
        each hop is one broadcast-frontier streaming probe of the edge
        set, no edge exchange (stages/graph.py::khop_subgraph).
        Rows-only (iterative frontier — no SQL oracle); exact
        brute-force twin in tests/test_khop.py."""
        from ie_ray.stages.graph import khop_subgraph

        edges = kg_edges(sf_dir).materialize()
        return khop_subgraph(edges, _top_degree_seeds(edges), hops=2)

    def kg_ppr_top20(sf_dir):
        """Personalized PageRank around the two highest-degree
        canonical entities (Haveliwala 2002 — the KG relevance
        ranking): teleport restarts at the seeds, so mass concentrates
        in their neighborhood; same one-join+one-groupby loop as
        kg_pagerank with a broadcast seed-indicator teleport term.
        Iterative — no SQL oracle; dense NumPy twin + locality gate in
        tests/test_pagerank.py."""
        import pyarrow.compute as pc
        from ie_ray.stages.pagerank import pagerank_personalized

        edges = kg_edges(sf_dir).materialize()
        pr = pagerank_personalized(edges, _top_degree_seeds(edges),
                                   iters=5)

        def rnd(t: pa.Table) -> pa.Table:
            return pa.table({
                "node": t.column("node"),
                "rank": pc.round(t.column("rank"), ndigits=8)})

        return (pr.map_batches(rnd, batch_format="pyarrow")
                .sort(["rank", "node"], descending=[True, False])
                .limit(20))

    def kg_pagerank(sf_dir):
        """PageRank over the canonical KG edge set: 5 rounds of
        hash-join + groupby with the rank table materialized in the
        object store between rounds (never on the driver).  Iterative —
        no SQL oracle; verified against a NumPy twin in
        tests/test_pagerank.py."""
        from ie_ray.stages.pagerank import pagerank

        def rnd(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return pa.table({"node": t.column("node"),
                             "rank": pc.round(t.column("rank"), ndigits=8)})

        return (pagerank(kg_edges(sf_dir), iters=5)
                .map_batches(rnd, batch_format="pyarrow"))

    def extraction_identity(sf_dir):
        from ie_ray.stages.extract import verify_extraction_batch
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        ds = ray.data.read_parquet(os.path.join(fd, "pages"))
        return ds.map_batches(verify_extraction_batch, batch_format="pyarrow")

    def clause_extract(sf_dir):
        """C15: the dependency-parse SVO path over the golden sentence pool
        (synthesized Google-NLP-schema parses)."""
        import json as _json
        from ie_ray.sources.depparse import parse_simple_sentence
        from ie_ray.sources.pages import golden_sentences
        from ie_ray.stages.clauses import extract_clauses_batch
        pool = golden_sentences(600)
        sid, pj = [], []
        for i, s in enumerate(pool):
            parsed = parse_simple_sentence(s["sentence"])
            if parsed is not None:
                sid.append(i)
                pj.append(_json.dumps(parsed[0]))
        ds = ray.data.from_arrow(pa.table({
            "sent_id": pa.array(sid, type=pa.int64()),
            "parse_json": pa.array(pj, type=pa.string()),
        }))
        return ds.map_batches(extract_clauses_batch, batch_format="pyarrow")

    def verbnet_lookup(sf_dir):
        """T4/J3: verb stem → VerbNet class ids over the derivation pool
        (SemLink vn-pb mapping; empty classes when the verb is unmapped)."""
        from ie_ray.kb.verbnet import load_default
        db = load_default()
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        ds = ray.data.read_parquet(os.path.join(fd, "derivations.parquet"))

        def stems(b: pa.Table) -> pa.Table:
            from ie_ray.ccg import parse_ccgbank
            from ie_ray.semantics.lexicon import Token
            out = set()
            for drv in b.column("ccgbank").to_pylist():
                _, leaves = parse_ccgbank(drv)
                for l in leaves:
                    t = Token(l.idx, l.word, l.pos, l.cat)
                    if t.isverb:
                        out.add(t.stem)
            ss = sorted(out)
            return pa.table({
                "stem": pa.array(ss, type=pa.string()),
                "vn_classes": pa.array(
                    [",".join(db.classes(s)) if db else "" for s in ss],
                    type=pa.string())})

        return (ds.map_batches(stems, batch_format="pyarrow")
                .groupby("stem")
                .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow"))

    def cky_clause_extract(sf_dir):
        """T8 upgraded: clause extraction over REAL parses — sentences →
        CKY → CCG-derived dependency trees (ie_ray/nlp/ccgdep.py) →
        ClauseFinder.  No synthesized or canned parses anywhere."""
        from ie_ray.sources.clausefinder_fixtures import CLAUSEFINDER_SENTENCES
        from ie_ray.stages.clauses import CkyClauseActor
        n = len(CLAUSEFINDER_SENTENCES)
        ds = ray.data.from_arrow(pa.table({
            "sent_id": pa.array(range(n), type=pa.int64()),
            "sentence": pa.array(CLAUSEFINDER_SENTENCES, type=pa.string()),
        }))
        return ds.map_batches(CkyClauseActor, batch_format="pyarrow",
                              concurrency=(1, 2), num_cpus=1)

    def cky_parse_triples(sf_dir):
        """T1: the real supertagger+CKY parser over NON-fixture sentences
        (the reference's clausefinder corpus) — none of these exist in the
        replay corpus, so every derivation comes from ie_ray/ccg/parser.py.
        Rows-only driver check; the P/R ≥ 0.8 gate lives in
        tests/test_cky_parser.py."""
        from ie_ray.sources.clausefinder_fixtures import CLAUSEFINDER_SENTENCES
        from ie_ray.stages.compose_stage import ComposeActor
        from ie_ray.stages.parse import ReplayParserActor
        n = len(CLAUSEFINDER_SENTENCES)
        ds = ray.data.from_arrow(pa.table({
            "url": pa.array(["clausefinder"] * n, type=pa.string()),
            "para_idx": pa.array([0] * n, type=pa.int32()),
            "sent_idx": pa.array(range(n), type=pa.int32()),
            "sentence": pa.array(CLAUSEFINDER_SENTENCES, type=pa.string()),
        }))
        parsed = ds.map_batches(ReplayParserActor,
                                fn_constructor_kwargs={"derivations": {}},
                                batch_format="pyarrow", concurrency=(1, 2),
                                num_cpus=1)
        return parsed.map_batches(ComposeActor, batch_format="pyarrow",
                                  concurrency=(1, 2), num_cpus=1)

    def kg_drs(sf_dir):
        """Per-sentence linear DRS + FOL strings (C14 renderings) for the
        derivation pool — the engine's full semantic output."""
        from ie_ray.semantics.engine import Composer
        from ie_ray.drt.drs import show_fol
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        ds = ray.data.read_parquet(os.path.join(fd, "derivations.parquet"))

        class DrsActor:
            def __init__(self):
                self.composer = Composer()

            def __call__(self, b: pa.Table) -> pa.Table:
                hashes = b.column("sent_hash").to_pylist()
                drvs = b.column("ccgbank").to_pylist()
                drs_out, fol_out = [], []
                for d in drvs:
                    try:
                        sem = self.composer.compose_ccgbank(d)
                        drs = sem.get_drs()
                        drs_out.append(drs.show())
                        fol_out.append(show_fol(drs))
                    except Exception:
                        drs_out.append(None)
                        fol_out.append(None)
                return pa.table({
                    "sent_hash": pa.array(hashes, type=pa.string()),
                    "drs": pa.array(drs_out, type=pa.string()),
                    "fol": pa.array(fol_out, type=pa.string()),
                })

        return ds.map_batches(DrsActor, batch_format="pyarrow",
                              concurrency=(1, 2), num_cpus=1)

    def kg_nominals(sf_dir):
        """RT-mask-driven NP/VP phrase selection (C12: select_phrases +
        get_np_nominals/get_vp_nominals, ref ccg.py:1271-1356) over the
        derivation pool — one row per selected phrase."""
        from ie_ray.semantics.engine import Composer
        fd = default_fixture_dir(n_pages=_sf_pages(sf_dir))
        ds = ray.data.read_parquet(os.path.join(fd, "derivations.parquet"))

        class NomActor:
            def __init__(self):
                self.composer = Composer()

            def __call__(self, b: pa.Table) -> pa.Table:
                hashes, kinds, phrases = [], [], []
                for h, d in zip(b.column("sent_hash").to_pylist(),
                                b.column("ccgbank").to_pylist()):
                    try:
                        sem = self.composer.compose_ccgbank(d)
                        views = [("np", sem.get_np_nominals()),
                                 ("vp", sem.get_vp_nominals()),
                                 ("orphan",
                                  sem.get_orphaned_np_nominals() or [])]
                    except Exception:
                        continue
                    for kind, items in views:
                        for _, sp in items:
                            hashes.append(h)
                            kinds.append(kind)
                            phrases.append(sem.span_text(sp))
                return pa.table({
                    "sent_hash": pa.array(hashes, type=pa.string()),
                    "kind": pa.array(kinds, type=pa.string()),
                    "phrase": pa.array(phrases, type=pa.string()),
                })

        return ds.map_batches(NomActor, batch_format="pyarrow",
                              concurrency=(1, 2), num_cpus=1)

    def media_features(sf_dir):
        from ie_ray.stages.multimodal import MediaDecodeActor, synthesize_media
        ds = ray.data.from_arrow(synthesize_media(64))
        return ds.map_batches(MediaDecodeActor, batch_size=16,
                              concurrency=(1, 2), num_cpus=1,
                              batch_format="pyarrow")

    def media_resize(sf_dir):
        """Decode → bilinear resize to 32×32 thumbnails → re-encode
        (actor-pool stage; the brief's decode/feature/resize/
        frame-sample quartet).  Thumbnails bound downstream bytes/row
        regardless of source size.  Rows-only (binary payloads);
        gated by tests/test_multimodal_decode.py resize goldens."""
        from ie_ray.stages.multimodal import MediaResizeActor, \
            synthesize_media
        ds = ray.data.from_arrow(synthesize_media(64))
        return ds.map_batches(MediaResizeActor, batch_size=16,
                              concurrency=(1, 2), num_cpus=1,
                              batch_format="pyarrow")

    def media_frame_sample(sf_dir):
        """Video → sampled frame rows (stride-2, per-video cap as the
        row-expansion skew guard); GIF real decode, unknown codecs one
        honest flagged row.  Rows-only; gated by
        tests/test_multimodal_decode.py::test_frame_sample_actor."""
        from ie_ray.stages.multimodal import MediaFrameSampleActor, \
            synthesize_media
        ds = ray.data.from_arrow(synthesize_media(64))
        return ds.map_batches(MediaFrameSampleActor, batch_size=16,
                              concurrency=(1, 2), num_cpus=1,
                              batch_format="pyarrow")

    def events_cep_pattern(sf_dir):
        """Complex-event-processing sequence matcher (the
        MATCH_RECOGNIZE / multi-pattern-over-streams shape): per user,
        the ordered event-type sequence is scanned for CONTIGUOUS
        occurrences of "one or more views, then a click, then a
        purchase" — regex ``(?:view,)+click,purchase`` over the
        comma-joined sequence.  Unlike events_funnel (arbitrary gaps
        between stages), contiguity is the point here.  Leftmost
        non-overlapping counts — identical semantics in Python re and
        DuckDB's RE2, verified by the exact oracle.  One user-bucketed
        exchange; per bucket one lexsort + run-boundary split builds
        every user's sequence, the regex is compiled once per module.
        Exact integer output — fp-free hash."""
        import numpy as np
        import re as _re
        from ie_ray.stages.relational import bucketed_map_groups
        ev = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id", "event_type"])
        pat = _re.compile(r"(?:view,)+click,purchase")

        def bucket_kernel(g: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            # NULL event_type rows contribute NOTHING — string_agg
            # skips NULLs, and ','.join would crash on None
            g = g.filter(pc.is_valid(g.column("event_type")))
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            if not len(uid):
                return pa.table({
                    "user_id": pa.array([], type=pa.int64()),
                    "n_matches": pa.array([], type=pa.int64())})
            ts = np.asarray(g.column("ts").cast(pa.timestamp("us"))
                            .cast(pa.int64()))
            eid = np.asarray(g.column("event_id"), dtype=np.int64)
            et = np.asarray(g.column("event_type").to_pylist(),
                            dtype=object)
            order = np.lexsort((eid, ts, uid))
            uid, et = uid[order], et[order]
            bounds = np.nonzero(np.concatenate(
                ([True], uid[1:] != uid[:-1], [True])))[0]
            us, ns = [], []
            for s, e in zip(bounds[:-1], bounds[1:]):
                n = len(pat.findall(",".join(et[s:e])))
                if n:
                    us.append(int(uid[s]))
                    ns.append(n)
            return pa.table({
                "user_id": pa.array(us, type=pa.int64()),
                "n_matches": pa.array(ns, type=pa.int64())})

        return bucketed_map_groups(ev, "user_id", bucket_kernel)

    def media_audiofp_pairs(sf_dir):
        """Audio near-dup pairs — the audio arm of the dedup family
        (SimHash:text :: pHash:images :: afp64:audio): Haitsma-Kalker
        spectral-shape bits (adjacent low-band energy comparisons —
        gain-invariant, noise-robust) in an actor pool feeding the same
        generic 16-band pigeonhole Hamming join as pHash.  Planted
        noisy/re-gained WAV copies are the ground truth.  Rows-only;
        tests/test_audiofp.py gates the measured contract (copies ≤ 2,
        distinct tones ≥ 8), brute-force parity and short/non-audio
        degradation."""
        from ie_ray.stages.multimodal import (audio_fp_pairs,
                                              synthesize_media_with_neardups)
        ds = ray.data.from_arrow(synthesize_media_with_neardups(64))
        return audio_fp_pairs(ds)

    def media_dedup_keep(sf_dir):
        """Cross-modality media keep-list — the flow a multimodal
        training-data pipeline actually consumes: image (pHash) and
        audio (afp64) near-dup pairs union into ONE duplicate graph →
        distributed connected components → one canonical keeper
        (numeric-min media_id) per cluster plus every untouched item,
        by the same broadcast relabel as minhash_dedup_keep's text
        flow.  Rows-only; pytest gates it against a driver-side
        union-find twin over the brute-force pair sets
        (tests/test_audiofp.py)."""
        from ie_ray.stages.multimodal import (audio_fp_pairs, phash_pairs,
                                              synthesize_media_with_neardups)
        media = ray.data.from_arrow(synthesize_media_with_neardups(64))
        pairs = phash_pairs(media).union(audio_fp_pairs(media))
        return dedup.cluster_keepers(media, pairs, "media_id",
                                     "media_a", "media_b")

    def docs_quality_classifier(sf_dir):
        """Model-BASED quality filtering (the fastText-style classifier
        stage of CCNet/GPT-3/LLaMA pipelines), complementing the
        heuristic (Gopher), perplexity (bigram LM) and DSIR filters:
        crc32-hashed bag-of-words features (no vocabulary exchange),
        distributed full-batch gradient training (weights broadcast per
        iteration, exact dim-bounded partials), broadcast scoring.
        Training labels here are synthetic (positives = the corpus,
        negatives = deterministic reversed-vocabulary corruptions) —
        at scale real labels (wiki-vs-crawl) plug into the same
        label_col seam.  Rows-only (a trained model has no SQL twin);
        tests/test_logreg.py gates exact gradient parity vs a dense
        NumPy twin, bit-deterministic retraining and held-out AUC."""
        from ie_ray.stages.logreg import (corrupt_text_deterministic,
                                          featurize, logreg_score,
                                          logreg_train)
        DIM = 1024
        docs = _docs(sf_dir)

        def label(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_pylist()
            texts = [x or "" for x in t.column("text").to_pylist()]
            neg = [corrupt_text_deterministic(x) for x in texts]
            return pa.table({
                "doc_id": pa.array(
                    ids + [i + 10_000_000 for i in ids],
                    type=pa.int64()),
                "text": pa.array(texts + neg, type=pa.string()),
                "y": pa.array([1.0] * len(ids) + [0.0] * len(ids),
                              type=pa.float64())})

        labeled = docs.map_batches(label, batch_format="pyarrow")
        # featurize ONCE (the module's design note): training
        # materializes the features, and scoring reuses the positive
        # half instead of re-tokenizing the corpus
        feats = featurize(labeled, dim=DIM, label_col="y").materialize()
        w, b, _ = logreg_train(feats, dim=DIM, iters=20)
        return logreg_score(feats.filter(expr="doc_id < 10000000"), w, b)

    def media_phash_pairs(sf_dir):
        """Perceptual near-duplicate image pairs — the image arm of the
        dedup family (SimHash:text :: pHash:images): DCT pHash in an
        actor pool, 16×4-bit pigeonhole band bucketing (EXACT for
        Hamming ≤ 15, run at ≤ 8), per-bucket verify, global pair
        dedup.  Input is the media fixture plus planted ±2-noise
        re-encodes, so the gate has ground truth.  Rows-only (binary
        payloads); tests/test_phash.py gates determinism, the measured
        robustness/discrimination contract, brute-force parity and
        undecodable-payload degradation."""
        from ie_ray.stages.multimodal import (phash_pairs,
                                              synthesize_media_with_neardups)
        ds = ray.data.from_arrow(synthesize_media_with_neardups(64))
        return phash_pairs(ds)

    def substring_dup_frac(sf_dir):
        """Exact-substring dedup score (Lee et al. 2022 re-expression):
        per-doc fraction of distinct 16-char windows shared with another
        document.  Scale path documented in stages/substring_dedup.py
        (hash the window key, stride the enumeration)."""
        from ie_ray.stages.substring_dedup import substring_dup_frac as _sdf
        return _sdf(_docs(sf_dir), width=16)

    def word_cooccur_edges(sf_dir):
        """Adjacent-word co-occurrence edges with document frequency >= 60
        — the word-level twin of the KG co-mention stage, SQL-verifiable."""
        from ie_ray.stages.cooccur import cooccur_edges
        return cooccur_edges(_docs(sf_dir), df_min=60)

    def word_triangles(sf_dir):
        """Triangles of the df>=60 co-occurrence graph via the
        Suri–Vassilvitskii oriented wedge join (stages/cooccur.py) — the
        skew-safe distributed triangle algorithm, verified value-for-value
        against DuckDB's three-way self-join."""
        from ie_ray.stages.cooccur import cooccur_edges, triangles
        return triangles(cooccur_edges(_docs(sf_dir), df_min=60))

    def word_link_prediction_top20(sf_dir):
        """Link prediction by common-neighbor count (the classic
        graph-ML feature): for every NON-adjacent pair of the df≥60
        co-occurrence graph, the number of shared neighbors; exact
        top-20.  Wedge pairs generate inside complete-center buckets
        (fan-out Σdeg(c)² is the documented cost — the vocab-bounded
        graph keeps it tame; a degree cap is one filter upstream for
        web-scale graphs), partial pair counts reduce through the
        bucketed path, adjacency is excluded by one broadcast
        composite-key probe, and the exact top-20 uses per-block
        partial top-k with a total (count, w1, w2) order."""
        import numpy as np
        import polars as pl
        from ie_ray.stages.cooccur import cooccur_edges
        from ie_ray.stages.relational import (bucketed_aggregate,
                                              bucketed_map_groups)

        edges = cooccur_edges(_docs(sf_dir), df_min=60).materialize()

        def undirect(t: pa.Table) -> pa.Table:
            return pa.table({
                "c": pa.concat_arrays([
                    t.column("w1").combine_chunks()
                    .cast(pa.string()),
                    t.column("w2").combine_chunks()
                    .cast(pa.string())]),
                "n": pa.concat_arrays([
                    t.column("w2").combine_chunks()
                    .cast(pa.string()),
                    t.column("w1").combine_chunks()
                    .cast(pa.string())])})

        und = edges.map_batches(undirect, batch_format="pyarrow")

        def wedge_pairs(g: pa.Table) -> pa.Table:
            df = pl.from_arrow(g)
            a = df.rename({"n": "w1"})
            b = df.rename({"n": "w2"})
            return (a.join(b, on="c")
                    .filter(pl.col("w1") < pl.col("w2"))
                    .group_by(["w1", "w2"])
                    .agg(pl.len().cast(pl.Int64).alias("common"))
                    ).to_arrow()

        pairs = bucketed_map_groups(und, "c", wedge_pairs)
        counts = bucketed_aggregate(pairs, ["w1", "w2"],
                                    [("common", "sum")])

        # length-prefixed composite pair key — "L:w1:w2" parses
        # unambiguously for ANY token content (a bare separator can
        # collide when tokens contain it; review finding r5s4)
        import pyarrow.compute as pc

        def pair_key(w1, w2):
            return pc.binary_join_element_wise(
                pc.utf8_length(w1).cast(pa.string()),
                w1, w2, ":")

        # broadcast adjacency as an Arrow value set (vocab-bounded)
        import ray as _ray
        et_tbls = [t for t in _ray.get(edges.to_arrow_refs())
                   if t.num_columns > 0]
        if not et_tbls:
            # graph below the df threshold: empty result, empty-graph
            # crash guard (review finding r5s4)
            import ray.data as _rd
            return _rd.from_arrow(pa.table({
                "w1": pa.array([], type=pa.string()),
                "w2": pa.array([], type=pa.string()),
                "common": pa.array([], type=pa.int64())}))
        et = pa.concat_tables(et_tbls)
        adj_ref = _ray.put(pair_key(
            et.column("w1").combine_chunks().cast(pa.string()),
            et.column("w2").combine_chunks().cast(pa.string())))

        def top20(t: pa.Table) -> pa.Table:
            t = pa.table({"w1": t.column("w1"),
                          "w2": t.column("w2"),
                          "common": t.column("common_sum")})
            a = _ray.get(adj_ref)   # zero-copy from the local store
            key = pair_key(t.column("w1").combine_chunks()
                           .cast(pa.string()),
                           t.column("w2").combine_chunks()
                           .cast(pa.string()))
            t = t.filter(pc.invert(pc.is_in(key, value_set=a)))
            return pl.from_arrow(t).sort(
                ["common", "w1", "w2"],
                descending=[True, False, False]).head(20).to_arrow()

        return (counts.map_batches(top20, batch_format="pyarrow")
                .repartition(1)
                .map_batches(
                    lambda t: pl.from_arrow(t).sort(
                        ["common", "w1", "w2"],
                        descending=[True, False, False]).head(20)
                    .to_arrow(),
                    batch_format="pyarrow", batch_size=None))

    def q4_priority_late(sf_dir):
        """TPC-H Q4 shape (EXISTS semi-join): lineitem is pre-combined to
        max(l_shipdate) per order inside each block, so the hash exchange
        carries one row per (block, order); the date predicate comparing
        BOTH sides runs after the join.  No driver-side state."""
        import numpy as np
        from ie_ray.stages.dedup import _join_partitions

        def li_prep(t: pa.Table) -> pa.Table:
            part = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "mx": t.column("l_shipdate")})
            return part.group_by("l_orderkey").aggregate(
                [("mx", "max")]).rename_columns(["l_orderkey", "mx"])

        # block partials shrink lineitem to one row per (block, order) and
        # join AS-IS: a per-block max late ⇒ the order is late (EXISTS
        # semantics), and the tiny join fan-out (orders × blocks touching
        # them) is far cheaper than a global per-order max aggregate
        # (600k-key groupby measured 13 s — Ray's sort aggregate pays
        # per-group Python overhead; see substring_dedup.py for the same
        # finding).  Distinct late orders per priority then reduce via
        # relational.distinct_count (5 groups, vectorized unique).
        from ie_ray.stages.relational import distinct_count
        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_shipdate"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_orderdate",
                               "o_orderpriority"])
        joined = orders.join(li, "inner",
                             num_partitions=_join_partitions(),
                             on=("o_orderkey",), right_on=("l_orderkey",))

        def late(t: pa.Table) -> pa.Table:
            mx = np.asarray(t.column("mx").cast(
                pa.timestamp("us")).cast(pa.int64()))
            od = np.asarray(t.column("o_orderdate").cast(
                pa.timestamp("us")).cast(pa.int64()))
            keep = pa.array(mx > od + 60 * 86_400_000_000)  # 60 days
            return pa.table({
                "o_orderpriority": t.column("o_orderpriority").filter(keep),
                "o_orderkey": t.column("o_orderkey").filter(keep)})

        agg = distinct_count(joined.map_batches(late,
                                                batch_format="pyarrow"),
                             "o_orderpriority", "o_orderkey", out="n")
        return agg.map_batches(
            lambda t: pa.table({
                "o_orderpriority": t.column("o_orderpriority"),
                "n": t.column("n").cast(pa.int64())}),
            batch_format="pyarrow")

    def q10_returned_customers(sf_dir):
        """TPC-H Q10 shape: returned-item revenue per customer over a
        6-month window, top 20.  orders⋈lineitem is the real hash join;
        the per-customer aggregate is customer-bounded, so the name/nation
        decoration is a broadcast dimension lookup (same rationale as
        Q3/Q5) and the final sort runs over customers, not lineitems."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.dedup import _join_partitions

        lo = pa.scalar(datetime.datetime(1996, 1, 1))
        hi = pa.scalar(datetime.datetime(1996, 7, 1))

        def li_prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
            # exact int64 money (see _rev_scaled): summing scaled ints is
            # associative, so the two-shuffle aggregation order can never
            # flip the rounded output vs the oracle (VERDICT r3 #1)
            part = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "rev": pa.array(_rev_scaled(t), type=pa.int64())})
            return part.group_by("l_orderkey").aggregate(
                [("rev", "sum")]).rename_columns(["l_orderkey", "rev"])

        def ord_prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("o_orderdate"), lo),
                pc.less(t.column("o_orderdate"), hi)))
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_custkey": t.column("o_custkey").cast(pa.int64())})

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_returnflag",
                           "l_extendedprice", "l_discount"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
            .map_batches(ord_prep, batch_format="pyarrow")
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))
        from ie_ray.stages.relational import bucketed_aggregate
        percust = bucketed_aggregate(
            joined.map_batches(lambda t: t.select(["o_custkey", "rev"]),
                               batch_format="pyarrow"),
            "o_custkey", [("rev", "sum")])

        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_name", "c_nationkey"])
        nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                            columns=["n_nationkey", "n_name"])
        nname = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))
        ck = np.asarray(cust.column("c_custkey").cast(pa.int64()))
        order_ = np.argsort(ck)
        lookup_ref = _ray.put((
            ck[order_],
            np.asarray(cust.column("c_name"), dtype=object)[order_],
            np.asarray([nname[k] for k in
                        cust.column("c_nationkey").to_pylist()],
                       dtype=object)[order_]))

        def decorate(t: pa.Table) -> pa.Table:
            keys, names, nats = _ray.get(lookup_ref)
            probe = np.asarray(t.column("o_custkey"), dtype=np.int64)
            pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
            return pa.table({
                "c_custkey": t.column("o_custkey").cast(pa.int64()),
                "c_name": pa.array(names[pos], type=pa.string()),
                "n_name": pa.array(nats[pos], type=pa.string()),
                "rev_scaled": t.column("rev_sum").cast(pa.int64())})

        top = percust.map_batches(decorate, batch_format="pyarrow") \
            .sort(["rev_scaled", "c_custkey"], descending=[True, False]) \
            .limit(20)
        return top.map_batches(
            lambda t: pa.table({
                "c_custkey": t.column("c_custkey"),
                "c_name": t.column("c_name"),
                "n_name": t.column("n_name"),
                "revenue": pc.round(
                    pc.divide(t.column("rev_scaled").cast(pa.float64()),
                              pa.scalar(10000.0)),
                    2, round_mode="half_towards_infinity")}),
            batch_format="pyarrow")

    def q12_returnflag_priority(sf_dir):
        """TPC-H Q12 shape: lineitem lines in a ship-year, split into
        high/low order priority per returnflag.  Lineitem pre-combines to
        (orderkey, returnflag, n) per block before the hash join with
        orders, so the exchange is order-bounded."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        from ie_ray.stages.dedup import _join_partitions

        lo = pa.scalar(datetime.datetime(1997, 1, 1))
        hi = pa.scalar(datetime.datetime(1998, 1, 1))

        def li_prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("l_shipdate"), lo),
                pc.less(t.column("l_shipdate"), hi)))
            part = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "l_returnflag": t.column("l_returnflag"),
                "n": pa.array(np.ones(len(t), dtype=np.int64))})
            return part.group_by(["l_orderkey", "l_returnflag"]).aggregate(
                [("n", "sum")]).rename_columns(
                ["l_orderkey", "l_returnflag", "n"])

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_returnflag", "l_shipdate"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_orderpriority"])
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        def split(t: pa.Table) -> pa.Table:
            high = pc.is_in(t.column("o_orderpriority"),
                            value_set=pa.array(["1-URGENT", "2-HIGH"]))
            n = np.asarray(t.column("n"), dtype=np.int64)
            hm = np.asarray(high.combine_chunks(), dtype=bool) \
                if isinstance(high, pa.ChunkedArray) \
                else np.asarray(high, dtype=bool)
            return pa.table({
                "l_returnflag": t.column("l_returnflag"),
                "high_line_count": pa.array(np.where(hm, n, 0)),
                "low_line_count": pa.array(np.where(hm, 0, n))})

        agg = joined.map_batches(split, batch_format="pyarrow") \
            .groupby("l_returnflag") \
            .sum(["high_line_count", "low_line_count"])
        return agg.map_batches(
            lambda t: pa.table({
                "l_returnflag": t.column("l_returnflag"),
                "high_line_count":
                    t.column("sum(high_line_count)").cast(pa.int64()),
                "low_line_count":
                    t.column("sum(low_line_count)").cast(pa.int64())}),
            batch_format="pyarrow")

    def q14_promo_revenue(sf_dir):
        """TPC-H Q14 shape: promo revenue share for one ship-month.  part
        is a broadcast dimension (dense partkey→is-promo bool, `ray.put`
        once, read per task); lineitem reduces to one partial row per
        block via lowcard_combine."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray

        pt = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_type"])
        pk = np.asarray(pt.column("p_partkey").cast(pa.int64()))
        promo = KeyLookup(pk, np.asarray(
            pc.equal(pt.column("p_type"), "PROMO").combine_chunks(),
            dtype=bool), default=False)
        promo_ref = _ray.put(promo)
        lo = pa.scalar(datetime.datetime(1997, 9, 1))
        hi = pa.scalar(datetime.datetime(1997, 10, 1))

        def partial(t: pa.Table) -> pa.Table:
            pr = _ray.get(promo_ref)
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("l_shipdate"), lo),
                pc.less(t.column("l_shipdate"), hi)))
            # exact int64 money (see _rev_scaled): partials sum exactly
            rev = _rev_scaled(t)
            keys = np.asarray(t.column("l_partkey").cast(pa.int64()))
            is_promo = pr.take(keys)
            return pa.table({
                "one": pa.array([1], type=pa.int64()),
                "promo": pa.array([int(rev[is_promo].sum())],
                                  type=pa.int64()),
                "total": pa.array([int(rev.sum())], type=pa.int64())})

        def finish(t: pa.Table) -> pa.Table:
            promo_s = pc.sum(t.column("promo")).as_py() or 0
            total_s = pc.sum(t.column("total")).as_py() or 1
            return pa.table({"promo_revenue": pc.round(
                pa.array([100.0 * promo_s / total_s], type=pa.float64()),
                4, round_mode="half_towards_infinity")})

        return lowcard_combine(
            _tbl(sf_dir, "lineitem",
                 columns=["l_partkey", "l_shipdate", "l_extendedprice",
                          "l_discount"]),
            partial, finish)

    # -- TPC-H Q7/Q8/Q9/Q13/Q15/Q17/Q18/Q19/Q22 shapes (round 4) -------
    # All money flows as exact scaled int64 through every shuffle
    # (associative — aggregation order can never flip a rounded digit vs
    # the oracle, the VERDICT r3 #1 rule); nation/supplier/part are
    # broadcast dimensions (ray.put once, read per task), lineitem and
    # orders are the streamed fact tables that pre-combine per block
    # before any exchange.

    def _nation_names(sf_dir):
        import pyarrow.parquet as pq
        nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
        return dict(zip(nat.column("n_nationkey").to_pylist(),
                        nat.column("n_name").to_pylist()))

    def _dense_str(keys, values):
        """key→string lookup (dense gather for dense TPC-H ids,
        hash probe when the key space is sparse — sized by table size,
        never by max(key))."""
        import numpy as np
        return KeyLookup(np.asarray(keys, dtype=np.int64),
                         np.asarray(values, dtype=object), default="")

    def q7_nation_volume(sf_dir):
        """TPC-H Q7 shape: shipping volume between two nations by ship
        year, either direction.  supplier/customer nations are broadcast
        dense lookups; lineitem pre-combines to one row per
        (orderkey, supp_nation, year) before the single big hash join
        with orders; the final (2×2×years)-key aggregate is a
        lowcard_combine — no rows-sized groupby anywhere."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.dedup import _join_partitions

        N1, N2 = "NATION_3", "NATION_7"
        nname = _nation_names(sf_dir)
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_nationkey"])
        supp_nat = _dense_str(
            sup.column("s_suppkey").to_pylist(),
            [nname[k] for k in sup.column("s_nationkey").to_pylist()])
        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_nationkey"])
        cust_nat = _dense_str(
            cust.column("c_custkey").to_pylist(),
            [nname[k] for k in cust.column("c_nationkey").to_pylist()])
        dims_ref = _ray.put((supp_nat, cust_nat))
        lo = pa.scalar(datetime.datetime(1999, 1, 1))
        hi = pa.scalar(datetime.datetime(2001, 1, 1))

        def li_prep(t: pa.Table) -> pa.Table:
            sn, _ = _ray.get(dims_ref)
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("l_shipdate"), lo),
                pc.less(t.column("l_shipdate"), hi)))
            sk = np.asarray(t.column("l_suppkey").cast(pa.int64()))
            snat = sn.take(sk)
            keep = (snat == N1) | (snat == N2)
            part = pa.table({
                "l_orderkey":
                    t.column("l_orderkey").cast(pa.int64()).filter(
                        pa.array(keep)),
                "supp_nation": pa.array(snat[keep], type=pa.string()),
                "l_year": pc.year(t.column("l_shipdate")).cast(
                    pa.int64()).filter(pa.array(keep)),
                "rev": pa.array(_rev_scaled(t)[keep], type=pa.int64())})
            return part.group_by(
                ["l_orderkey", "supp_nation", "l_year"]).aggregate(
                [("rev", "sum")]).rename_columns(
                ["l_orderkey", "supp_nation", "l_year", "rev"])

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_shipdate",
                           "l_extendedprice", "l_discount"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey"])
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        def partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                # a zero-key hash-join partition emits a SCHEMA-LESS
                # empty block — rebuild the partial's schema
                return pa.table({
                    "supp_nation": pa.array([], type=pa.string()),
                    "cust_nation": pa.array([], type=pa.string()),
                    "l_year": pa.array([], type=pa.int64()),
                    "rev": pa.array([], type=pa.int64())})
            _, cn = _ray.get(dims_ref)
            ck = np.asarray(t.column("o_custkey").cast(pa.int64()))
            cnat = cn.take(ck)
            snat = np.asarray(t.column("supp_nation"), dtype=object)
            keep = ((snat == N1) & (cnat == N2)) | \
                   ((snat == N2) & (cnat == N1))
            part = pa.table({
                "supp_nation": pa.array(snat[keep], type=pa.string()),
                "cust_nation": pa.array(cnat[keep], type=pa.string()),
                "l_year": t.column("l_year").filter(pa.array(keep)),
                "rev": t.column("rev").filter(pa.array(keep))})
            return part.group_by(
                ["supp_nation", "cust_nation", "l_year"]).aggregate(
                [("rev", "sum")]).rename_columns(
                ["supp_nation", "cust_nation", "l_year", "rev"])

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by(
                ["supp_nation", "cust_nation", "l_year"]).aggregate(
                [("rev", "sum")]).rename_columns(
                ["supp_nation", "cust_nation", "l_year", "rev"])
            g = g.sort_by([("supp_nation", "ascending"),
                           ("cust_nation", "ascending"),
                           ("l_year", "ascending")])
            return pa.table({
                "supp_nation": g.column("supp_nation"),
                "cust_nation": g.column("cust_nation"),
                "l_year": g.column("l_year"),
                "revenue": pc.round(
                    pc.divide(g.column("rev").cast(pa.float64()),
                              pa.scalar(10000.0)),
                    2, round_mode="half_towards_infinity")})

        return lowcard_combine(joined, partial, final)

    def q8_market_share(sf_dir):
        """TPC-H Q8 shape: one nation's share of STANDARD-part revenue
        sold into one region's market, by order year.  part-type and
        supplier-nation are broadcast dense lookups applied in the
        lineitem pre-combine; customer-region decides market membership
        after the orders join; the (year)-key finish is lowcard."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.dedup import _join_partitions

        TARGET, REGION, PTYPE = "NATION_8", "ASIA", "STANDARD"
        nname = _nation_names(sf_dir)
        nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
        reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
        rname = dict(zip(reg.column("r_regionkey").to_pylist(),
                         reg.column("r_name").to_pylist()))
        nat_region = {k: rname[r] for k, r in zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_regionkey").to_pylist())}

        pt = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_type"])
        pk = np.asarray(pt.column("p_partkey").cast(pa.int64()))
        is_type = KeyLookup(pk, np.asarray(
            pc.equal(pt.column("p_type"), PTYPE).combine_chunks(),
            dtype=bool), default=False)
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_nationkey"])
        sk = np.asarray(sup.column("s_suppkey").cast(pa.int64()))
        is_target = KeyLookup(sk, np.asarray(
            [nname[k] == TARGET
             for k in sup.column("s_nationkey").to_pylist()],
            dtype=bool), default=False)
        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_nationkey"])
        ck = np.asarray(cust.column("c_custkey").cast(pa.int64()))
        in_region = KeyLookup(ck, np.asarray(
            [nat_region[k] == REGION
             for k in cust.column("c_nationkey").to_pylist()],
            dtype=bool), default=False)
        dims_ref = _ray.put((is_type, is_target, in_region))
        lo = pa.scalar(datetime.datetime(1996, 1, 1))
        hi = pa.scalar(datetime.datetime(1998, 1, 1))

        def li_prep(t: pa.Table) -> pa.Table:
            ptyp, tgt, _ = _ray.get(dims_ref)
            pkk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            keep = ptyp.take(pkk)
            rev = _rev_scaled(t)[keep]
            skk = np.asarray(t.column("l_suppkey").cast(
                pa.int64()))[keep]
            target = tgt.take(skk)
            part = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(
                    pa.int64()).filter(pa.array(keep)),
                "rev": pa.array(rev, type=pa.int64()),
                "trev": pa.array(np.where(target, rev, 0),
                                 type=pa.int64())})
            return part.group_by("l_orderkey").aggregate(
                [("rev", "sum"), ("trev", "sum")]).rename_columns(
                ["l_orderkey", "rev", "trev"])

        def ord_prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("o_orderdate"), lo),
                pc.less(t.column("o_orderdate"), hi)))
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "o_year": pc.year(t.column("o_orderdate")).cast(
                    pa.int64())})

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_partkey", "l_suppkey",
                           "l_extendedprice", "l_discount"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey",
                               "o_orderdate"]) \
            .map_batches(ord_prep, batch_format="pyarrow")
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        def partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                # schema-less empty block from a zero-key join partition
                return pa.table({
                    "o_year": pa.array([], type=pa.int64()),
                    "rev": pa.array([], type=pa.int64()),
                    "trev": pa.array([], type=pa.int64())})
            _, _, inr = _ray.get(dims_ref)
            ckk = np.asarray(t.column("o_custkey").cast(pa.int64()))
            keep = inr.take(ckk)
            part = pa.table({
                "o_year": t.column("o_year").filter(pa.array(keep)),
                "rev": t.column("rev").filter(pa.array(keep)),
                "trev": t.column("trev").filter(pa.array(keep))})
            return part.group_by("o_year").aggregate(
                [("rev", "sum"), ("trev", "sum")]).rename_columns(
                ["o_year", "rev", "trev"])

        def final(t: pa.Table) -> pa.Table:
            # input = concatenated partials (o_year, rev, trev)
            g = t.group_by("o_year").aggregate(
                [("rev", "sum"), ("trev", "sum")]).rename_columns(
                ["o_year", "rev", "trev"]).sort_by("o_year")
            rev = np.asarray(g.column("rev"), dtype=np.float64)
            trev = np.asarray(g.column("trev"), dtype=np.float64)
            return pa.table({
                "o_year": g.column("o_year"),
                "mkt_share": pc.round(
                    pa.array(trev / np.maximum(rev, 1.0)),
                    4, round_mode="half_towards_infinity")})

        return lowcard_combine(joined, partial, final)

    def q9_profit_by_nation(sf_dir):
        """TPC-H Q9 shape (adapted — no partsupp table in this corpus, so
        profit = discounted revenue): revenue on parts whose name
        contains 'red', per supplier nation per order year.  Part match
        + supplier nation are broadcast lookups in the lineitem
        pre-combine; (nation × year) finish is lowcard."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.dedup import _join_partitions

        nname = _nation_names(sf_dir)
        pt = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_name"])
        pk = np.asarray(pt.column("p_partkey").cast(pa.int64()))
        is_red = KeyLookup(pk, np.asarray(
            pc.match_substring(pt.column("p_name"),
                               "red").combine_chunks(), dtype=bool),
            default=False)
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_nationkey"])
        supp_nat = _dense_str(
            sup.column("s_suppkey").to_pylist(),
            [nname[k] for k in sup.column("s_nationkey").to_pylist()])
        dims_ref = _ray.put((is_red, supp_nat))

        def li_prep(t: pa.Table) -> pa.Table:
            red, sn = _ray.get(dims_ref)
            pkk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            keep = red.take(pkk)
            skk = np.asarray(t.column("l_suppkey").cast(
                pa.int64()))[keep]
            part = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(
                    pa.int64()).filter(pa.array(keep)),
                "nation": pa.array(sn.take(skk), type=pa.string()),
                "amount": pa.array(_rev_scaled(t)[keep],
                                   type=pa.int64())})
            return part.group_by(["l_orderkey", "nation"]).aggregate(
                [("amount", "sum")]).rename_columns(
                ["l_orderkey", "nation", "amount"])

        def ord_prep(t: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc
            return pa.table({
                "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
                "o_year": _pc.year(t.column("o_orderdate")).cast(
                    pa.int64())})

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_partkey", "l_suppkey",
                           "l_extendedprice", "l_discount"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_orderdate"]) \
            .map_batches(ord_prep, batch_format="pyarrow")
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        def partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                # schema-less empty block from a zero-key join partition
                return pa.table({
                    "nation": pa.array([], type=pa.string()),
                    "o_year": pa.array([], type=pa.int64()),
                    "amount": pa.array([], type=pa.int64())})
            return t.select(["nation", "o_year", "amount"]).group_by(
                ["nation", "o_year"]).aggregate(
                [("amount", "sum")]).rename_columns(
                ["nation", "o_year", "amount"])

        def final(t: pa.Table) -> pa.Table:
            g = partial(t).sort_by([("nation", "ascending"),
                                    ("o_year", "descending")])
            return pa.table({
                "nation": g.column("nation"),
                "o_year": g.column("o_year"),
                "sum_profit": pc.round(
                    pc.divide(g.column("amount").cast(pa.float64()),
                              pa.scalar(10000.0)),
                    2, round_mode="half_towards_infinity")})

        return lowcard_combine(joined, partial, final)

    def q13_order_distribution(sf_dir):
        """TPC-H Q13 shape: distribution of customers by order count,
        including zero-order customers.  Per-customer counts run through
        the bucketed (Arrow hash-agg) path — customer-sized key domain;
        the count→custdist histogram domain is tiny (≤ max orders per
        customer) so it finishes in a lowcard_combine, and the zero row
        is total-customers − customers-with-orders (parquet metadata,
        no extra scan)."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        from ie_ray.stages.relational import bucketed_aggregate

        n_cust = pq.ParquetFile(
            os.path.join(sf_dir, "customer.parquet")).metadata.num_rows

        orders = _tbl(sf_dir, "orders", columns=["o_custkey"]) \
            .map_batches(lambda t: pa.table({
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "n": pa.array(np.ones(len(t), dtype=np.int64))}),
                batch_format="pyarrow")
        percust = bucketed_aggregate(orders, "o_custkey", [("n", "sum")])

        def partial(t: pa.Table) -> pa.Table:
            return pa.table({
                "c_count": t.column("n_sum").cast(pa.int64()),
                "custdist": pa.array(
                    np.ones(len(t), dtype=np.int64))}).group_by(
                "c_count").aggregate([("custdist", "sum")]) \
                .rename_columns(["c_count", "custdist"])

        def final(t: pa.Table) -> pa.Table:
            # input = concatenated partials (c_count, custdist)
            g = t.group_by("c_count").aggregate(
                [("custdist", "sum")]).rename_columns(
                ["c_count", "custdist"])
            seen = int(pc.sum(g.column("custdist")).as_py() or 0)
            if n_cust > seen:
                g = pa.concat_tables([g, pa.table({
                    "c_count": pa.array([0], type=pa.int64()),
                    "custdist": pa.array([n_cust - seen],
                                         type=pa.int64())})])
            return g.sort_by([("custdist", "descending"),
                              ("c_count", "descending")])

        return lowcard_combine(percust, partial, final)

    def q15_top_supplier(sf_dir):
        """TPC-H Q15 shape: supplier(s) with the maximum revenue over one
        quarter.  Per-supplier revenue goes through the bucketed path
        (supplier-sized key domain), the small result materializes once,
        its global max comes from a streaming aggregate over that small
        table, and the name decoration is a broadcast lookup."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.relational import bucketed_aggregate

        lo = pa.scalar(datetime.datetime(1999, 1, 1))
        hi = pa.scalar(datetime.datetime(1999, 4, 1))

        def li_prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("l_shipdate"), lo),
                pc.less(t.column("l_shipdate"), hi)))
            return pa.table({
                "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                "rev": pa.array(_rev_scaled(t), type=pa.int64())})

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_suppkey", "l_shipdate", "l_extendedprice",
                           "l_discount"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        # supplier-bounded result — materialize once (it feeds both the
        # max aggregate and the filter; re-executing lineage would scan
        # lineitem twice)
        persupp = bucketed_aggregate(li, "l_suppkey",
                                     [("rev", "sum")]).materialize()
        mx = persupp.max("rev_sum")

        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_name"])
        sname = _dense_str(sup.column("s_suppkey").to_pylist(),
                           sup.column("s_name").to_pylist())
        name_ref = _ray.put(sname)

        def decorate(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t.column("rev_sum"), pa.scalar(mx)))
            nm = _ray.get(name_ref)
            sk = np.asarray(t.column("l_suppkey").cast(pa.int64()))
            return pa.table({
                "s_suppkey": t.column("l_suppkey").cast(pa.int64()),
                "s_name": pa.array(nm.take(sk), type=pa.string()),
                "total_revenue": pc.round(
                    pc.divide(t.column("rev_sum").cast(pa.float64()),
                              pa.scalar(10000.0)),
                    2, round_mode="half_towards_infinity")})

        return persupp.map_batches(
            decorate, batch_format="pyarrow").sort("s_suppkey")

    def q17_small_quantity_revenue(sf_dir):
        """TPC-H Q17 shape: yearly-averaged revenue lost to small-quantity
        orders of one brand.  Per-part quantity stats for the brand are a
        bounded dimension (|parts|/25) computed in pass 1 through the
        bucketed path and broadcast; pass 2 compares each lineitem
        vectorized against its part's mean — the 'l_quantity < 0.2*avg'
        predicate runs as the EXACT integer cross-multiplication
        5·qty·count < sum_qty, so both sides agree bit-for-bit."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.relational import bucketed_aggregate

        BRAND = "Brand#23"
        pt = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_brand"])
        pk = np.asarray(pt.column("p_partkey").cast(pa.int64()))
        in_brand = KeyLookup(pk, np.asarray(
            pc.equal(pt.column("p_brand"), BRAND).combine_chunks(),
            dtype=bool), default=False)
        brand_ref = _ray.put(in_brand)

        def li_brand(t: pa.Table) -> pa.Table:
            br = _ray.get(brand_ref)
            pkk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            keep = br.take(pkk)
            qty = np.round(np.asarray(t.column("l_quantity"),
                                      dtype=np.float64) * 100.0) \
                .astype(np.int64)
            return pa.table({
                "l_partkey": pa.array(pkk[keep]),
                "qs": pa.array(qty[keep]),
                "cnt": pa.array(np.ones(int(keep.sum()),
                                        dtype=np.int64))})

        li_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
        stats = bucketed_aggregate(
            _tbl(sf_dir, "lineitem", columns=li_cols)
            .map_batches(li_brand, batch_format="pyarrow"),
            "l_partkey", [("qs", "sum"), ("cnt", "sum")])
        # brand-bounded (|parts|/25) dimension → dense broadcast arrays
        st = pa.concat_tables([t for t in
                               [b for b in stats.iter_batches(
                                   batch_format="pyarrow")]
                               if t.num_columns > 0])
        keys = np.asarray(st.column("l_partkey"), dtype=np.int64)
        sq = KeyLookup(keys, np.asarray(st.column("qs_sum"),
                                        dtype=np.int64), default=0)
        cn = KeyLookup(keys, np.asarray(st.column("cnt_sum"),
                                        dtype=np.int64), default=0)
        stats_ref = _ray.put((sq, cn))

        def partial(t: pa.Table) -> pa.Table:
            br = _ray.get(brand_ref)
            sqa, cna = _ray.get(stats_ref)
            pkk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            keep = br.take(pkk)
            qty = np.round(np.asarray(t.column("l_quantity"),
                                      dtype=np.float64) * 100.0) \
                .astype(np.int64)
            small = keep & (5 * qty * cna.take(pkk) < sqa.take(pkk))
            cents = np.round(np.asarray(t.column("l_extendedprice"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            return pa.table({"cents": pa.array(
                [int(cents[small].sum())], type=pa.int64())})

        def final(t: pa.Table) -> pa.Table:
            total = pc.sum(t.column("cents")).as_py() or 0
            return pa.table({"avg_yearly": pc.round(
                pa.array([total / 100.0 / 7.0], type=pa.float64()),
                2, round_mode="half_towards_infinity")})

        return lowcard_combine(
            _tbl(sf_dir, "lineitem", columns=li_cols), partial, final)

    def q18_large_volume(sf_dir):
        """TPC-H Q18 shape: orders whose total quantity exceeds a
        threshold, decorated with customer names, top 100 by order
        value.  Per-order quantity sums run bucketed (order-sized key
        domain), the survivors join orders by hash, the customer name is
        a broadcast lookup, and the sort runs over survivors only."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.dedup import _join_partitions
        from ie_ray.stages.relational import bucketed_aggregate

        THRESH = 150  # quantity units (generator max ≈ 458)

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_quantity"]) \
            .map_batches(lambda t: pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "qs": pa.array(np.round(np.asarray(
                    t.column("l_quantity"), dtype=np.float64) * 100.0)
                    .astype(np.int64))}), batch_format="pyarrow")
        perorder = bucketed_aggregate(li, "l_orderkey", [("qs", "sum")]) \
            .map_batches(lambda t: t.filter(pc.greater(
                t.column("qs_sum"), pa.scalar(THRESH * 100))),
                batch_format="pyarrow")

        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_custkey", "o_orderdate",
                               "o_totalprice"])
        joined = perorder.join(orders, "inner",
                               num_partitions=_join_partitions(),
                               on=("l_orderkey",),
                               right_on=("o_orderkey",))

        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_name"])
        cname = _dense_str(cust.column("c_custkey").to_pylist(),
                           cust.column("c_name").to_pylist())
        name_ref = _ray.put(cname)

        def decorate(t: pa.Table) -> pa.Table:
            nm = _ray.get(name_ref)
            ck = np.asarray(t.column("o_custkey").cast(pa.int64()))
            return pa.table({
                "c_name": pa.array(nm.take(ck), type=pa.string()),
                "c_custkey": t.column("o_custkey").cast(pa.int64()),
                "o_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "o_orderdate": t.column("o_orderdate"),
                "o_totalprice": t.column("o_totalprice"),
                "sum_qty": pc.round(pc.divide(
                    t.column("qs_sum").cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity")})

        return joined.map_batches(decorate, batch_format="pyarrow") \
            .sort(["o_totalprice", "o_orderdate", "o_orderkey"],
                  descending=[True, False, False]).limit(100)

    def q19_disjunct_revenue(sf_dir):
        """TPC-H Q19 shape: revenue under three disjunctive
        (brand, size-band, quantity-band) predicates.  The part side
        compiles to a dense partkey→branch-id broadcast array; each
        lineitem block applies the branch's quantity band vectorized and
        emits one partial row — no join, no shuffle."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray

        BRANCHES = [("Brand#12", 1, 5, 1, 11),
                    ("Brand#23", 1, 10, 10, 20),
                    ("Brand#34", 1, 15, 20, 30)]
        pt = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_partkey", "p_brand", "p_size"])
        pk = np.asarray(pt.column("p_partkey").cast(pa.int64()))
        brand = np.asarray(pt.column("p_brand"), dtype=object)
        size = np.asarray(pt.column("p_size"), dtype=np.int64)
        bid_vals = np.zeros(len(pk), dtype=np.int8)
        for i, (b, s_lo, s_hi, _, _) in enumerate(BRANCHES, start=1):
            m = (brand == b) & (size >= s_lo) & (size <= s_hi)
            bid_vals[m] = i
        branch = KeyLookup(pk, bid_vals, default=np.int8(0))
        qlo = np.array([0] + [b[3] for b in BRANCHES], dtype=np.int64)
        qhi = np.array([-1] + [b[4] for b in BRANCHES], dtype=np.int64)
        dims_ref = _ray.put((branch, qlo, qhi))

        def partial(t: pa.Table) -> pa.Table:
            br, lo_, hi_ = _ray.get(dims_ref)
            pkk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            bid = br.take(pkk)
            qty = np.round(np.asarray(t.column("l_quantity"),
                                      dtype=np.float64)).astype(np.int64)
            keep = (bid > 0) & (qty >= lo_[bid]) & (qty <= hi_[bid])
            return pa.table({"rev": pa.array(
                [int(_rev_scaled(t)[keep].sum())], type=pa.int64())})

        def final(t: pa.Table) -> pa.Table:
            total = pc.sum(t.column("rev")).as_py() or 0
            return pa.table({"revenue": pc.round(
                pa.array([total / 10000.0], type=pa.float64()),
                2, round_mode="half_towards_infinity")})

        return lowcard_combine(
            _tbl(sf_dir, "lineitem",
                 columns=["l_partkey", "l_quantity", "l_extendedprice",
                          "l_discount"]),
            partial, final)

    def q22_idle_customers(sf_dir):
        """TPC-H Q22 shape (adapted — no phone column, nationkey groups;
        'no orders' scoped to the last two data years so the answer is
        non-empty at every sf): above-average-balance customers with no
        recent orders, count + balance per nation.  The global average
        is a 1-row streaming aggregate (exact cents), the 'never
        ordered' side is the hash anti-join, and the comparison runs as
        the integer cross-multiplication cents·count > sum_cents so
        both sides agree exactly."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        from ie_ray.stages.relational import anti_join

        cutoff = pa.scalar(datetime.datetime(2000, 1, 1))

        cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]

        def bal_partial(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("c_acctbal"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            pos = cents > 0
            return pa.table({
                "sc": pa.array([int(cents[pos].sum())], type=pa.int64()),
                "c": pa.array([int(pos.sum())], type=pa.int64())})

        def bal_final(t: pa.Table) -> pa.Table:
            return pa.table({
                "sc": pa.array([int(pc.sum(t.column("sc")).as_py()
                                    or 0)], type=pa.int64()),
                "c": pa.array([int(pc.sum(t.column("c")).as_py()
                                   or 1)], type=pa.int64())})

        row = lowcard_combine(_tbl(sf_dir, "customer",
                                   columns=["c_acctbal"]),
                              bal_partial, bal_final).take_all()[0]
        sum_cents, n_pos = int(row["sc"]), max(int(row["c"]), 1)

        def rich(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("c_acctbal"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            keep = cents * n_pos > sum_cents
            return pa.table({
                "c_custkey": t.column("c_custkey").cast(
                    pa.int64()).filter(pa.array(keep)),
                "n_nationkey": t.column("c_nationkey").cast(
                    pa.int64()).filter(pa.array(keep)),
                "cents": pa.array(cents[keep], type=pa.int64())})

        cust = _tbl(sf_dir, "customer", columns=cust_cols) \
            .map_batches(rich, batch_format="pyarrow")
        recent = _tbl(sf_dir, "orders",
                      columns=["o_custkey", "o_orderdate"]) \
            .map_batches(lambda t: t.filter(pc.greater_equal(
                t.column("o_orderdate"), cutoff)).select(["o_custkey"]),
                batch_format="pyarrow")
        idle = anti_join(cust, recent, "c_custkey", "o_custkey")

        def partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                # schema-stable empty partial (anti-join can emit
                # schema-less empty blocks for filtered-out partitions)
                return pa.table({
                    "n_nationkey": pa.array([], type=pa.int64()),
                    "numcust": pa.array([], type=pa.int64()),
                    "cents": pa.array([], type=pa.int64())})
            part = pa.table({
                "n_nationkey": t.column("n_nationkey"),
                "numcust": pa.array(np.ones(len(t), dtype=np.int64)),
                "cents": t.column("cents")})
            return part.group_by("n_nationkey").aggregate(
                [("numcust", "sum"), ("cents", "sum")]).rename_columns(
                ["n_nationkey", "numcust", "cents"])

        def final(t: pa.Table) -> pa.Table:
            # input = concatenated partials (n_nationkey, numcust, cents)
            g = t.group_by("n_nationkey").aggregate(
                [("numcust", "sum"), ("cents", "sum")]).rename_columns(
                ["n_nationkey", "numcust", "cents"]) \
                .sort_by("n_nationkey")
            return pa.table({
                "n_nationkey": g.column("n_nationkey"),
                "numcust": g.column("numcust"),
                "totacctbal": pc.round(pc.divide(
                    g.column("cents").cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity")})

        return lowcard_combine(idle, partial, final)

    def _small_table(ds, cols):
        """Collect a FINAL (already repartition(1)-reduced, ≤ dimension
        sized) result as one pa.Table with a guaranteed schema.  Ray
        map_batches skips the UDF on zero-row blocks, so an all-empty
        pipeline can surface a SCHEMA-LESS block that poisons
        to_pandas() into dropping every column — concat only
        schema-bearing blocks and rebuild the schema when none exist."""
        import ray as _r
        tbls = [t for t in _r.get(ds.to_arrow_refs())
                if t.num_columns > 0]
        if not tbls:
            return pa.table({n: pa.array([], type=ty) for n, ty in cols})
        return pa.concat_tables(tbls)

    def _europe_suppliers(sf_dir):
        """(in_region bool, s_name, n_name, s_acctbal) dense arrays
        over suppkey for the EUROPE region (driver-side dim prep —
        supplier/nation/region are the broadcast-sized tables)."""
        import numpy as np
        import pyarrow.parquet as pq

        nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
        reg = pq.read_table(os.path.join(sf_dir, "region.parquet"))
        rname = dict(zip(reg.column("r_regionkey").to_pylist(),
                         reg.column("r_name").to_pylist()))
        nat_reg = {k: rname[r] for k, r in zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_regionkey").to_pylist())}
        nname = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"))
        sk = np.asarray(sup.column("s_suppkey"), dtype=np.int64)
        nk = sup.column("s_nationkey").to_pylist()
        in_eu = KeyLookup(sk, np.asarray(
            [nat_reg[k] == "EUROPE" for k in nk], dtype=bool),
            default=False)
        sname = KeyLookup(sk, np.asarray(sup.column("s_name"),
                                         dtype=object), default="")
        snat = KeyLookup(sk, np.asarray([nname[k] for k in nk],
                                        dtype=object), default="")
        sbal = KeyLookup(sk, np.asarray(sup.column("s_acctbal"),
                                        dtype=np.float64), default=0.0)
        return in_eu, sname, snat, sbal

    def q2_min_cost_supplier(sf_dir):
        """TPC-H Q2 shape (adapted — no partsupp table, so a supplier's
        'offer' for a part is its minimum observed sale price): for
        STANDARD parts of the probed sizes, the EUROPE supplier(s)
        matching the per-part minimum offer.  Supplier/nation/region
        collapse to dense broadcast lookups; offers reduce per
        (part, supplier) through the bucketed path; the per-part min
        joins back broadcast.  Prices compare as exact int cents so min
        selection can never flip on float association."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray
        from ie_ray.stages.relational import adaptive_join, \
            bucketed_aggregate

        in_eu, sname, snat, sbal = _europe_suppliers(sf_dir)
        part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                             columns=["p_partkey", "p_type", "p_size"])
        pk = np.asarray(part.column("p_partkey"), dtype=np.int64)
        sizes = {5, 15, 25, 35, 45}
        part_ok = KeyLookup(pk, (
            np.asarray(part.column("p_type"), dtype=object)
            == "STANDARD") & np.isin(
            np.asarray(part.column("p_size"), dtype=np.int64),
            list(sizes)), default=False)
        dims_ref = _ray.put((in_eu, sname, snat, sbal, part_ok))

        def li_prep(t: pa.Table) -> pa.Table:
            eu, _, _, _, pok = _ray.get(dims_ref)
            lpk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            lsk = np.asarray(t.column("l_suppkey").cast(pa.int64()))
            keep = pok.take(lpk) & eu.take(lsk)
            cents = np.round(np.asarray(
                t.column("l_extendedprice"), dtype=np.float64)
                * 100.0).astype(np.int64)
            part_t = pa.table({
                "l_partkey": pa.array(lpk[keep], type=pa.int64()),
                "l_suppkey": pa.array(lsk[keep], type=pa.int64()),
                "cents": pa.array(cents[keep], type=pa.int64())})
            return part_t.group_by(
                ["l_partkey", "l_suppkey"]).aggregate(
                [("cents", "min")]).rename_columns(
                ["l_partkey", "l_suppkey", "cents"])

        offers = _tbl(sf_dir, "lineitem",
                      columns=["l_partkey", "l_suppkey",
                               "l_extendedprice"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        offers = bucketed_aggregate(
            offers, ["l_partkey", "l_suppkey"], [("cents", "min")]) \
            .map_batches(lambda t: t.rename_columns(
                ["l_partkey", "l_suppkey", "cents"]),
                batch_format="pyarrow") \
            .materialize()  # bounded: (filtered part, supplier) pairs;
        # consumed twice (per-part min + equality probe)
        best = bucketed_aggregate(offers, "l_partkey",
                                  [("cents", "min")]) \
            .map_batches(lambda t: t.rename_columns(
                ["l_partkey", "mc"]), batch_format="pyarrow")
        hit = adaptive_join(offers, best, "l_partkey")

        def project(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.table({
                    "s_acctbal": pa.array([], type=pa.float64()),
                    "s_name": pa.array([], type=pa.string()),
                    "n_name": pa.array([], type=pa.string()),
                    "p_partkey": pa.array([], type=pa.int64()),
                    "min_cost": pa.array([], type=pa.float64())})
            _, sn, nn, bal, _ = _ray.get(dims_ref)
            t = t.filter(pc.equal(t.column("cents"), t.column("mc")))
            sk = np.asarray(t.column("l_suppkey"))
            return pa.table({
                "s_acctbal": pa.array(bal.take(sk),
                                      type=pa.float64()),
                "s_name": pa.array(sn.take(sk), type=pa.string()),
                "n_name": pa.array(nn.take(sk), type=pa.string()),
                "p_partkey": t.column("l_partkey"),
                "min_cost": pc.round(pc.divide(
                    t.column("cents").cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity")})

        def order(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return project(t)
            return t.sort_by([("s_acctbal", "descending"),
                              ("n_name", "ascending"),
                              ("s_name", "ascending"),
                              ("p_partkey", "ascending")])

        return _small_table(lowcard_combine(hit, project, order),
                       [("s_acctbal", pa.float64()),
                        ("s_name", pa.string()),
                        ("n_name", pa.string()),
                        ("p_partkey", pa.int64()),
                        ("min_cost", pa.float64())])

    def q11_important_parts(sf_dir):
        """TPC-H Q11 shape (adapted — no partsupp, 'stock value' is
        NATION_5-supplier revenue per part): parts whose value exceeds
        1/500 of the nation total.  Per-part values reduce through the
        bucketed path, the global threshold is one streaming scalar,
        and the comparison cross-multiplies exact int64 so both engines
        agree on every boundary."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray

        from ie_ray.stages.relational import bucketed_aggregate

        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_nationkey"])
        sk = np.asarray(sup.column("s_suppkey"), dtype=np.int64)
        in_nat = KeyLookup(sk, np.asarray(
            sup.column("s_nationkey"), dtype=np.int64) == 5,
            default=False)
        nat_ref = _ray.put(in_nat)

        def li_prep(t: pa.Table) -> pa.Table:
            nat = _ray.get(nat_ref)
            lsk = np.asarray(t.column("l_suppkey").cast(pa.int64()))
            keep = nat.take(lsk)
            part_t = pa.table({
                "l_partkey":
                    t.column("l_partkey").cast(pa.int64()).filter(
                        pa.array(keep)),
                "rev": pa.array(_rev_scaled(t)[keep], type=pa.int64())})
            return part_t.group_by("l_partkey").aggregate(
                [("rev", "sum")]).rename_columns(["l_partkey", "rev"])

        v = bucketed_aggregate(
            _tbl(sf_dir, "lineitem",
                 columns=["l_partkey", "l_suppkey", "l_extendedprice",
                          "l_discount"])
            .map_batches(li_prep, batch_format="pyarrow"),
            "l_partkey", [("rev", "sum")]) \
            .map_batches(lambda t: t.rename_columns(
                ["l_partkey", "rev"]), batch_format="pyarrow") \
            .materialize()  # bounded: one row per part; consumed twice

        def tot_partial(t: pa.Table) -> pa.Table:
            s = pc.sum(t.column("rev")).as_py() or 0
            return pa.table({"s": pa.array([int(s)], type=pa.int64())})

        def tot_final(t: pa.Table) -> pa.Table:
            s = pc.sum(t.column("s")).as_py() or 0
            return pa.table({"s": pa.array([int(s)], type=pa.int64())})

        tot_rows = lowcard_combine(v, tot_partial, tot_final).take_all()
        total = int(tot_rows[0]["s"]) if tot_rows else 0

        def sel(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.table({
                    "l_partkey": pa.array([], type=pa.int64()),
                    "value": pa.array([], type=pa.float64())})
            keep = pc.greater(pc.multiply(
                t.column("rev"), pa.scalar(500, type=pa.int64())),
                pa.scalar(total, type=pa.int64()))
            t = t.filter(keep)
            return pa.table({
                "l_partkey": t.column("l_partkey"),
                "value": pc.round(pc.divide(
                    t.column("rev").cast(pa.float64()),
                    pa.scalar(10000.0)), 2,
                    round_mode="half_towards_infinity")})

        def order(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return sel(t)
            return t.sort_by([("value", "descending"),
                              ("l_partkey", "ascending")])

        return _small_table(lowcard_combine(v, sel, order),
                       [("l_partkey", pa.int64()),
                        ("value", pa.float64())])

    def q16_supplier_cnt(sf_dir):
        """TPC-H Q16 shape (adapted — the 'complaints' exclusion is
        negative account balance): distinct supplier count per
        (brand, type, size) over parts actually supplied.  Distinct
        (brand, type, size, supplier) tuples come out of the bucketed
        path (dedup before counting, so no count-distinct shuffle);
        the final count per bounded (brand, type, size) domain is a
        lowcard combine."""
        import numpy as np
        import pyarrow.parquet as pq
        import ray as _ray

        from ie_ray.stages.relational import bucketed_aggregate

        part = pq.read_table(
            os.path.join(sf_dir, "part.parquet"),
            columns=["p_partkey", "p_brand", "p_type", "p_size"])
        pk = np.asarray(part.column("p_partkey"), dtype=np.int64)
        brv = np.asarray(part.column("p_brand"), dtype=object)
        tyv = np.asarray(part.column("p_type"), dtype=object)
        szv = np.asarray(part.column("p_size"), dtype=np.int64)
        brand = KeyLookup(pk, brv, default="")
        ptype = KeyLookup(pk, tyv, default="")
        psize = KeyLookup(pk, szv, default=0)
        part_ok = KeyLookup(pk, (brv != "Brand#1") & (tyv != "PROMO") &
                            np.isin(szv, [1, 4, 9, 16, 25, 36, 49]),
                            default=False)
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_acctbal"])
        sk = np.asarray(sup.column("s_suppkey"), dtype=np.int64)
        sup_ok = KeyLookup(sk, np.asarray(
            sup.column("s_acctbal"), dtype=np.float64) >= 0.0,
            default=False)
        dims_ref = _ray.put((part_ok, brand, ptype, psize, sup_ok))

        def li_prep(t: pa.Table) -> pa.Table:
            pok, br, ty, sz, sok = _ray.get(dims_ref)
            lpk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            lsk = np.asarray(t.column("l_suppkey").cast(pa.int64()))
            keep = pok.take(lpk) & sok.take(lsk)
            lpk, lsk = lpk[keep], lsk[keep]
            part_t = pa.table({
                "p_brand": pa.array(br.take(lpk), type=pa.string()),
                "p_type": pa.array(ty.take(lpk), type=pa.string()),
                "p_size": pa.array(sz.take(lpk), type=pa.int64()),
                "s_suppkey": pa.array(lsk, type=pa.int64()),
                "one": pa.array(np.ones(len(lpk), dtype=np.int64))})
            return part_t.group_by(
                ["p_brand", "p_type", "p_size", "s_suppkey"]).aggregate(
                [("one", "min")]).rename_columns(
                ["p_brand", "p_type", "p_size", "s_suppkey", "one"])

        tuples = bucketed_aggregate(
            _tbl(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
            .map_batches(li_prep, batch_format="pyarrow"),
            ["p_brand", "p_type", "p_size", "s_suppkey"],
            [("one", "min")])

        def partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.table({
                    "p_brand": pa.array([], type=pa.string()),
                    "p_type": pa.array([], type=pa.string()),
                    "p_size": pa.array([], type=pa.int64()),
                    "supplier_cnt": pa.array([], type=pa.int64())})
            n = pa.table({
                "p_brand": t.column("p_brand"),
                "p_type": t.column("p_type"),
                "p_size": t.column("p_size"),
                "supplier_cnt": pa.array(
                    np.ones(len(t), dtype=np.int64))})
            return n.group_by(
                ["p_brand", "p_type", "p_size"]).aggregate(
                [("supplier_cnt", "sum")]).rename_columns(
                ["p_brand", "p_type", "p_size", "supplier_cnt"])

        def final(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return partial(t)
            g = t.group_by(
                ["p_brand", "p_type", "p_size"]).aggregate(
                [("supplier_cnt", "sum")]).rename_columns(
                ["p_brand", "p_type", "p_size", "supplier_cnt"])
            return g.sort_by([("supplier_cnt", "descending"),
                              ("p_brand", "ascending"),
                              ("p_type", "ascending"),
                              ("p_size", "ascending")])

        return _small_table(lowcard_combine(tuples, partial, final),
                       [("p_brand", pa.string()),
                        ("p_type", pa.string()),
                        ("p_size", pa.int64()),
                        ("supplier_cnt", pa.int64())])

    def q20_excess_suppliers(sf_dir):
        """TPC-H Q20 shape (adapted — no partsupp availqty, so 'excess'
        means the supplier shipped more than half a part's 1999
        volume): suppliers in NATION_3/NATION_4 dominating any
        'small%' part.  Per-(part, supplier) and per-part volumes both
        reduce through the bucketed path; the dominance test joins the
        part totals back broadcast and cross-multiplies exact int64
        quantities."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray

        from ie_ray.stages.relational import adaptive_join, \
            bucketed_aggregate

        part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                             columns=["p_partkey", "p_name"])
        pk = np.asarray(part.column("p_partkey"), dtype=np.int64)
        part_ok = KeyLookup(pk, np.char.startswith(np.asarray(
            part.column("p_name"), dtype=str), "small"), default=False)
        nname = _nation_names(sf_dir)
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_name",
                                     "s_nationkey"])
        sk = np.asarray(sup.column("s_suppkey"), dtype=np.int64)
        sname = KeyLookup(sk, np.asarray(sup.column("s_name"),
                                         dtype=object), default="")
        snat = KeyLookup(sk, np.asarray(
            [nname[k] for k in sup.column("s_nationkey").to_pylist()],
            dtype=object), default="")
        dims_ref = _ray.put((part_ok, sname, snat))
        lo = pa.scalar(datetime.datetime(1999, 1, 1))
        hi = pa.scalar(datetime.datetime(2000, 1, 1))

        def li_prep(t: pa.Table) -> pa.Table:
            pok, _, _ = _ray.get(dims_ref)
            t = t.filter(pc.and_(
                pc.greater_equal(t.column("l_shipdate"), lo),
                pc.less(t.column("l_shipdate"), hi)))
            lpk = np.asarray(t.column("l_partkey").cast(pa.int64()))
            keep = pok.take(lpk)
            q = np.round(np.asarray(t.column("l_quantity"),
                                    dtype=np.float64)).astype(np.int64)
            part_t = pa.table({
                "l_partkey": pa.array(lpk[keep], type=pa.int64()),
                "l_suppkey":
                    t.column("l_suppkey").cast(pa.int64()).filter(
                        pa.array(keep)),
                "q": pa.array(q[keep], type=pa.int64())})
            return part_t.group_by(
                ["l_partkey", "l_suppkey"]).aggregate(
                [("q", "sum")]).rename_columns(
                ["l_partkey", "l_suppkey", "q"])

        sq = bucketed_aggregate(
            _tbl(sf_dir, "lineitem",
                 columns=["l_partkey", "l_suppkey", "l_quantity",
                          "l_shipdate"])
            .map_batches(li_prep, batch_format="pyarrow"),
            ["l_partkey", "l_suppkey"], [("q", "sum")]) \
            .map_batches(lambda t: t.rename_columns(
                ["l_partkey", "l_suppkey", "q"]),
                batch_format="pyarrow") \
            .materialize()  # bounded: (small-part, supplier) pairs;
        # consumed twice (part totals + dominance probe)
        pq_tot = bucketed_aggregate(sq, "l_partkey", [("q", "sum")]) \
            .map_batches(lambda t: t.rename_columns(
                ["l_partkey", "tq"]), batch_format="pyarrow")
        joined = adaptive_join(sq, pq_tot, "l_partkey")

        def winners(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.table({
                    "s_name": pa.array([], type=pa.string()),
                    "n_name": pa.array([], type=pa.string())})
            _, sn, nn, = _ray.get(dims_ref)
            dom = np.asarray(t.column("q")) * 2 > \
                np.asarray(t.column("tq"))
            lsk = np.asarray(t.column("l_suppkey"))[dom]
            nat = nn.take(lsk)
            keep = (nat == "NATION_3") | (nat == "NATION_4")
            lsk = lsk[keep]
            out = pa.table({
                "s_name": pa.array(sn.take(lsk), type=pa.string()),
                "n_name": pa.array(nat[keep], type=pa.string())})
            return out.group_by(["s_name", "n_name"]).aggregate(
                []).rename_columns(["s_name", "n_name"])

        def final(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return winners(t)
            g = t.group_by(["s_name", "n_name"]).aggregate(
                []).rename_columns(["s_name", "n_name"])
            return g.sort_by([("s_name", "ascending")])

        return _small_table(lowcard_combine(joined, winners, final),
                       [("s_name", pa.string()),
                        ("n_name", pa.string())])

    def q21_waiting_suppliers(sf_dir):
        """TPC-H Q21 shape (adapted — no receipt/commit dates, 'late'
        means shipped >60 days after the order date): per supplier in
        NATION_1/NATION_2, the count of finished multi-supplier orders
        where it was the ONLY late supplier.  The per-order exists /
        not-exists pair collapses to one vectorized polars kernel per
        complete order bucket; the per-supplier count is bucketed; the
        name/nation decoration is a broadcast dense lookup."""
        import datetime

        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray as _ray

        from ie_ray.stages.dedup import _join_partitions
        from ie_ray.stages.relational import bucketed_aggregate, \
            bucketed_map_groups

        nname = _nation_names(sf_dir)
        sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                            columns=["s_suppkey", "s_name",
                                     "s_nationkey"])
        sk = np.asarray(sup.column("s_suppkey"), dtype=np.int64)
        sname = KeyLookup(sk, np.asarray(sup.column("s_name"),
                                         dtype=object), default="")
        snat = KeyLookup(sk, np.asarray(
            [nname[k] for k in sup.column("s_nationkey").to_pylist()],
            dtype=object), default="")
        dims_ref = _ray.put((sname, snat))
        grace_us = 60 * 86400 * 1_000_000

        def li_prep(t: pa.Table) -> pa.Table:
            # block-local (order, supplier) max-shipdate pre-combine:
            # a supplier is late iff its MAX ship date is late, and
            # the partial row holding the pair's true max carries the
            # true flag downstream — under-flagged non-argmax partials
            # only duplicate (order, supplier) rows, which the
            # per-order n_unique/max kernel is insensitive to.  Shrinks
            # the join and the per-order kernel input.
            part = pa.table({
                "l_orderkey": t.column("l_orderkey").cast(pa.int64()),
                "l_suppkey": t.column("l_suppkey").cast(pa.int64()),
                "ship_us": t.column("l_shipdate").cast(
                    pa.timestamp("us")).cast(pa.int64())})
            return part.group_by(
                ["l_orderkey", "l_suppkey"]).aggregate(
                [("ship_us", "max")]).rename_columns(
                ["l_orderkey", "l_suppkey", "ship_us"])

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_shipdate"]) \
            .map_batches(li_prep, batch_format="pyarrow")
        orders = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_orderstatus",
                               "o_orderdate"]) \
            .map_batches(lambda t: (lambda f: pa.table({
                "o_orderkey": f.column("o_orderkey").cast(pa.int64()),
                "ord_us": f.column("o_orderdate").cast(
                    pa.timestamp("us")).cast(pa.int64())}))(
                t.filter(pc.equal(t.column("o_orderstatus"), "F"))),
                batch_format="pyarrow")
        joined = li.join(orders, "inner",
                         num_partitions=_join_partitions(),
                         on=("l_orderkey",), right_on=("o_orderkey",))

        def flag(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return pa.table({
                    "l_orderkey": pa.array([], type=pa.int64()),
                    "l_suppkey": pa.array([], type=pa.int64()),
                    "late": pa.array([], type=pa.bool_())})
            return pa.table({
                "l_orderkey": t.column("l_orderkey"),
                "l_suppkey": t.column("l_suppkey"),
                "late": pc.greater(
                    t.column("ship_us"),
                    pc.add(t.column("ord_us"),
                           pa.scalar(grace_us, type=pa.int64())))})

        flagged = joined.map_batches(flag, batch_format="pyarrow")

        def per_order(g: pa.Table) -> pa.Table:
            import polars as pl
            if g.num_rows == 0:
                return pa.table({"late_supp": pa.array([],
                                                       type=pa.int64()),
                                 "one": pa.array([], type=pa.int64())})
            agg = pl.from_arrow(g).group_by("l_orderkey").agg(
                pl.col("l_suppkey").n_unique().alias("nsupp"),
                pl.col("l_suppkey").filter(pl.col("late"))
                  .n_unique().alias("nlate"),
                pl.col("l_suppkey").filter(pl.col("late"))
                  .max().alias("late_supp"))
            hit = agg.filter((pl.col("nsupp") > 1)
                             & (pl.col("nlate") == 1))
            out = hit.select("late_supp").to_arrow()
            return pa.table({
                "late_supp": out.column("late_supp").cast(pa.int64()),
                "one": pa.array(np.ones(len(out), dtype=np.int64))})

        solo_late = bucketed_map_groups(flagged, "l_orderkey",
                                        per_order)
        counts = bucketed_aggregate(solo_late, "late_supp",
                                    [("one", "sum")]) \
            .map_batches(lambda t: t.rename_columns(
                ["late_supp", "numwait"]), batch_format="pyarrow")

        def decorate(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.table({
                    "s_name": pa.array([], type=pa.string()),
                    "numwait": pa.array([], type=pa.int64())})
            sn, nn = _ray.get(dims_ref)
            lsk = np.asarray(t.column("late_supp"))
            nat = nn.take(lsk)
            keep = (nat == "NATION_1") | (nat == "NATION_2")
            return pa.table({
                "s_name": pa.array(sn.take(lsk)[keep],
                                   type=pa.string()),
                "numwait": t.column("numwait").filter(pa.array(keep))})

        def final(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return decorate(t)
            g = t.group_by("s_name").aggregate(
                [("numwait", "sum")]).rename_columns(
                ["s_name", "numwait"])
            return g.sort_by([("numwait", "descending"),
                              ("s_name", "ascending")])

        return _small_table(lowcard_combine(counts, decorate, final),
                       [("s_name", pa.string()),
                        ("numwait", pa.int64())])

    def gopher_filter_docs(sf_dir):
        """Gopher-style document quality rules (Rae et al. 2021, public):
        word-count band, mean-word-length band, stopword floor, top-word
        repetition ceiling.  Pure per-doc map — no shuffle, vectorized
        in polars (explode + two group_bys, Rust kernels — no Python
        row loop); all ratios are exact integer ratios in float64, so
        the SQL oracle is value-exact with no fp-association risk."""

        def rules(t: pa.Table) -> pa.Table:
            import polars as pl
            import pyarrow.compute as pc
            df = pl.from_arrow(t.select(["doc_id", "text"]))
            e = (df.with_columns(pl.col("text").str.split(" ").alias("w"))
                   .drop("text").explode("w"))
            per = e.group_by("doc_id").agg(
                pl.len().alias("n_words"),
                pl.col("w").str.len_chars().sum().alias("sum_len"),
                pl.col("w").is_in(["a", "the"]).sum().alias("n_stop"))
            top = (e.group_by(["doc_id", "w"]).len().group_by("doc_id")
                    .agg(pl.col("len").max().alias("top_count")))
            j = (per.join(top, on="doc_id").with_columns(
                (pl.col("sum_len").cast(pl.Float64)
                 / pl.col("n_words")).alias("mean_wlen"),
                (pl.col("n_stop").cast(pl.Float64)
                 / pl.col("n_words")).alias("stop_frac"),
                (pl.col("top_count").cast(pl.Float64)
                 / pl.col("n_words")).alias("top_frac"))
                .filter((pl.col("n_words") >= 40)
                        & (pl.col("n_words") <= 90)
                        & (pl.col("mean_wlen") >= 4.0)
                        & (pl.col("mean_wlen") <= 5.0)
                        & (pl.col("stop_frac") >= 0.03)
                        & (pl.col("top_frac") <= 0.2))
                .sort("doc_id"))
            out = j.select(["doc_id", "n_words", "mean_wlen",
                            "stop_frac", "top_frac"]).to_arrow()
            r4 = lambda col: pc.round(
                out.column(col).cast(pa.float64()), 4,
                round_mode="half_towards_infinity")
            return pa.table({
                "doc_id": out.column("doc_id").cast(pa.int64()),
                "n_words": out.column("n_words").cast(pa.int64()),
                "mean_wlen": r4("mean_wlen"),
                "stop_frac": r4("stop_frac"),
                "top_frac": r4("top_frac")})

        return _docs(sf_dir).map_batches(rules, batch_format="pyarrow")

    def docs_zipf_slope(sf_dir):
        """Per-language Zipf slope: regression of ln(word frequency) on
        ln(frequency rank).  Word counts are block partials summed by one
        vocab-bounded groupby; the per-language rank+slope group is
        vocab-sized, never corpus-sized."""
        import numpy as np

        def partials(t: pa.Table) -> pa.Table:
            import polars as pl
            df = pl.from_arrow(t.select(["lang", "text"]))
            c = (df.with_columns(pl.col("text").str.split(" ").alias("w"))
                   .drop("text").explode("w")
                   .filter(pl.col("w") != "")
                   .group_by(["lang", "w"]).len())
            out = c.to_arrow()
            return pa.table({
                "lang": out.column("lang").cast(pa.string()),
                "word": out.column("w").cast(pa.string()),
                "n": out.column("len").cast(pa.int64())})

        from ie_ray.stages.relational import bucketed_aggregate
        counts = bucketed_aggregate(
            _docs(sf_dir).map_batches(partials, batch_format="pyarrow"),
            ["lang", "word"], [("n", "sum")], parts=16)

        def slope(g: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            f = np.asarray(g.column("n_sum"), dtype=np.float64)
            w = np.asarray(g.column("word").to_pylist(), dtype=object)
            order = np.lexsort((w, -f))
            y = np.log(f[order])
            x = np.log(np.arange(1, len(f) + 1, dtype=np.float64))
            sl = ((x * y).mean() - x.mean() * y.mean()) / \
                ((x * x).mean() - x.mean() ** 2)
            return pa.table({
                "lang": g.slice(0, 1).column("lang"),
                "n_types": pa.array([len(f)], type=pa.int64()),
                "zipf_slope": pc.round(
                    pa.array([sl], type=pa.float64()), 4,
                    round_mode="half_towards_infinity")})

        return counts.groupby("lang").map_groups(slope,
                                                 batch_format="pyarrow")

    def events_markov_transitions(sf_dir):
        """Per-user event-type transition counts (the Markov-chain view of
        a clickstream).  Per-user groups sort locally (np.lexsort on
        (ts, event_id)); the global (prev, next) aggregate is
        type²-bounded."""
        import numpy as np

        ev = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id", "event_type"])

        def bucket_trans(g: pa.Table) -> pa.Table:
            # vectorized bigram count for every user in the bucket:
            # lexsort by (user, ts, id), drop cross-user adjacencies,
            # dictionary-encode types, pack pairs into ints, bincount
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            ts = np.asarray(g.column("ts").cast(pa.int64()))
            eid = np.asarray(g.column("event_id"))
            order = np.lexsort((eid, ts, uid))
            u = uid[order]
            et = np.asarray(g.column("event_type").to_pylist(),
                            dtype=object)[order]
            if len(et) < 2:
                return pa.table({
                    "prev_type": pa.array([], type=pa.string()),
                    "next_type": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64())})
            same = u[1:] == u[:-1]
            ut, inv = np.unique(et, return_inverse=True)
            k = len(ut)
            packed = (inv[:-1] * k + inv[1:])[same]
            counts = np.bincount(packed, minlength=k * k)
            nz = np.nonzero(counts)[0]
            return pa.table({
                "prev_type": pa.array(ut[nz // k], type=pa.string()),
                "next_type": pa.array(ut[nz % k], type=pa.string()),
                "n": pa.array(counts[nz], type=pa.int64())})

        from ie_ray.stages.relational import bucketed_map_groups
        return bucketed_map_groups(ev, "user_id", bucket_trans) \
            .groupby(["prev_type", "next_type"]).sum("n") \
            .map_batches(lambda t: pa.table({
                "prev_type": t.column("prev_type"),
                "next_type": t.column("next_type"),
                "n": t.column("sum(n)").cast(pa.int64())}),
                batch_format="pyarrow")

    def events_anomaly_iqr(sf_dir):
        """Per-type Tukey-fence outlier counts (1.5×IQR beyond the exact
        q1/q3).  Same per-key-group contract as events_value_quantiles;
        the 100 TB path for high-cardinality keys is the histogram
        refinement in relational.global_quantiles."""
        import numpy as np

        ev = _tbl(sf_dir, "events", columns=["event_type", "value"])

        def fence(g: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            v = np.asarray(g.column("value"), dtype=np.float64)
            q1, q3 = np.percentile(v, [25, 75])
            lo = q1 - 1.5 * (q3 - q1)
            hi = q3 + 1.5 * (q3 - q1)
            n_out = int(((v < lo) | (v > hi)).sum())
            r4 = lambda x: pc.round(pa.array([x], type=pa.float64()), 4,
                                    round_mode="half_towards_infinity")
            return pa.table({
                "event_type": g.slice(0, 1).column("event_type"),
                "n_outliers": pa.array([n_out], type=pa.int64()),
                "fence_lo": r4(lo), "fence_hi": r4(hi)})

        return ev.groupby("event_type").map_groups(fence,
                                                   batch_format="pyarrow")

    def embedding_norm_stats(sf_dir):
        """Per-label L2-norm statistics over the embedding column — block
        partials (sum, max, count per label) then one label-bounded
        combine."""
        import numpy as np

        emb = _tbl(sf_dir, "embeddings", blocks=8)

        def partials(b: pa.Table) -> pa.Table:
            m = np.asarray(b.column("embedding").to_pylist(),
                           dtype=np.float64)
            norms = np.sqrt((m * m).sum(axis=1))
            labels = np.asarray(b.column("label").to_pylist())
            out_l, out_s, out_m, out_n = [], [], [], []
            for lab in np.unique(labels):
                sel = norms[labels == lab]
                out_l.append(int(lab))
                out_s.append(float(sel.sum()))
                out_m.append(float(sel.max()))
                out_n.append(len(sel))
            return pa.table({
                "label": pa.array(out_l, type=pa.int32()),
                "s": pa.array(out_s, type=pa.float64()),
                "mx": pa.array(out_m, type=pa.float64()),
                "n": pa.array(out_n, type=pa.int64())})

        def finish(g: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            s = float(pc.sum(g.column("s")).as_py())
            n = int(pc.sum(g.column("n")).as_py())
            mx = float(pc.max(g.column("mx")).as_py())
            r4 = lambda x: pc.round(pa.array([x], type=pa.float64()), 4,
                                    round_mode="half_towards_infinity")
            return pa.table({
                "label": g.slice(0, 1).column("label"),
                "n": pa.array([n], type=pa.int64()),
                "avg_norm": r4(s / n), "max_norm": r4(mx)})

        return emb.map_batches(partials, batch_format="pyarrow") \
            .groupby("label").map_groups(finish, batch_format="pyarrow")

    def minhash_cluster_sizes(sf_dir):
        """Duplicate-cluster size histogram from the near-dup keep flow:
        verified pair edges → distributed connected components → component
        sizes → (cluster_size, n_clusters).  All groupbys are
        cluster-bounded."""
        from ie_ray.stages.relational import bucketed_aggregate
        labels = dedup.dup_clusters(dedup.ngram_jaccard_pairs(_docs(sf_dir)),
                                    "doc_a", "doc_b")
        # component is a rows-sized key domain at web scale (one per dup
        # cluster) — count through the bucketed path
        sizes = bucketed_aggregate(labels, "component",
                                   [("node", "count")], parts=16)
        hist = sizes.map_batches(
            lambda t: pa.table({
                "cluster_size": t.column("node_count").cast(pa.int64())}),
            batch_format="pyarrow").groupby("cluster_size").count()
        return hist.map_batches(
            lambda t: pa.table({
                "cluster_size": t.column("cluster_size"),
                "n_clusters": t.column("count()").cast(pa.int64())}),
            batch_format="pyarrow")

    def embedding_covariance(sf_dir):
        """Population covariance entries for the first 8 embedding dims —
        the SQL-verifiable face of the one-pass moment-matrix reduction
        that also powers fit_pca (stages/pca.py)."""
        from ie_ray.stages.pca import covariance_rows
        return covariance_rows(_tbl(sf_dir, "embeddings", blocks=8),
                               dims=8)

    def docs_bpe_encode(sf_dir):
        """Full BPE tokenize flow: distributed word counts → driver-side
        merge training on the O(vocab) table (Sennrich 2016) → merge
        list broadcast into an actor pool (ranks + per-distinct-word
        memo built once per actor).  No SQL oracle (iterative merges);
        gated by the sequential-merge twin in tests/test_bpe_encode.py."""
        from ie_ray.stages.tokenizer import bpe_encode_counts
        return bpe_encode_counts(_docs(sf_dir), n_merges=30)

    def word_kcore(sf_dir):
        """5-core of the co-occurrence graph via distributed iterative
        peeling (degree groupby + survivor semi-filter per round, edge
        set only shrinks).  No SQL oracle (iterative fixpoint — DuckDB
        recursive CTEs forbid aggregates in the recursive term); gated by
        the brute-force twin in tests/test_cooccur_substring.py."""
        from ie_ray.stages.cooccur import cooccur_edges, k_core
        return k_core(cooccur_edges(_docs(sf_dir), df_min=60), k=5)

    def embedding_pca_project(sf_dir):
        """Distributed PCA: block moment partials → driver d×d eigh →
        broadcast top-2 projection.  No SQL oracle (eigendecomposition);
        gated by tests/test_pca.py NumPy twins."""
        from ie_ray.stages.pca import fit_pca, project
        emb = _tbl(sf_dir, "embeddings", blocks=8)
        comps, _, mean = fit_pca(emb, k=2)
        return project(emb, comps, mean)

    def semdedup_keep(sf_dir):
        """SemDeDup (Abbas et al. 2023): k-means in embedding space,
        then greedy near-duplicate pruning WITHIN each cluster (cosine
        ≥ τ to an already-kept row ⇒ drop; keep-farthest-from-centroid
        order).  No SQL oracle (iterative Lloyd rounds); gated by the
        distributed-vs-NumPy-twin identity and planted-duplicate tests
        in tests/test_semdedup.py."""
        from ie_ray.stages.semdedup import semdedup
        emb = _tbl(sf_dir, "embeddings", blocks=8)
        return semdedup(emb, k=8, iters=3, tau=0.9)

    def docs_dsir_scores_hashed(sf_dir):
        """Hashed-bucket DSIR (the open-web-scale variant of
        docs_dsir_scores: fixed 2^k feature table, crc32 bigram
        hashing).  No SQL oracle (crc32); gated by
        tests/test_dsir_hashed.py — determinism, planted separation,
        and rank agreement with the exact-word oracle variant."""
        from ie_ray.stages.retrieval import dsir_scores_hashed
        return dsir_scores_hashed(_docs(sf_dir), target_lang="en")

    def docs_bigram_logprob_hashed(sf_dir):
        """Hashed-bucket bigram-LM perplexity score (the open-web
        scale variant of docs_bigram_logprob: fixed bucket tables for
        gram and left-word counts, crc32 hashing, O(n_buckets)
        exchange + broadcast).  No SQL oracle (crc32); gated by
        tests/test_bigram_logprob.py — determinism, short-doc
        exclusion parity, rank agreement with the exact variant."""
        from ie_ray.stages.retrieval import bigram_logprob_hashed
        return bigram_logprob_hashed(_docs(sf_dir))

    def docs_split_assign(sf_dir):
        """Deterministic train/val/test assignment by content hash
        (80/10/10) — the reproducible split every training pipeline
        needs: no RNG state, no coordination, stable across reruns and
        cluster sizes.  Pure map, same md5 convention as
        docs_sample_10pct."""
        import hashlib

        def assign(b: pa.Table) -> pa.Table:
            splits = []
            for t in b.column("text").to_pylist():
                h = int.from_bytes(
                    hashlib.md5(t.encode("utf-8")).digest()[:4],
                    "big") % 10
                splits.append("train" if h < 8 else
                              "val" if h == 8 else "test")
            return pa.table({
                "doc_id": b.column("doc_id"),
                "split": pa.array(splits, type=pa.string())})

        return _docs(sf_dir).map_batches(assign, batch_format="pyarrow")

    def events_watermark_hourly(sf_dir):
        """Allowed-lateness windowed aggregate (Flink/Beam semantics
        with a perfect watermark): each hourly event-time window closes
        at window_end + 5 min; an event ARRIVING after the close is
        excluded from the window's on-time aggregate and surfaced in a
        late count instead of silently dropped.  Arrival time is the
        deterministic ingest-delay model ``ts + (event_id mod 13)
        minutes`` (the table itself is ingest-ordered, so lateness is
        synthesized reproducibly).  Close is per-ROW decidable —
        ``arrival > window_end + lateness`` — so the whole operator is
        one vectorized map + a bounded per-window combine: no global
        arrival order, no stateful stream replay.  Money sums are
        exact int64 cents."""
        import numpy as np
        import pyarrow.compute as pc

        late_us = 65 * 60 * 1_000_000  # window length + 5 min lateness

        def partial(t: pa.Table) -> pa.Table:
            ts = t.column("ts").cast(pa.timestamp("us"))
            hour = pc.floor_temporal(ts, unit="hour")
            ts_us = np.asarray(ts.cast(pa.int64()))
            hour_us = np.asarray(hour.cast(pa.int64()))
            delay_us = (np.asarray(t.column("event_id")
                                   .cast(pa.int64())) % 13) \
                * 60_000_000
            late = ts_us + delay_us > hour_us + late_us
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            part = pa.table({
                "window": pc.strftime(hour,
                                      format="%Y-%m-%d %H:00:00"),
                "n_on_time": pa.array((~late).astype(np.int64)),
                "n_late": pa.array(late.astype(np.int64)),
                "cents": pa.array(np.where(late, 0, cents),
                                  type=pa.int64())})
            return part.group_by("window").aggregate(
                [("n_on_time", "sum"), ("n_late", "sum"),
                 ("cents", "sum")]).rename_columns(
                ["window", "n_on_time", "n_late", "cents"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("window").aggregate(
                [("n_on_time", "sum"), ("n_late", "sum"),
                 ("cents", "sum")]).rename_columns(
                ["window", "n_on_time", "n_late", "cents"])

        def final(t: pa.Table) -> pa.Table:
            g = combine(t).sort_by("window")
            return pa.table({
                "window": g.column("window"),
                "n_on_time": g.column("n_on_time"),
                "n_late": g.column("n_late"),
                "sum_value_on_time": pc.round(pc.divide(
                    g.column("cents").cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity")})

        ds = _tbl(sf_dir, "events",
                  columns=["ts", "event_id", "value"]) \
            .map_batches(partial, batch_format="pyarrow")
        return lowcard_combine(ds, combine, final,
                               combine_fn=combine)

    def docs_dsir_scores(sf_dir):
        """DSIR importance scores (Xie et al. 2023): log p_target −
        log p_raw per document under add-1 unigram LMs, target =
        lang='en'.  See ie_ray/stages/retrieval.py::dsir_scores for
        the distribution shape (vocab-bounded broadcast, block-local
        scoring)."""
        from ie_ray.stages.retrieval import dsir_scores
        return dsir_scores(_docs(sf_dir), target_lang="en")

    def docs_bigram_logprob(sf_dir):
        """CCNet-style perplexity quality score (Wenzek et al. 2020):
        per-doc add-1-smoothed bigram-LM log-probability under a
        corpus-trained LM.  See
        ie_ray/stages/retrieval.py::bigram_logprob for the shape
        (block-local gram tf, ONE bigram-vocab exchange, broadcast
        log-prob table, partial + bucketed doc_id combine); the
        open-web scale path is the hashed-bucket recipe of
        dsir_scores_hashed."""
        from ie_ray.stages.retrieval import bigram_logprob
        return bigram_logprob(_docs(sf_dir))

    def docs_pii_scrub(sf_dir):
        """Rule-based PII redaction (emails/SSNs/phones/IPs; C4 /
        RefinedWeb-style cleaning): per-doc match counts + the
        redacted text, byte-identical across engines (RE2 both
        sides).  Pure stateless RE2-in-C++ map — no shuffle.  The
        synthetic corpus is digit-free, so this oracle row proves
        engine equivalence on clean text; tests/test_pii.py plants
        real PII and is the behavioral gate."""
        from ie_ray.stages.pii import pii_scrub
        return pii_scrub(_docs(sf_dir))

    def events_hourly_distinct_users(sf_dir):
        """Distinct users per hour — the classic streaming engagement
        metric as an exact batch re-expression: block-local (hour, user)
        pair dedup → one exchange → per-hour unique
        (relational.distinct_count)."""
        from ie_ray.stages.relational import distinct_count

        def prep(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return pa.table({
                "window": pc.strftime(
                    pc.floor_temporal(t.column("ts"), unit="hour"),
                    format="%Y-%m-%d %H:00:00"),
                "user_id": t.column("user_id").cast(pa.int64())})

        ds = _tbl(sf_dir, "events", columns=["ts", "user_id"]) \
            .map_batches(prep, batch_format="pyarrow")
        agg = distinct_count(ds, "window", "user_id", out="n_users")
        return agg.map_batches(
            lambda t: pa.table({
                "window": t.column("window"),
                "n_users": t.column("n_users").cast(pa.int64())}),
            batch_format="pyarrow")

    # -- round-5 additions (oracle-backed, never driver-checked) -------

    def events_dow_hour_heatmap(sf_dir):
        """Calendar heatmap: event count + exact-cents value sum by
        (day-of-week, hour) — 7×24 bounded keys, lowcard tree-combine.
        DOW convention pinned to DuckDB's dayofweek (Sunday=0) via
        Arrow week_start=7 + count_from_zero."""
        import numpy as np
        import pyarrow.compute as pc
        ds = _tbl(sf_dir, "events", columns=["ts", "value"])

        def partial(t: pa.Table) -> pa.Table:
            dow = pc.day_of_week(t.column("ts"), count_from_zero=True,
                                 week_start=7).cast(pa.int64())
            hr = pc.hour(t.column("ts")).cast(pa.int64())
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({"dow": dow, "hr": hr,
                          "one": pa.array(np.ones(t.num_rows,
                                                  dtype=np.int64)),
                          "cents": pa.array(cents)}) \
                .group_by(["dow", "hr"]).aggregate(
                [("one", "sum"), ("cents", "sum")])
            return g.rename_columns(["dow", "hr", "n", "cents"])

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by(["dow", "hr"]).aggregate(
                [("n", "sum"), ("cents", "sum")])
            return pa.table({
                "dow": g.column("dow"),
                "hr": g.column("hr"),
                "n": g.column("n_sum").cast(pa.int64()),
                "total_value": pc.round(pc.divide(
                    g.column("cents_sum").cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity")})

        return lowcard_combine(ds, partial, final)

    def docs_stopword_ratio(sf_dir):
        """Per-doc stopword ratio over whitespace tokens — rides the
        existing quality kernel's exact integer counts; the only float
        is the final ratio (rounded half-away like DuckDB)."""
        import pyarrow.compute as pc
        from ie_ray.stages import textstats
        scored = _docs(sf_dir).map_batches(textstats.quality_batch,
                                           batch_format="pyarrow")

        def ratio(t: pa.Table) -> pa.Table:
            denom = pc.max_element_wise(
                t.column("n_tokens").cast(pa.float64()), 1.0)
            return pa.table({
                "doc_id": t.column("doc_id"),
                "stop_ratio": pc.round(pc.divide(
                    t.column("n_stopwords").cast(pa.float64()), denom),
                    4, round_mode="half_towards_infinity")})

        return scored.map_batches(ratio, batch_format="pyarrow")

    def docs_ari(sf_dir):
        """Automated Readability Index per document — the readability
        member of the quality-scoring family that is exactly
        SQL-expressible (chars/words/sentences only; no syllable
        heuristic).  All three counts are integer Arrow kernels; the
        single float expression is evaluated with the same
        association and DuckDB's half-away rounding on both engines,
        so parity is bit-exact."""
        import pyarrow.compute as pc

        def ari(t: pa.Table) -> pa.Table:
            text = t.column("text")
            chars = pc.utf8_length(pc.replace_substring_regex(
                text, pattern=r"\s", replacement="")) \
                .cast(pa.float64())
            # DuckDB trim() strips SPACES only — pc.utf8_trim(" "),
            # not utf8_trim_whitespace (which eats \t\n and would
            # change the token count at the string edges)
            words = pc.list_value_length(pc.split_pattern_regex(
                pc.utf8_trim(text, " "), pattern=r"\s+")) \
                .cast(pa.float64())
            sents = pc.max_element_wise(pc.count_substring_regex(
                text, pattern=r"[.!?]+").cast(pa.float64()), 1.0)
            score = pc.subtract(pc.add(
                pc.multiply(pa.scalar(4.71), pc.divide(chars, words)),
                pc.multiply(pa.scalar(0.5), pc.divide(words, sents))),
                pa.scalar(21.43))
            # pc.round(x, 4) can return a DIFFERENT float64 than
            # DuckDB's round (it keeps the input when x·10⁴ is already
            # integral, e.g. 27.735999999999997·10⁴ == 277360.0 —
            # 1 ULP off the oracle).  Replicate DuckDB's algorithm:
            # scale, round to integer, unscale.
            ari4 = pc.divide(pc.round(
                pc.multiply(score, pa.scalar(10_000.0)), 0,
                round_mode="half_towards_infinity"),
                pa.scalar(10_000.0))
            return pa.table({
                "doc_id": t.column("doc_id"),
                "n_chars": chars.cast(pa.int64()),
                "n_words": words.cast(pa.int64()),
                "n_sentences": sents.cast(pa.int64()),
                "ari": ari4})

        return _docs(sf_dir).map_batches(ari, batch_format="pyarrow")

    def customer_nation_top3(sf_dir):
        """Top-3 customers by lifetime order revenue per nation —
        per-group top-k with exact-cents ordering and deterministic
        custkey tie-break.  Customer revenue reduces through the
        bucketed path (rows-sized key); the top-k itself is a bounded
        lowcard combine (≤ 3 rows per nation survive every partial)."""
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        from ie_ray.stages.relational import bucketed_aggregate

        cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_nationkey"])
        nname = _nation_names(sf_dir)
        cnat = KeyLookup(
            np.asarray(cust.column("c_custkey"), dtype=np.int64),
            np.asarray([nname[k] for k in
                        cust.column("c_nationkey").to_pylist()],
                       dtype=object), default="")

        def prep(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("o_totalprice"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            return pa.table({
                "o_custkey": t.column("o_custkey").cast(pa.int64()),
                "cents": pa.array(cents)})

        rev = bucketed_aggregate(
            _tbl(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
            .map_batches(prep, batch_format="pyarrow"),
            "o_custkey", [("cents", "sum")])

        def topk(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or t.num_rows == 0:
                return pa.table({
                    "n_name": pa.array([], type=pa.string()),
                    "c_custkey": pa.array([], type=pa.int64()),
                    "cents": pa.array([], type=pa.int64())})
            t = t.rename_columns(["c_custkey", "cents"]) \
                if t.column_names != ["n_name", "c_custkey", "cents"] \
                else t
            if "n_name" not in t.column_names:
                ck = np.asarray(t.column("c_custkey"), dtype=np.int64)
                t = t.append_column(
                    "n_name", pa.array(cnat.take(ck), type=pa.string()))
            import polars as pl
            df = pl.from_arrow(t.select(["n_name", "c_custkey", "cents"]))
            out = (df.sort(["n_name", "cents", "c_custkey"],
                           descending=[False, True, False])
                   .group_by("n_name", maintain_order=True).head(3)
                   .to_arrow())
            return pa.table({
                "n_name": out.column("n_name").cast(pa.string()),
                "c_custkey": out.column("c_custkey").cast(pa.int64()),
                "cents": out.column("cents").cast(pa.int64())})

        def final(t: pa.Table) -> pa.Table:
            t = topk(t)
            if t.num_rows == 0:
                return pa.table({
                    "n_name": pa.array([], type=pa.string()),
                    "c_custkey": pa.array([], type=pa.int64()),
                    "revenue": pa.array([], type=pa.float64()),
                    "rank": pa.array([], type=pa.int64())})
            import polars as pl
            df = pl.from_arrow(t).sort(
                ["n_name", "cents", "c_custkey"],
                descending=[False, True, False]).with_columns(
                pl.col("c_custkey").cum_count().over("n_name")
                .alias("rank"))
            out = df.to_arrow()
            return pa.table({
                "n_name": out.column("n_name").cast(pa.string()),
                "c_custkey": out.column("c_custkey").cast(pa.int64()),
                "revenue": pc.round(pc.divide(
                    out.column("cents").cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity"),
                "rank": out.column("rank").cast(pa.int64())})

        return lowcard_combine(rev, topk, final, combine_fn=topk)

    def orders_rolling_7d_revenue(sf_dir):
        """Per-day order revenue with a gap-aware rolling 7-day window
        (current day + 6 PRECEDING by DATE, not by row) — the batch
        re-expression of a sliding event-time window.  Day keys are
        bounded by the calendar, so partials tree-combine and the
        rolling pass is one vectorized searchsorted on the final
        (sorted, driver-bounded) day table."""
        import numpy as np
        import pyarrow.compute as pc
        ds = _tbl(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

        def partial(t: pa.Table) -> pa.Table:
            day = pc.floor_temporal(
                t.column("o_orderdate").cast(pa.timestamp("us")),
                unit="day").cast(pa.int64())
            cents = np.round(np.asarray(t.column("o_totalprice"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({"day_us": day, "cents": pa.array(cents)}) \
                .group_by("day_us").aggregate([("cents", "sum")])
            return g.rename_columns(["day_us", "cents"])

        def combine(t: pa.Table) -> pa.Table:
            g = t.group_by("day_us").aggregate([("cents", "sum")])
            return g.rename_columns(["day_us", "cents"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            day_us = np.asarray(t.column("day_us"), dtype=np.int64)
            cents = np.asarray(t.column("cents"), dtype=np.int64)
            order = np.argsort(day_us)
            day_us, cents = day_us[order], cents[order]
            days = day_us // 86_400_000_000
            csum = np.concatenate([[0], np.cumsum(cents)])
            lo = np.searchsorted(days, days - 6, side="left")
            rolling = csum[np.arange(1, len(days) + 1)] - csum[lo]
            day_str = pc.strftime(
                pa.array(day_us, type=pa.int64()).cast(
                    pa.timestamp("us")), format="%Y-%m-%d")
            return pa.table({
                "day": day_str,
                "revenue": pc.round(pc.divide(
                    pa.array(cents, type=pa.int64()).cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity"),
                "rolling7": pc.round(pc.divide(
                    pa.array(rolling).cast(pa.float64()),
                    pa.scalar(100.0)), 2,
                    round_mode="half_towards_infinity")})

        return lowcard_combine(ds, partial, final, combine_fn=combine)

    def doc_keyphrases(sf_dir):
        """RAKE keyphrase extraction (Rose et al. 2010) — top-3
        keyphrases per document.  Candidate phrases are stopword-
        separated islands (gaps-and-islands); word scores deg/freq
        aggregate corpus-wide through a VOCABULARY-bounded exchange,
        then broadcast; phrase scoring + per-doc top-k are fully
        block-local (a doc's text is one row).  Exact integer-ppm
        scores → bit-exact window-function DuckDB oracle.  Lightweight
        sibling of the reference's per-document extraction
        (ie/semantics/ccg.py) for corpora too big to parse fully."""
        from ie_ray.stages.keyphrase import rake_keyphrases
        return rake_keyphrases(_docs(sf_dir), top_k=3) \
            .sort(["doc_id", "rank"])

    def source_kl_divergence(sf_dir):
        """Per-source word-distribution KL divergence vs the corpus —
        the drift/contamination monitor a 100-TB crawl pipeline runs
        per ingest batch (a source going off-distribution shows up as
        a KL spike).  One bucketed (source, word) exchange is the only
        corpus-scale reduce; see stages/textstats.py::source_kl."""
        from ie_ray.stages.textstats import source_kl
        return source_kl(_docs(sf_dir)).sort("source")

    def word_lpa_communities(sf_dir):
        """Community detection over the df>=60 co-occurrence graph:
        5 synchronous rounds of DETERMINISTIC label propagation
        (Raghavan et al. 2007; frequency-desc/label-asc tie-break) —
        unlike connected components, a dense cluster outvotes a bridge
        label, so bridge-joined clusters keep separate communities.
        Per round: one adaptive label join + bucketed (node,label)
        count + bucketed per-node argmax; the fixed schedule unrolls
        into exact SQL, so an ITERATIVE graph algorithm is
        driver-hash-checked (stages/community.py)."""
        from ie_ray.stages.community import lpa_labels
        from ie_ray.stages.cooccur import cooccur_edges
        edges = cooccur_edges(_docs(sf_dir), df_min=60)
        return lpa_labels(edges.select_columns(["w1", "w2"]),
                          rounds=5).sort("node")

    def events_cube(sf_dir):
        """OLAP CUBE over (event_type, day-of-week): count + exact
        cents sum at ALL FOUR grouping levels in ONE pass — each block
        emits tagged partials per level (sentinels 'ALL'/-1, the
        events_rollup idiom extended to the full lattice), one bounded
        lowcard combine.  DOW pinned to DuckDB dayofweek (Sunday=0)."""
        import numpy as np
        import pyarrow.compute as pc
        ds = _tbl(sf_dir, "events", columns=["event_type", "ts", "value"])

        def partial(t: pa.Table) -> pa.Table:
            dow = pc.day_of_week(t.column("ts"), count_from_zero=True,
                                 week_start=7).cast(pa.int64())
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            ones = pa.array(np.ones(t.num_rows, dtype=np.int64))
            base = pa.table({"event_type": t.column("event_type"),
                             "dow": dow, "one": ones,
                             "cents": pa.array(cents)})
            outs = []
            for keys in (["event_type", "dow"], ["event_type"],
                         ["dow"], []):
                if keys:
                    g = base.group_by(keys).aggregate(
                        [("one", "sum"), ("cents", "sum")])
                    et = g.column("event_type") if "event_type" in keys \
                        else pa.array(["ALL"] * g.num_rows)
                    dw = g.column("dow") if "dow" in keys \
                        else pa.array(np.full(g.num_rows, -1),
                                      type=pa.int64())
                    outs.append(pa.table({
                        "event_type": et, "dow": dw,
                        "n": g.column("one_sum"),
                        "cents": g.column("cents_sum")}))
                else:
                    outs.append(pa.table({
                        "event_type": pa.array(["ALL"]),
                        "dow": pa.array([-1], type=pa.int64()),
                        "n": pa.array([t.num_rows], type=pa.int64()),
                        "cents": pa.array([int(cents.sum())],
                                          type=pa.int64())}))
            return pa.concat_tables(outs)

        def finish(t: pa.Table) -> pa.Table:
            g = t.group_by(["event_type", "dow"]).aggregate(
                [("n", "sum"), ("cents", "sum")])
            return pa.table({
                "event_type": g.column("event_type"),
                "dow": g.column("dow"),
                "n": g.column("n_sum").cast(pa.int64()),
                "value_cents": g.column("cents_sum").cast(pa.int64())})

        return lowcard_combine(ds, partial, finish)

    def events_user_entropy(sf_dir):
        """Per-user Shannon entropy of the event-type distribution —
        the behavioral-diversity feature (bots score ~0, explorers
        high).  Block-local (user, type) counts → one bucketed pair
        exchange → per-user vectorized entropy in a complete-bucket
        polars kernel; ln on doubles, 4-dp rounding (logprob-family
        convention)."""
        import numpy as np
        from ie_ray.stages.relational import (bucketed_aggregate,
                                              bucketed_map_groups)
        ds = _tbl(sf_dir, "events", columns=["user_id", "event_type"])

        def partial(t: pa.Table) -> pa.Table:
            g = t.group_by(["user_id", "event_type"]).aggregate(
                [([], "count_all")])
            return g.rename_columns(["user_id", "event_type", "c"])

        pairs = bucketed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["user_id", "event_type"], [("c", "sum")])

        def bucket_entropy(g: pa.Table) -> pa.Table:
            import polars as pl
            df = pl.from_arrow(pa.table({
                "user_id": g.column("user_id"),
                "c": g.column("c_sum").cast(pa.int64())}))
            out = (df.with_columns(
                pl.col("c").sum().over("user_id").alias("n"))
                .with_columns(
                    (-(pl.col("c") / pl.col("n"))
                     * (pl.col("c") / pl.col("n")).log())
                    .alias("term"))
                .group_by("user_id")
                .agg(pl.col("term").sum().alias("entropy"),
                     pl.col("n").first().cast(pl.Int64).alias("n_events"))
            ).to_arrow()
            return pa.table({
                "user_id": out.column("user_id").cast(pa.int64()),
                "entropy": pa.compute.round(
                    out.column("entropy").cast(pa.float64()), 4,
                    round_mode="half_towards_infinity"),
                "n_events": out.column("n_events").cast(pa.int64())})

        return bucketed_map_groups(pairs, "user_id", bucket_entropy) \
            .sort("user_id")

    def events_user_ewma(sf_dir):
        """Recency-weighted per-user value: normalized exponential
        moving average with decay 0.9 over each user's (ts, event_id)
        ordered stream — the classic online feature next to RFM.
        One bucketed exchange on user_id; inside a complete bucket the
        weights, products and sums are one vectorized polars pass over
        the (user, ts, id)-sorted frame; pow/sum on doubles with 4-dp
        rounding (logprob-family convention)."""
        from ie_ray.stages.relational import bucketed_map_groups
        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id", "value"])

        def kernel(g: pa.Table) -> pa.Table:
            import polars as pl
            df = pl.from_arrow(pa.table({
                "user_id": g.column("user_id"),
                "ts": g.column("ts").cast(pa.timestamp("us"))
                .cast(pa.int64()),
                "event_id": g.column("event_id"),
                "value": g.column("value")}))
            out = (df.sort(["user_id", "ts", "event_id"])
                   .with_columns(
                       pl.col("value").cum_count().over("user_id")
                       .cast(pl.Int64).alias("rn"),
                       pl.col("value").count().over("user_id")
                       .cast(pl.Int64).alias("n"))
                   .with_columns(
                       ((pl.col("n") - pl.col("rn")).cast(pl.Float64)
                        .map_batches(lambda s: 0.9 ** s)).alias("w"))
                   .group_by("user_id")
                   .agg((pl.col("w") * pl.col("value")).sum()
                        .alias("num"),
                        pl.col("w").sum().alias("den"))).to_arrow()
            import pyarrow.compute as pc
            return pa.table({
                "user_id": out.column("user_id").cast(pa.int64()),
                "ewma": pc.round(pc.divide(
                    out.column("num").cast(pa.float64()),
                    out.column("den").cast(pa.float64())), 4,
                    round_mode="half_towards_infinity")})

        return bucketed_map_groups(ds, "user_id", kernel).sort("user_id")

    def events_user_streaks(sf_dir):
        """Per-user daily-activity streaks — the gaps-and-islands
        operator: distinct active calendar days collapse into maximal
        runs of consecutive days (longest streak, streak count); see
        ie_ray/stages/temporal.py::islands_per_key for the one-pass
        bucketed kernel."""
        import pyarrow.compute as pc
        from ie_ray.stages.temporal import islands_per_key

        ds = _tbl(sf_dir, "events", columns=["user_id", "ts"])

        def to_day(t: pa.Table) -> pa.Table:
            day = pc.divide(
                t.column("ts").cast(pa.timestamp("us")).cast(pa.int64()),
                86_400_000_000)
            return pa.table({
                "user_id": t.column("user_id").cast(pa.int64()),
                "day": day})

        out = islands_per_key(
            ds.map_batches(to_day, batch_format="pyarrow"),
            "user_id", "day")
        return out.map_batches(
            lambda t: t.rename_columns(
                ["user_id", "n_active_days", "n_streaks", "max_streak"]),
            batch_format="pyarrow")

    def events_user_type_runs(sf_dir):
        """Run-length interval build (SCD-type-2 collapse): per user,
        consecutive events of the same type merge into one validity
        interval — ie_ray/stages/temporal.py::run_length_intervals."""
        from ie_ray.stages.temporal import run_length_intervals

        ds = _tbl(sf_dir, "events",
                  columns=["user_id", "ts", "event_id", "event_type"])
        return run_length_intervals(ds, "user_id", "ts", "event_id",
                                    "event_type")

    def events_value_mad(sf_dir):
        """EXACT distributed median + MAD per event_type via the
        bounded cent-grid histogram: values sit on a 2-decimal grid
        (≤ ~50k distinct cents × 5 types), so each block reduces to
        (type, cents, n) counts and one lowcard tree-combine carries
        the whole distribution — both quantile passes (median, then
        median of |v − med|) read the same histogram in the final
        task; raw rows never shuffle.  Interpolation matches DuckDB's
        continuous quantile on doubles (h = (n−1)/2)."""
        import numpy as np

        ds = _tbl(sf_dir, "events", columns=["event_type", "value"])

        def partial(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({
                "event_type": t.column("event_type"),
                "cents": pa.array(cents),
                "n": pa.array(np.ones(len(cents), dtype=np.int64))}) \
                .group_by(["event_type", "cents"]).aggregate(
                [("n", "sum")])
            return g.rename_columns(["event_type", "cents", "n"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["event_type", "cents"]).aggregate(
                [("n", "sum")]).rename_columns(
                ["event_type", "cents", "n"])

        def hist_median(vals: "np.ndarray", cnt: "np.ndarray") -> float:
            # vals ascending; continuous interpolation at h=(n-1)/2
            n = int(cnt.sum())
            h = (n - 1) / 2.0
            cum = np.cumsum(cnt)
            vlo = float(vals[np.searchsorted(cum, int(np.floor(h)),
                                             side="right")])
            vhi = float(vals[np.searchsorted(cum, int(np.ceil(h)),
                                             side="right")])
            return vlo + (h - np.floor(h)) * (vhi - vlo)

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            et = np.asarray(t.column("event_type").to_pylist(),
                            dtype=object)
            cents = np.asarray(t.column("cents"), dtype=np.int64)
            n = np.asarray(t.column("n"), dtype=np.int64)
            rows = []
            for ty in sorted(set(et.tolist())):   # ≤ |types| iterations
                m = et == ty
                v, c = cents[m], n[m]
                o = np.argsort(v)
                v, c = v[o], c[o]
                med = hist_median(v, c)
                d = np.abs(v - med)
                du, inv = np.unique(d, return_inverse=True)
                dc = np.bincount(inv, weights=c).astype(np.int64)
                mad = hist_median(du, dc)
                rows.append((ty, med / 100.0, mad / 100.0, int(c.sum())))
            return pa.table({
                "event_type": pa.array([r[0] for r in rows]),
                "med": pa.array([_r4(r[1]) for r in rows],
                                type=pa.float64()),
                "mad": pa.array([_r4(r[2]) for r in rows],
                                type=pa.float64()),
                "n": pa.array([r[3] for r in rows], type=pa.int64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def events_benford(sf_dir):
        """Benford leading-digit profile of the value column (fraud /
        data-quality screen): distribution of the first significant
        digit of the exact cent amount vs Benford's law expectation.
        Fraction reported in exact integer basis points (n·10⁴ ÷
        total, integer division on both engines — no float-rounding
        hazard).  Digit extraction is a ≤19-step vectorized divide
        loop, not log10 (whose float error misclassifies exact powers
        of ten)."""
        import numpy as np

        ds = _tbl(sf_dir, "events", columns=["value"])

        def partial(t: pa.Table) -> pa.Table:
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            d = cents[cents >= 1]
            while (d >= 10).any():
                m = d >= 10
                d[m] //= 10
            cnt = np.bincount(d, minlength=10)[1:10]
            return pa.table({
                "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
                "n": pa.array(cnt.astype(np.int64))})

        def final(t: pa.Table) -> pa.Table:
            g = t.group_by("digit").aggregate([("n", "sum")]) \
                .rename_columns(["digit", "n"])
            dig = np.asarray(g.column("digit"), dtype=np.int64)
            n = np.asarray(g.column("n"), dtype=np.int64)
            tot = int(n.sum())
            keep = n > 0
            return pa.table({
                "digit": pa.array(dig[keep]),
                "n": pa.array(n[keep]),
                "frac_bp": pa.array((n[keep] * 10_000) // tot),
                "benford_bp": pa.array(np.round(np.log10(
                    1.0 + 1.0 / dig[keep].astype(np.float64))
                    * 10_000).astype(np.int64))})

        return lowcard_combine(ds, partial, final)

    def events_seasonal_residuals(sf_dir):
        """Seasonal-baseline anomaly detection: the (day-of-week,
        hour) mean is the seasonal profile (168 bounded cells, lowcard
        pass), then every event's residual vs its cell baseline ranks
        a global exact top-20 by |residual| (per-block partial top-20
        → one final reduce).  The residual is carried as the EXACT
        integer numerator ``cents·n_cell − sum_cell`` with its
        denominator, so output hashes are float-free; only the
        ranking key divides — identically on both engines, so order
        parity is bit-exact."""
        import numpy as np
        import pyarrow.compute as pc

        ds = _tbl(sf_dir, "events", columns=["event_id", "ts", "value"])

        def dow_hr_cents(t: pa.Table):
            dow = np.asarray(pc.day_of_week(
                t.column("ts"), count_from_zero=True,
                week_start=7).cast(pa.int64()))
            hr = np.asarray(pc.hour(t.column("ts")).cast(pa.int64()))
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            return dow, hr, cents

        def cell_partial(t: pa.Table) -> pa.Table:
            dow, hr, cents = dow_hr_cents(t)
            g = pa.table({
                "dow": pa.array(dow), "hr": pa.array(hr),
                "s": pa.array(cents),
                "n": pa.array(np.ones(len(cents), dtype=np.int64))}) \
                .group_by(["dow", "hr"]).aggregate(
                [("s", "sum"), ("n", "sum")])
            return g.rename_columns(["dow", "hr", "s", "n"])

        def cell_final(t: pa.Table) -> pa.Table:
            return t.group_by(["dow", "hr"]).aggregate(
                [("s", "sum"), ("n", "sum")]).rename_columns(
                ["dow", "hr", "s", "n"])

        # bounded pull: ≤ 7×24 = 168 baseline rows
        base = lowcard_combine(ds, cell_partial, cell_final).take_all()
        s_arr = np.zeros((7, 24), dtype=np.int64)
        n_arr = np.ones((7, 24), dtype=np.int64)
        for r in base:
            s_arr[r["dow"], r["hr"]] = r["s"]
            n_arr[r["dow"], r["hr"]] = r["n"]

        def top20(t: pa.Table) -> pa.Table:
            dow, hr, cents = dow_hr_cents(t)
            ids = np.asarray(t.column("event_id"), dtype=np.int64)
            cn = n_arr[dow, hr]
            num = cents * cn - s_arr[dow, hr]
            key = np.abs(num.astype(np.float64) / cn)
            o = np.lexsort((ids, -key))[:20]
            return pa.table({
                "event_id": pa.array(ids[o]),
                "dow": pa.array(dow[o]), "hr": pa.array(hr[o]),
                "cents": pa.array(cents[o]),
                "resid_num": pa.array(num[o]),
                "cell_n": pa.array(cn[o])})

        def refine(t: pa.Table) -> pa.Table:
            key = np.abs(np.asarray(t.column("resid_num"))
                         .astype(np.float64)
                         / np.asarray(t.column("cell_n")))
            o = np.lexsort((np.asarray(t.column("event_id")),
                            -key))[:20]
            return t.take(pa.array(o))

        return (ds.map_batches(top20, batch_format="pyarrow")
                .repartition(1)
                .map_batches(refine, batch_format="pyarrow",
                             batch_size=None))

    def lineitem_semi_urgent(sf_dir):
        """Runtime-filter semi-join (the MPP Bloom pushdown): lineitems
        of URGENT-priority orders via a broadcast Bloom prefilter +
        exact verify — ie_ray/stages/bloom.py.  The bitmap is built
        distributed (tree-OR), broadcast once, and drops non-matching
        probe rows before any exchange; the exact key verify kills the
        ≤FPR false-positive tail, so the composition is exact."""
        import pyarrow.compute as pc
        from ie_ray.stages.bloom import bloom_semi_join

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_linenumber"])

        def urgent_keys(t: pa.Table) -> pa.Table:
            m = pc.equal(t.column("o_orderpriority"), "1-URGENT")
            return pa.table({
                "l_orderkey": t.filter(m).column("o_orderkey")
                .cast(pa.int64())})

        urgent = _tbl(sf_dir, "orders",
                      columns=["o_orderkey", "o_orderpriority"]) \
            .map_batches(urgent_keys, batch_format="pyarrow")
        return bloom_semi_join(li, urgent, "l_orderkey")

    def events_cusum_changepoint(sf_dir):
        """Offline CUSUM change-point detection on the hourly value
        series (Page 1954): the hour where the cumulative deviation
        from the global mean peaks.  Hour domain is bounded, so the
        series reduces by one lowcard tree-combine; the final task
        sorts ≤|hours| rows and picks argmax |cum_i·n − i·tot| — the
        deviation carried as its EXACT integer numerator (common
        denominator n cancels in the argmax), so ranking and output
        are float-free.  Int64 bound: |cum·n| ≤ total-cents ×
        n-hours — rescale to whole units before the combine if a
        deployment's product exceeds 2⁶³."""
        import numpy as np

        ds = _tbl(sf_dir, "events", columns=["ts", "value"])

        def partial(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            h = pc.floor_temporal(
                t.column("ts").cast(pa.timestamp("us")), unit="hour") \
                .cast(pa.int64())
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({"h_us": h, "s": pa.array(cents)}) \
                .group_by("h_us").aggregate([("s", "sum")])
            return g.rename_columns(["h_us", "s"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("h_us").aggregate([("s", "sum")]) \
                .rename_columns(["h_us", "s"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            h = np.asarray(t.column("h_us"), dtype=np.int64)
            s = np.asarray(t.column("s"), dtype=np.int64)
            if len(h) == 0:   # empty input: zero rows, like the oracle
                return pa.table({
                    "h_us": pa.array([], type=pa.int64()),
                    "cusum_num": pa.array([], type=pa.int64()),
                    "n_hours": pa.array([], type=pa.int64())})
            o = np.argsort(h)
            h, s = h[o], s[o]
            n = len(h)
            cum = np.cumsum(s)
            i = np.arange(1, n + 1, dtype=np.int64)
            num = cum * n - i * cum[-1]
            best = int(np.lexsort((h, -np.abs(num)))[0])
            return pa.table({
                "h_us": pa.array([h[best]], type=pa.int64()),
                "cusum_num": pa.array([num[best]], type=pa.int64()),
                "n_hours": pa.array([n], type=pa.int64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def events_hourly_acf(sf_dir):
        """Autocorrelation function of the hourly value series at lags
        1–24 (seasonality diagnostic: a daily cycle shows as a lag-24
        peak).  The hour domain is bounded, so the series reduces by
        one lowcard tree-combine and the whole ACF is one vectorized
        final-task pass; pair semantics match the SQL lag join (only
        hours where BOTH h and h+k exist pair up — calendar gaps drop,
        no zero-filling), with Pearson r computed by the same
        two-pass formula and rounded 4 dp."""
        import numpy as np

        ds = _tbl(sf_dir, "events", columns=["ts", "value"])

        def partial(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            h = pc.floor_temporal(
                t.column("ts").cast(pa.timestamp("us")), unit="hour") \
                .cast(pa.int64())
            cents = np.round(np.asarray(t.column("value"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({"h": h, "s": pa.array(cents)}) \
                .group_by("h").aggregate([("s", "sum")])
            return g.rename_columns(["h", "s"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("h").aggregate([("s", "sum")]) \
                .rename_columns(["h", "s"])

        HOUR = 3_600_000_000

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            h = np.asarray(t.column("h"), dtype=np.int64)
            s = np.asarray(t.column("s"), dtype=np.float64)
            o = np.argsort(h)
            h, s = h[o], s[o]
            lags, rs, ns = [], [], []
            for k in range(1, 25):
                idx = np.searchsorted(h, h + k * HOUR)
                idx_c = np.clip(idx, 0, len(h) - 1)
                m = h[idx_c] == h + k * HOUR
                a, b = s[m], s[idx_c[m]]
                n = len(a)
                if n < 2:
                    continue
                am, bm = a.mean(), b.mean()
                cov = ((a - am) * (b - bm)).sum()
                va = ((a - am) ** 2).sum()
                vb = ((b - bm) ** 2).sum()
                if va == 0.0 or vb == 0.0:
                    continue
                lags.append(k)
                rs.append(_r4(cov / np.sqrt(va * vb)))
                ns.append(n)
            return pa.table({
                "lag": pa.array(lags, type=pa.int64()),
                "r": pa.array(rs, type=pa.float64()),
                "n_pairs": pa.array(ns, type=pa.int64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def events_itemsets3(sf_dir):
        """Frequent 3-itemset support over per-user event-type baskets
        (the Apriori support-count stage): distinct (user, type) pairs
        bucket by user; inside a complete bucket two vectorized polars
        self-joins enumerate each user's ordered type triples, and the
        bounded 3-set domain (C(|types|,3)) tree-combines to global
        support counts — candidate generation never leaves the bucket,
        counts never shuffle raw rows."""
        import polars as pl
        from ie_ray.stages.relational import bucketed_map_groups

        ds = _tbl(sf_dir, "events", columns=["user_id", "event_type"])

        def kernel(g: pa.Table) -> pa.Table:
            df = pl.from_arrow(pa.table({
                "u": g.column("user_id").cast(pa.int64()),
                "t": g.column("event_type")})).unique(["u", "t"])
            a = df.rename({"t": "t1"})
            b = df.rename({"t": "t2"})
            c = df.rename({"t": "t3"})
            tri = (a.join(b, on="u").filter(pl.col("t1") < pl.col("t2"))
                   .join(c, on="u").filter(pl.col("t2") < pl.col("t3"))
                   .group_by(["t1", "t2", "t3"])
                   .agg(pl.len().cast(pl.Int64).alias("support")))
            return tri.to_arrow()

        per_bucket = bucketed_map_groups(ds, "user_id", kernel)

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by(["t1", "t2", "t3"]).aggregate(
                [("support", "sum")]).rename_columns(
                ["t1", "t2", "t3", "support"])

        return lowcard_combine(per_bucket, combine)

    def part_copurchase_top20(sf_dir):
        """Market-basket pair mining over an UNBOUNDED item domain —
        the scale-shaped sibling of events_itemsets3 (whose 5-type
        lattice is lowcard): parts co-occurring in the same order.
        Basket pair generation stays inside complete-order buckets
        (vectorized polars self-join, |parts/order| ≈ 4 so the blowup
        is quadratic-in-4, not in-catalog); the rows-sized (p1, p2)
        pair domain then reduces through bucketed_aggregate, and the
        global exact top-20 by support uses per-block partial top-k
        with a total (n desc, p1, p2) tie-break order."""
        import numpy as np
        import polars as pl
        from ie_ray.stages.relational import (bucketed_aggregate,
                                              bucketed_map_groups)

        li = _tbl(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_partkey"])

        def pair_kernel(g: pa.Table) -> pa.Table:
            df = pl.from_arrow(pa.table({
                "o": g.column("l_orderkey").cast(pa.int64()),
                "p": g.column("l_partkey").cast(pa.int64())})) \
                .unique(["o", "p"])
            a = df.rename({"p": "p1"})
            b = df.rename({"p": "p2"})
            return (a.join(b, on="o")
                    .filter(pl.col("p1") < pl.col("p2"))
                    .group_by(["p1", "p2"])
                    .agg(pl.len().cast(pl.Int64).alias("n_orders"))
                    ).to_arrow()

        pairs = bucketed_map_groups(li, "l_orderkey", pair_kernel)
        counts = bucketed_aggregate(pairs, ["p1", "p2"],
                                    [("n_orders", "sum")])

        def rename(t: pa.Table) -> pa.Table:
            return t.rename_columns(["p1", "p2", "n_orders"])

        counts = counts.map_batches(rename, batch_format="pyarrow")

        def top20(t: pa.Table) -> pa.Table:
            n = np.asarray(t.column("n_orders"), dtype=np.int64)
            p1 = np.asarray(t.column("p1"), dtype=np.int64)
            p2 = np.asarray(t.column("p2"), dtype=np.int64)
            o = np.lexsort((p2, p1, -n))[:20]
            return t.take(pa.array(o))

        return (counts.map_batches(top20, batch_format="pyarrow")
                .repartition(1)
                .map_batches(top20, batch_format="pyarrow",
                             batch_size=None))

    def orders_monthly_growth(sf_dir):
        """Month-over-month revenue growth — the LAG-window KPI:
        bounded month domain reduces by one lowcard tree-combine
        (exact int64 cents), the ≤|months| ordered rows diff in the
        final task; growth ratio divides the same exact cents on both
        engines (first month NULL, div-by-zero → NULL)."""
        import numpy as np

        ds = _tbl(sf_dir, "orders",
                  columns=["o_orderdate", "o_totalprice"])

        def partial(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            m = pc.strftime(t.column("o_orderdate")
                            .cast(pa.timestamp("us")), format="%Y-%m")
            cents = np.round(np.asarray(t.column("o_totalprice"),
                                        dtype=np.float64) * 100.0) \
                .astype(np.int64)
            g = pa.table({"month": m, "s": pa.array(cents)}) \
                .group_by("month").aggregate([("s", "sum")])
            return g.rename_columns(["month", "s"])

        def combine(t: pa.Table) -> pa.Table:
            return t.group_by("month").aggregate([("s", "sum")]) \
                .rename_columns(["month", "s"])

        def final(t: pa.Table) -> pa.Table:
            t = combine(t)
            order = np.argsort(np.asarray(t.column("month"),
                                          dtype=object))
            m = np.asarray(t.column("month"), dtype=object)[order]
            s = np.asarray(t.column("s"), dtype=np.int64)[order]
            growth = np.full(len(s), np.nan)
            if len(s) > 1:
                prev = s[:-1].astype(np.float64)
                with np.errstate(divide="ignore", invalid="ignore"):
                    growth[1:] = np.where(
                        prev != 0.0, (s[1:] - s[:-1]) / prev, np.nan)
            # DuckDB rounds half AWAY from zero; np.round is half-even
            # — a dau/wau-style integer ratio CAN land exactly on a
            # 4-dp midpoint (e.g. 1/32), so match the oracle's mode
            g4 = np.copysign(
                np.floor(np.abs(growth) * 1e4 + 0.5) / 1e4, growth)
            return pa.table({
                "month": pa.array(m, type=pa.string()),
                "revenue": pa.array(
                    np.round(s / 100.0, 2), type=pa.float64()),
                "growth": pa.array(np.where(
                    np.isnan(growth), None, g4), type=pa.float64())})

        return lowcard_combine(ds, partial, final_fn=final,
                               combine_fn=combine)

    def events_dau_wau_stickiness(sf_dir):
        """DAU / WAU / stickiness per day — the growth-analytics KPI
        whose WAU is a SLIDING-WINDOW DISTINCT (not mergeable from
        daily counts): each distinct (user, day) pair expands to the
        ≤7 target days it supports, pairs dedup through ONE bucketed
        exchange, and the bounded day domain carries the final counts.
        The 7× expansion is the documented cost knob (window length ×
        distinct pairs), traded for never shuffling raw events."""
        import numpy as np
        import pyarrow.compute as pc
        from ie_ray.stages.relational import bucketed_aggregate

        ds = _tbl(sf_dir, "events", columns=["user_id", "ts"])

        # bounded pull: the set of days present in the stream
        def days_partial(t: pa.Table) -> pa.Table:
            d = pc.divide(t.column("ts").cast(pa.timestamp("us"))
                          .cast(pa.int64()), 86_400_000_000)
            return pa.table({"day": d.combine_chunks().unique()})

        def days_combine(t: pa.Table) -> pa.Table:
            return pa.table({
                "day": t.column("day").combine_chunks().unique()})

        present = np.sort(np.asarray(
            [r["day"] for r in lowcard_combine(
                ds, days_partial, final_fn=days_combine,
                combine_fn=days_combine).take_all()], dtype=np.int64))

        def expand(t: pa.Table) -> pa.Table:
            d = np.asarray(pc.divide(
                t.column("ts").cast(pa.timestamp("us"))
                .cast(pa.int64()), 86_400_000_000), dtype=np.int64)
            u = np.asarray(t.column("user_id"), dtype=np.int64)
            # block-local (user, day) dedup before the 7x expansion
            ud = np.unique(np.stack([u, d], axis=1), axis=0)
            k = np.arange(7, dtype=np.int64)
            tgt = (ud[:, 1][:, None] + k[None, :]).ravel()
            usr = np.repeat(ud[:, 0], 7)
            keep = np.isin(tgt, present)
            base = pa.table({
                "user_id": pa.array(usr[keep]),
                "day": pa.array(tgt[keep]),
                "is_dau": pa.array((tgt[keep] == np.repeat(
                    ud[:, 1], 7)[keep]).astype(np.int64))})
            # pre-combine: a pair may recur across a block's rows
            return base.group_by(["user_id", "day"]).aggregate(
                [("is_dau", "max")]).rename_columns(
                ["user_id", "day", "is_dau"])

        pairs = bucketed_aggregate(
            ds.map_batches(expand, batch_format="pyarrow"),
            ["user_id", "day"], [("is_dau", "max")])

        def count_partial(t: pa.Table) -> pa.Table:
            t = t.rename_columns(["user_id", "day", "is_dau"])
            g = t.group_by("day").aggregate(
                [([], "count_all"), ("is_dau", "sum")])
            return g.rename_columns(["day", "wau", "dau"])

        def count_combine(t: pa.Table) -> pa.Table:
            return t.group_by("day").aggregate(
                [("wau", "sum"), ("dau", "sum")]).rename_columns(
                ["day", "wau", "dau"])

        def finish(t: pa.Table) -> pa.Table:
            t = count_combine(t)
            dau = np.asarray(t.column("dau"), dtype=np.int64)
            wau = np.asarray(t.column("wau"), dtype=np.int64)
            ratio = dau / wau.astype(np.float64)
            return pa.table({
                "day": t.column("day").cast(pa.int64()),
                "dau": pa.array(dau), "wau": pa.array(wau),
                # half-away to match DuckDB (1/32 = .03125 is a real
                # 4-dp midpoint)
                "stickiness": pa.array(
                    np.floor(ratio * 1e4 + 0.5) / 1e4)})

        return lowcard_combine(pairs, count_partial, final_fn=finish,
                               combine_fn=count_combine)

    def events_enriched_user_n(sf_dir):
        """Probe-side enrichment through the SKEW-SALTED join
        (relational.py::salted_join): every event picks up its user's
        total event count.  The build side (per-user counts) is
        rows-sized — too big to assume broadcastable at 10¹² events —
        and a hot user would straggler an unsalted exchange, so the
        probe keys are salted and the build rows replicated ×salt
        (planted-skew equivalence gated in tests/test_salted_join.py)."""
        from ie_ray.stages.relational import (bucketed_aggregate,
                                              salted_join)

        ev = _tbl(sf_dir, "events", columns=["event_id", "user_id"])
        counts = bucketed_aggregate(ev, "user_id",
                                    [("event_id", "count")])

        def rename(t: pa.Table) -> pa.Table:
            return pa.table({
                "user_id": t.column(0).cast(pa.int64()),
                "user_n": t.column(1).cast(pa.int64())})

        dim = counts.map_batches(rename, batch_format="pyarrow") \
            .materialize()
        return salted_join(ev, dim, "user_id", salt=8)

    def users_rfm_segments(sf_dir):
        """RFM (recency / frequency / monetary) user segmentation —
        the classic lifecycle-marketing shape: per-user last-event
        recency in days vs the corpus anchor, event count, and exact
        scaled-int monetary sum; each metric quartiled by the exact
        streaming ntile (stats pass → bounded histogram exchange →
        per-bin local rank, relational.global_ntile — no global sort),
        segment = r·100 + f·10 + m.  The per-user reduce rides the
        bucketed path (rows-sized key domain); the user-level table
        materializes ONCE (users ≪ events) and feeds the three ntile
        passes + joins.  Ordering (metric, user_id) is total, so
        DuckDB's ntile window oracle matches bit-for-bit."""
        import numpy as np
        from ie_ray.stages import dedup
        from ie_ray.stages.relational import (bucketed_aggregate,
                                              global_ntile)
        ds = _tbl(sf_dir, "events", columns=["user_id", "ts", "value"])

        def partial(t: pa.Table) -> pa.Table:
            ts_us = t.column("ts").cast(pa.timestamp("us")) \
                .cast(pa.int64())
            # values sit on a 2-decimal grid: *10000 is exact (same
            # convention + rationale as events_cumulative_value)
            sc = np.round(np.asarray(t.column("value"),
                                     dtype=np.float64) * 10000.0) \
                .astype(np.int64)
            g = pa.table({
                "user_id": t.column("user_id"),
                "last_us": ts_us,
                "n": pa.array(np.ones(len(t), dtype=np.int64)),
                "sc": pa.array(sc),
            }).group_by("user_id").aggregate(
                [("last_us", "max"), ("n", "sum"), ("sc", "sum")])
            return pa.table({"user_id": g.column("user_id"),
                             "last_us": g.column("last_us_max"),
                             "n": g.column("n_sum"),
                             "sc": g.column("sc_sum")})

        per_user = bucketed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow"),
            "user_id",
            [("last_us", "max"), ("n", "sum"), ("sc", "sum")])

        def shape(t: pa.Table) -> pa.Table:
            return pa.table({"user_id": t.column("user_id"),
                             "last_us": t.column("last_us_max"),
                             "freq": t.column("n_sum"),
                             "monetary_sc": t.column("sc_sum")})

        # user-bounded (≪ events): materialized once to feed the three
        # ntile passes + joins without re-running the corpus reduce
        rfm = per_user.map_batches(shape,
                                   batch_format="pyarrow").materialize()
        anchor_day = None
        for blk in rfm.map_batches(
                lambda t: pa.table({"m": pa.array(
                    [int(np.asarray(t.column("last_us")).max())]
                    if len(t) else [], type=pa.int64())}),
                batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"):
            for v in blk.column("m").to_pylist():
                anchor_day = v if anchor_day is None else max(anchor_day, v)
        anchor_day //= 86_400_000_000

        def days(t: pa.Table) -> pa.Table:
            last = np.asarray(t.column("last_us"), dtype=np.int64)
            return pa.table({
                "user_id": t.column("user_id"),
                "recency_days": pa.array(
                    anchor_day - last // 86_400_000_000,
                    type=pa.int64()),
                "freq": t.column("freq"),
                "monetary_sc": t.column("monetary_sc")})

        base = rfm.map_batches(days, batch_format="pyarrow").materialize()
        parts = dedup._join_partitions()
        out = base
        for col, name in (("recency_days", "r_q"), ("freq", "f_q"),
                          ("monetary_sc", "m_q")):
            tiles = global_ntile(base, col, "user_id", k=4).map_batches(
                lambda t, name=name: pa.table(
                    {"uid": t.column("user_id"),
                     name: t.column("tile")}),
                batch_format="pyarrow")
            out = out.join(tiles, "inner", num_partitions=parts,
                           on=("user_id",), right_on=("uid",))

        def seg(t: pa.Table) -> pa.Table:
            r = np.asarray(t.column("r_q"), dtype=np.int64)
            f = np.asarray(t.column("f_q"), dtype=np.int64)
            m = np.asarray(t.column("m_q"), dtype=np.int64)
            return pa.table({
                "user_id": t.column("user_id"),
                "recency_days": t.column("recency_days"),
                "freq": t.column("freq"),
                "monetary_sc": t.column("monetary_sc"),
                "r_q": pa.array(r), "f_q": pa.array(f),
                "m_q": pa.array(m),
                "segment": pa.array(r * 100 + f * 10 + m)})

        return out.map_batches(seg, batch_format="pyarrow") \
            .sort("user_id")

    def word_jw_pairs(sf_dir):
        """Jaro-Winkler similarity self-join over the corpus vocabulary
        (the name/alias-matching metric next to the edit-distance
        join's typo metric): every pair with jw >= 0.75 plus the
        similarity itself, bit-exact to DuckDB's float64
        implementation (fuzz-gated).  Corpus-scale work is the block
        word count; the join broadcasts the bounded vocab and prunes
        with the bag-of-characters upper bound (completeness is a
        theorem — tests/test_strsim.py) before exact scoring."""
        import pyarrow.compute as pc
        from ie_ray.stages.strsim import jw_pairs
        vocab = (_docs(sf_dir).map_batches(_word_count_partial,
                                           batch_format="pyarrow")
                 .groupby("word").sum("n")
                 .map_batches(lambda t: t.rename_columns(["word", "n"]),
                              batch_format="pyarrow")
                 .map_batches(lambda t: t.filter(pc.and_(
                     pc.greater_equal(t.column("n"), 5),
                     pc.match_substring_regex(t.column("word"),
                                              r"^[a-z]{3,}$"))),
                              batch_format="pyarrow")
                 .select_columns(["word"]))
        return _small_table(jw_pairs(vocab, threshold=0.75, parts=16),
                            [("w1", pa.string()), ("w2", pa.string()),
                             ("sim", pa.float64())]) \
            .sort_by([("w1", "ascending"), ("w2", "ascending")])

    def word_edit2_pairs(sf_dir):
        """Typo-clustering string-similarity self-join: every pair of
        vocabulary words (lowercase a-z, len ≥ 3, corpus count ≥ 5)
        within Levenshtein distance 2, with the exact distance.
        Corpus-scale work is the block-combiner word count; the join
        itself is FastSS ≤2-deletion blocking (bucketed exchange on
        deletion variants — never all-pairs) + exact-DP verification per
        distinct candidate pair (stages/strsim.py; blocking idea from
        the reference's SymSpell module, ie/kb/spell.py:47-91)."""
        import pyarrow.compute as pc
        from ie_ray.stages.strsim import edit_pairs
        ds = _docs(sf_dir)

        vocab = (ds.map_batches(_word_count_partial,
                                batch_format="pyarrow")
                 .groupby("word").sum("n")
                 .map_batches(lambda t: t.rename_columns(["word", "n"]),
                              batch_format="pyarrow")
                 .map_batches(lambda t: t.filter(pc.and_(
                     pc.greater_equal(t.column("n"), 5),
                     pc.match_substring_regex(t.column("word"),
                                              r"^[a-z]{3,}$"))),
                              batch_format="pyarrow")
                 .select_columns(["word"]))
        # result is vocabulary-bounded (tiny): collect via the
        # schema-safe idiom — the pair-dedup aggregate can emit
        # SCHEMA-LESS empty blocks for zero-key partitions that would
        # poison the driver's to_pandas()
        t = _small_table(edit_pairs(vocab, k=2, parts=16),
                         [("w1", pa.string()), ("w2", pa.string()),
                          ("d", pa.int64()),
                          ("truncated", pa.bool_())])
        if t.num_rows and pc.any(t.column("truncated")).as_py():
            # capped variant run → result may be a SUBSET (see
            # strsim.edit_pairs docstring); surface instead of silently
            # shipping an incomplete pair set against an exact oracle
            import logging
            logging.getLogger("ie_ray").warning(
                "word_edit2_pairs: variant-run cap hit — pair set may "
                "be incomplete; raise max_run for exactness")
        return t.drop_columns(["truncated"]) \
            .sort_by([("w1", "ascending"), ("w2", "ascending")])

    def word_canonical_map(sf_dir):
        """Typo/variant NORMALIZATION map — what a vocabulary pipeline
        does with the edit-distance join's output: distributed
        connected components over the d≤2 pair graph, then per
        component the most-frequent member (ties: lexicographic min)
        becomes canonical; singleton words map to themselves.  The
        multi-hop cluster {fast, part, sort, spark, hash} → hash on the
        fixture exercises transitivity.  Everything after the word
        count is vocabulary-bounded.  Exact recursive-CTE DuckDB
        oracle."""
        import pyarrow.compute as pc
        from ie_ray.stages.link import (canonicalize_ids_ds,
                                        connected_components)
        from ie_ray.stages.strsim import edit_pairs
        ds = _docs(sf_dir)
        vocab = (ds.map_batches(_word_count_partial,
                                batch_format="pyarrow")
                 .groupby("word").sum("n")
                 .map_batches(lambda t: t.rename_columns(["word", "n"]),
                              batch_format="pyarrow")
                 .map_batches(lambda t: t.filter(pc.and_(
                     pc.greater_equal(t.column("n"), 5),
                     pc.match_substring_regex(t.column("word"),
                                              r"^[a-z]{3,}$"))),
                              batch_format="pyarrow")
                 .materialize())  # feeds BOTH the pair join and the map
        pairs = edit_pairs(vocab.select_columns(["word"]),
                           k=2, parts=16)
        edges = pairs.map_batches(
            lambda t: pa.table({"a": t.column("w1"),
                                "b": t.column("w2")}),
            batch_format="pyarrow")
        comp = canonicalize_ids_ds(
            vocab.map_batches(
                lambda t: t.append_column("comp", t.column("word")),
                batch_format="pyarrow"),
            connected_components(edges), ("comp",))

        def pick(g: pa.Table) -> pa.Table:
            order = pc.sort_indices(g, sort_keys=[
                ("n", "descending"), ("word", "ascending")])
            canonical = g.column("word")[order[0].as_py()].as_py()
            return pa.table({
                "word": g.column("word"),
                "canonical": pa.array([canonical] * g.num_rows,
                                      type=pa.string())})

        return comp.groupby("comp").map_groups(pick, batch_format="pyarrow")

    def word_clustering_coeff(sf_dir):
        """Per-node local clustering coefficient of the df≥60
        co-occurrence graph — 2·triangles(v) / (deg(v)·(deg(v)−1)) —
        completing the graph-metrics family (degree/PageRank/k-core/
        triangle COUNTS existed; this is the per-node density view).
        Triangle rows come from the skew-safe Suri–Vassilvitskii join
        (stages/cooccur.py); everything after the corpus-scale edge
        reduce is vocab-bounded.  Exact oracle (three-way self-join)."""
        import pyarrow.compute as pc
        from ie_ray.stages import dedup
        from ie_ray.stages.cooccur import cooccur_edges, triangles
        edges = cooccur_edges(_docs(sf_dir), df_min=60).materialize()

        def endpoints(t: pa.Table) -> pa.Table:
            return pa.table({"node": pa.array(
                t.column("w1").to_pylist() + t.column("w2").to_pylist(),
                type=pa.string())})

        deg = edges.map_batches(endpoints, batch_format="pyarrow") \
            .groupby("node").count() \
            .map_batches(lambda t: t.rename_columns(["node", "degree"]),
                         batch_format="pyarrow")

        def tri_nodes(t: pa.Table) -> pa.Table:
            return pa.table({"tnode": pa.array(
                t.column("w1").to_pylist() + t.column("w2").to_pylist()
                + t.column("w3").to_pylist(), type=pa.string())})

        tcnt = triangles(edges).map_batches(tri_nodes,
                                            batch_format="pyarrow") \
            .groupby("tnode").count() \
            .map_batches(lambda t: t.rename_columns(["tnode", "tri"]),
                         batch_format="pyarrow")
        joined = deg.join(tcnt, "left_outer",
                          num_partitions=dedup._join_partitions(),
                          on=("node",), right_on=("tnode",))

        def finish(t: pa.Table) -> pa.Table:
            import numpy as np
            d = np.asarray(t.column("degree"), dtype=np.int64)
            tri = np.asarray(pc.fill_null(t.column("tri"), 0),
                             dtype=np.int64)
            coeff = np.where(d >= 2, 2.0 * tri / (d * np.maximum(d - 1, 1)),
                             0.0)
            return pa.table({
                "node": t.column("node"),
                "degree": pa.array(d, type=pa.int64()),
                "triangles": pa.array(tri, type=pa.int64()),
                "coeff": pc.round(pa.array(coeff, type=pa.float64()), 4,
                                  round_mode="half_towards_infinity")})

        return joined.map_batches(finish, batch_format="pyarrow")

    def events_type_affinity(sf_dir):
        """Market-basket lift between event types: for each unordered
        type pair, how many users did both, and the lift vs
        independence as an EXACT integer (ppm, floor division — no fp
        in the hash path).  Block-local (user,type) dedup shrinks the
        one user-bucketed exchange; per bucket the per-user type sets
        become int64 bitmasks so pair counting is k² vectorized
        popcounts, never a per-user Python pair loop (k = distinct
        types, ≤ 63 on the bitmask path with a documented set-based
        fallback).  Buckets partition users, so per-bucket distinct IS
        global distinct — type/user partials sum exactly."""
        import numpy as np
        from ie_ray.stages.relational import bucketed_map_groups
        ev = _tbl(sf_dir, "events", columns=["user_id", "event_type"])

        def block_dedup(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            return t.group_by(["user_id", "event_type"]).aggregate([]) \
                if t.num_rows else t

        def bucket_kernel(g: pa.Table) -> pa.Table:
            uid = np.asarray(g.column("user_id"), dtype=np.int64)
            enc = g.column("event_type").combine_chunks() \
                .dictionary_encode()
            codes = np.asarray(enc.indices, dtype=np.int64)
            types = enc.dictionary.to_pylist()
            k = len(types)
            users, inv = np.unique(uid, return_inverse=True)
            kinds, t1s, t2s, ns = [], [], [], []
            if k <= 63:
                mask = np.zeros(len(users), dtype=np.int64)
                np.bitwise_or.at(mask, inv, np.int64(1) << codes)
                bits = [(mask >> i) & 1 for i in range(k)]
                for i in range(k):
                    kinds.append("type")
                    t1s.append(types[i])
                    t2s.append("")
                    ns.append(int(bits[i].sum()))
                    for j in range(i + 1, k):
                        a, b = sorted((types[i], types[j]))
                        kinds.append("pair")
                        t1s.append(a)
                        t2s.append(b)
                        ns.append(int((bits[i] & bits[j]).sum()))
            else:  # high-cardinality fallback: per-user sorted type sets
                per_user: dict = {}
                for u, c in zip(inv, codes):
                    per_user.setdefault(u, set()).add(c)
                from collections import Counter
                pair_n: Counter = Counter()
                type_n: Counter = Counter()
                for cs in per_user.values():
                    ts = sorted(types[c] for c in cs)
                    for i in range(len(ts)):
                        type_n[ts[i]] += 1
                        for j in range(i + 1, len(ts)):
                            pair_n[(ts[i], ts[j])] += 1
                for t, n in type_n.items():
                    kinds.append("type")
                    t1s.append(t)
                    t2s.append("")
                    ns.append(n)
                for (a, b), n in pair_n.items():
                    kinds.append("pair")
                    t1s.append(a)
                    t2s.append(b)
                    ns.append(n)
            kinds.append("users")
            t1s.append("")
            t2s.append("")
            ns.append(len(users))
            return pa.table({
                "kind": pa.array(kinds, type=pa.string()),
                "t1": pa.array(t1s, type=pa.string()),
                "t2": pa.array(t2s, type=pa.string()),
                "n": pa.array(ns, type=pa.int64())})

        agg = bucketed_map_groups(
            ev.map_batches(block_dedup, batch_format="pyarrow"),
            "user_id", bucket_kernel) \
            .groupby(["kind", "t1", "t2"]).sum("n").take_all()
        n_users = sum(r["sum(n)"] for r in agg if r["kind"] == "users")
        per_type = {r["t1"]: r["sum(n)"] for r in agg if r["kind"] == "type"}
        rows = sorted((r["t1"], r["t2"], r["sum(n)"])
                      for r in agg if r["kind"] == "pair" and r["sum(n)"])
        return pa.table({
            "t1": pa.array([r[0] for r in rows], type=pa.string()),
            "t2": pa.array([r[1] for r in rows], type=pa.string()),
            "pair_users": pa.array([r[2] for r in rows], type=pa.int64()),
            "lift_ppm": pa.array(
                [r[2] * n_users * 1_000_000
                 // (per_type[r[0]] * per_type[r[1]]) for r in rows],
                type=pa.int64())})

    # Ordering contract: the correctness driver checks the first N dict
    # entries (N=50 in rounds 1-2).  Oracle-backed operators that have not
    # yet earned a green CORRECTNESS row come FIRST, then the operators
    # already proven green in CORRECTNESS_r02, and the inherently
    # oracle-less entries (sketches, kg_* / CCG family, iterative algos —
    # each gated by named pytest suites in its docstring) come last.
    return {
        # -- round-5 session-4 additions (oracle-backed, never
        #    prefix-checked) first --
        "events_ohlc_hourly": events_ohlc_hourly,
        "events_user_streaks": events_user_streaks,
        "events_user_type_runs": events_user_type_runs,
        "events_value_mad": events_value_mad,
        "events_benford": events_benford,
        "events_seasonal_residuals": events_seasonal_residuals,
        "lineitem_semi_urgent": lineitem_semi_urgent,
        "events_cusum_changepoint": events_cusum_changepoint,
        "events_itemsets3": events_itemsets3,
        "events_hourly_acf": events_hourly_acf,
        "docs_length_theil": docs_length_theil,
        "docs_chi2_lang_source": docs_chi2_lang_source,
        "events_weekend_ttest": events_weekend_ttest,
        "events_mannwhitney_purchase_view":
            events_mannwhitney_purchase_view,
        "docs_ari": docs_ari,
        "events_trend_by_type": events_trend_by_type,
        "events_throttled": events_throttled,
        "events_zorder_key": events_zorder_key,
        "part_copurchase_top20": part_copurchase_top20,
        "orders_monthly_growth": orders_monthly_growth,
        "events_dau_wau_stickiness": events_dau_wau_stickiness,
        "events_enriched_user_n": events_enriched_user_n,
        "events_median_interarrival_us": events_median_interarrival_us,
        "docs_ks_by_source": docs_ks_by_source,
        "q1_incremental_refresh": q1_incremental_refresh,
        "orders_backlog_timeseries": orders_backlog_timeseries,
        "events_value_band_pairs": events_value_band_pairs,
        "users_churned_monthly": users_churned_monthly,
        "events_max_concurrency": events_max_concurrency,
        "embedding_quantize_int8": embedding_quantize_int8,
        "word_link_prediction_top20": word_link_prediction_top20,
        "docs_length_gini": docs_length_gini,
        # -- round-5 session-3 additions --
        "doc_keyphrases": doc_keyphrases,
        "word_jw_pairs": word_jw_pairs,
        "users_rfm_segments": users_rfm_segments,
        "source_kl_divergence": source_kl_divergence,
        "word_lpa_communities": word_lpa_communities,
        "events_cube": events_cube,
        "events_user_entropy": events_user_entropy,
        "events_user_ewma": events_user_ewma,
        # -- round-5 session-2 additions --
        "word_edit2_pairs": word_edit2_pairs,
        "word_canonical_map": word_canonical_map,
        "word_clustering_coeff": word_clustering_coeff,
        "events_type_affinity": events_type_affinity,
        "events_cep_pattern": events_cep_pattern,
        # -- round-5 driver prefix: the four NEW oracle-backed operators
        #    (never prefix-checked — rotation discipline) first, then
        #    the entries whose kernels changed this round (KeyLookup
        #    sweep through the TPC-H decorations, vectorized hashed
        #    DSIR), then the round-4 prefix for re-confirmation --
        "docs_bigram_logprob": docs_bigram_logprob,
        "events_dow_hour_heatmap": events_dow_hour_heatmap,
        "docs_stopword_ratio": docs_stopword_ratio,
        "customer_nation_top3": customer_nation_top3,
        "orders_rolling_7d_revenue": orders_rolling_7d_revenue,
        "q3_shipping": q3_shipping,
        "q5_local_supplier": q5_local_supplier,
        "q10_returned_customers": q10_returned_customers,
        "q14_promo_revenue": q14_promo_revenue,
        "q7_nation_volume": q7_nation_volume,
        "q8_market_share": q8_market_share,
        "q9_profit_by_nation": q9_profit_by_nation,
        "q13_order_distribution": q13_order_distribution,
        "q15_top_supplier": q15_top_supplier,
        "q17_small_quantity_revenue": q17_small_quantity_revenue,
        "q18_large_volume": q18_large_volume,
        "q19_disjunct_revenue": q19_disjunct_revenue,
        "q22_idle_customers": q22_idle_customers,
        "q2_min_cost_supplier": q2_min_cost_supplier,
        "q11_important_parts": q11_important_parts,
        "q16_supplier_cnt": q16_supplier_cnt,
        "q20_excess_suppliers": q20_excess_suppliers,
        "q21_waiting_suppliers": q21_waiting_suppliers,
        "events_watermark_hourly": events_watermark_hourly,
        "docs_dsir_scores": docs_dsir_scores,
        "docs_pii_scrub": docs_pii_scrub,
        "events_cumulative_value": events_cumulative_value,
        "word_cooccur_edges": word_cooccur_edges,
        "word_triangles": word_triangles,
        "events_value_ntile4": events_value_ntile4,
        "minhash_cluster_sizes": minhash_cluster_sizes,
        "docs_pack_sequences": docs_pack_sequences,
        "substring_dup_frac": substring_dup_frac,
        "events_value_zscore": events_value_zscore,
        "events_zscore_by_type": events_zscore_by_type,
        "events_corr_value_time": events_corr_value_time,
        "exact_dedup_docs": exact_dedup_docs,
        "q4_priority_late": q4_priority_late,
        "q12_returnflag_priority": q12_returnflag_priority,
        "customer_event_counts": customer_event_counts,
        "customers_without_events": customers_without_events,
        "decontaminate_docs": decontaminate_docs,
        "doc_char_entropy": doc_char_entropy,
        "doc_fingerprints": doc_fingerprints,
        "doc_md5": doc_md5,
        "doc_repetition": doc_repetition,
        "docs_lang_pivot": docs_lang_pivot,
        "docs_longest100": docs_longest100,
        "embedding_dup_pairs": embedding_dup_pairs,
        "embedding_sim_pairs": embedding_sim_pairs,
        "events_asof_purchase_click": events_asof_purchase_click,
        "events_by_type": events_by_type,
        "events_cohort_retention": events_cohort_retention,
        "events_distinct_users": events_distinct_users,
        "events_dq_report": events_dq_report,
        "events_funnel": events_funnel,
        "events_global_quantiles": events_global_quantiles,
        "events_hourly_window": events_hourly_window,
        "events_latest_per_user": events_latest_per_user,
        "events_props_stats": events_props_stats,
        "events_range_click_purchase": events_range_click_purchase,
        "events_rollup": events_rollup,
        "events_sessions": events_sessions,
        "events_top3_per_user": events_top3_per_user,
        "events_user_stats": events_user_stats,
        "events_value_histogram": events_value_histogram,
        "events_value_quantiles": events_value_quantiles,
        "knn_top1": knn_top1,
        "langid": langid,
        "lineitem_profile": lineitem_profile,
        "minhash_dedup_keep": minhash_dedup_keep,
        "minhash_dedup_pairs": minhash_dedup_pairs,
        # -- oracle-backed, driver-green in CORRECTNESS_r03 --
        "top_words": top_words,
        "bm25_top10": bm25_top10,
        "bpe_top_pairs": bpe_top_pairs,
        "heavy_hitter_words": heavy_hitter_words,
        "pmi_collocations": pmi_collocations,
        "docs_chunk_sliding": docs_chunk_sliding,
        "doc_unigram_logprob": doc_unigram_logprob,
        "doc_oov_rate": doc_oov_rate,
        "doc_tfidf_top3": doc_tfidf_top3,
        "inverted_index": inverted_index,
        "label_centroids": label_centroids,
        "embedding_outliers": embedding_outliers,
        "events_interarrival": events_interarrival,
        "events_sliding_3h": events_sliding_3h,
        "boilerplate_ngrams": boilerplate_ngrams,
        "doc_dup_ngram_frac": doc_dup_ngram_frac,
        "normalize_docs": normalize_docs,
        "docs_sample_10pct": docs_sample_10pct,
        "docs_sample_exact100": docs_sample_exact100,
        "docs_weighted_mix": docs_weighted_mix,
        "docs_new_vs_seen": docs_new_vs_seen,
        "events_stratified_sample": events_stratified_sample,
        "nation_region": nation_region,
        "order_status_counts": order_status_counts,
        "gopher_filter_docs": gopher_filter_docs,
        "docs_zipf_slope": docs_zipf_slope,
        "events_markov_transitions": events_markov_transitions,
        "events_anomaly_iqr": events_anomaly_iqr,
        "embedding_norm_stats": embedding_norm_stats,
        "embedding_covariance": embedding_covariance,
        "docs_split_assign": docs_split_assign,
        "events_hourly_distinct_users": events_hourly_distinct_users,
        "doc_token_counts": doc_token_counts,
        "doc_quality": doc_quality,
        "lang_counts": lang_counts,
        "paragraph_counts": paragraph_counts,
        "quality_filter_docs": quality_filter_docs,
        "repetition_filter_docs": repetition_filter_docs,
        "simhash_pairs": simhash_pairs,
        "ngram_jaccard_pairs": ngram_jaccard_pairs,
        "q1_pricing": q1_pricing,
        "orders_per_segment": orders_per_segment,
        "top10_parts": top10_parts,
        "q6_forecast_revenue": q6_forecast_revenue,
        # -- inherently oracle-less (sketches / kg / CCG / iterative);
        #    each names its pytest gate in the callable's docstring --
        "events_users_approx": events_users_approx,
        "events_type_user_overlap": events_type_user_overlap,
        "source_shingle_overlap": source_shingle_overlap,
        "doc_compression_ratio": doc_compression_ratio,
        "events_quantile_digest": events_quantile_digest,
        "knn_top1_ivf": knn_top1_ivf,
        "embedding_kmeans": embedding_kmeans,
        "lexicon_extract": lexicon_extract,
        "page_link_graph": page_link_graph,
        "host_pagerank": host_pagerank,
        "kg_triples": kg_triples_q,
        "kg_triples_warc": kg_triples_warc,
        "kg_entity_types": kg_entity_types,
        "kg_comention_pairs": kg_comention_pairs,
        "kg_nodes": kg_nodes,
        "kg_edges": kg_edges,
        "kg_pagerank": kg_pagerank,
        "kg_khop2": kg_khop2,
        "word_max_spanning_backbone": word_max_spanning_backbone,
        "kg_ppr_top20": kg_ppr_top20,
        "kg_canonical_edges": kg_canonical_edges,
        "kg_incremental": kg_incremental,
        "extraction_identity": extraction_identity,
        "clause_extract": clause_extract,
        "cky_parse_triples": cky_parse_triples,
        "cky_clause_extract": cky_clause_extract,
        "verbnet_lookup": verbnet_lookup,
        "kg_drs": kg_drs,
        "kg_nominals": kg_nominals,
        "media_features": media_features,
        "media_resize": media_resize,
        "media_frame_sample": media_frame_sample,
        "media_phash_pairs": media_phash_pairs,
        "media_audiofp_pairs": media_audiofp_pairs,
        "media_dedup_keep": media_dedup_keep,
        "docs_quality_classifier": docs_quality_classifier,
        "embedding_pca_project": embedding_pca_project,
        "word_kcore": word_kcore,
        "docs_bpe_encode": docs_bpe_encode,
        "semdedup_keep": semdedup_keep,
        "docs_dsir_scores_hashed": docs_dsir_scores_hashed,
        "docs_bigram_logprob_hashed": docs_bigram_logprob_hashed,
    }


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_sql() -> dict[str, str]:
    from ie_ray.stages.dedup import (EMBEDDING_DUP_SQL, NGRAM_PAIRS_SQL,
                                     _NGRAM_SQL_GRAMS, minhash_oracle_sql,
                                     simhash_oracle_sql)
    from ie_ray.stages.pii import pii_oracle_sql as _pii_sql
    from ie_ray.stages.retrieval import dsir_oracle_sql as _dsir_sql
    from ie_ray.stages.retrieval import \
        bigram_logprob_oracle_sql as _bigram_lp_sql
    from ie_ray.stages.retrieval import (UNIGRAM_LOGPROB_SQL as _UNIGRAM_SQL,
                                         bm25_oracle_sql as _bm25_oracle,
                                         pmi_oracle_sql as _pmi_oracle)
    from ie_ray.stages.tokenizer import bpe_pairs_oracle_sql as _bpe_oracle
    from ie_ray.stages.zorder import morton2_sql as _morton_sql
    from ie_ray.stages.sketches import heavy_hitters_oracle_sql as _hh_oracle
    keep_sql = (
        "WITH RECURSIVE w AS (SELECT doc_id, regexp_extract_all(translate("
        "text, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
        "'abcdefghijklmnopqrstuvwxyz'), '[0-9a-z_]+') AS words "
        "FROM documents), "
        "g AS (SELECT doc_id, list_distinct(list_transform(range(1, "
        "len(words)-1), i -> words[i] || ' ' || words[i+1] || ' ' || "
        "words[i+2])) AS grams FROM w WHERE len(words) >= 3), "
        "e AS (SELECT a.doc_id AS x, b.doc_id AS y FROM g a JOIN g b "
        "ON a.doc_id != b.doc_id "
        "WHERE len(list_intersect(a.grams, b.grams))::DOUBLE / "
        "len(list_distinct(list_concat(a.grams, b.grams))) >= 0.5), "
        "reach(x, y) AS (SELECT x, y FROM e "
        "UNION SELECT r.x, e.y FROM reach r JOIN e ON r.y = e.x "
        "WHERE e.y != r.x) "
        "SELECT doc_id FROM documents d WHERE NOT EXISTS "
        "(SELECT 1 FROM reach WHERE reach.x = d.doc_id "
        "AND reach.y < d.doc_id)")
    from ie_ray.stages.decontam import decontam_sql
    from ie_ray.stages.textstats import (FINGERPRINT_SQL, REPETITION_SQL,
                                         langid_sql)
    from ie_ray.stages.keyphrase import rake_oracle_sql as _rake_sql
    return {
        "doc_keyphrases": _rake_sql(3),
        "events_user_ewma":
            "WITH o AS (SELECT user_id, value, row_number() OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS rn, "
            "count(*) OVER (PARTITION BY user_id) AS n FROM events) "
            "SELECT user_id, round(sum(pow(0.9, n - rn) * value) / "
            "sum(pow(0.9, n - rn)), 4) AS ewma "
            "FROM o GROUP BY user_id ORDER BY user_id",
        "events_cube":
            "SELECT coalesce(event_type, 'ALL') AS event_type, "
            "coalesce(dayofweek(ts), -1)::BIGINT AS dow, "
            "count(*)::BIGINT AS n, "
            "sum(CAST(round(value * 100) AS BIGINT))::BIGINT "
            "AS value_cents "
            "FROM events GROUP BY CUBE (event_type, dayofweek(ts))",
        "events_user_entropy":
            "WITH p AS (SELECT user_id, event_type, count(*)::DOUBLE "
            "AS c FROM events GROUP BY 1, 2), "
            "u AS (SELECT user_id, sum(c) AS n FROM p GROUP BY 1) "
            "SELECT p.user_id, "
            "round(sum(-(p.c / u.n) * ln(p.c / u.n)), 4) AS entropy, "
            "sum(p.c)::BIGINT AS n_events "
            "FROM p JOIN u ON u.user_id = p.user_id "
            "GROUP BY p.user_id ORDER BY p.user_id",
        "word_lpa_communities": __import__(
            "ie_ray.stages.community",
            fromlist=["lpa_oracle_sql"]).lpa_oracle_sql(
            "words AS (SELECT doc_id, w, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY i) AS rn FROM (SELECT doc_id, "
            "unnest(string_split(text, ' ')) AS w, generate_subscripts("
            "string_split(text, ' '), 1) AS i FROM documents)), "
            "bg AS (SELECT DISTINCT a.doc_id, least(a.w, b.w) AS w1, "
            "greatest(a.w, b.w) AS w2 FROM words a JOIN words b ON "
            "a.doc_id = b.doc_id AND b.rn = a.rn + 1 AND a.w <> b.w "
            "AND a.w <> '' AND b.w <> ''), "
            "e AS (SELECT w1, w2 FROM bg GROUP BY w1, w2 "
            "HAVING count(*) >= 60)", rounds=5),
        "source_kl_divergence": __import__("ie_ray.stages.textstats", fromlist=["SOURCE_KL_SQL"]).SOURCE_KL_SQL,
        "users_rfm_segments":
            "WITH mx AS (SELECT max(ts) AS anchor FROM events), "
            "u AS (SELECT user_id, "
            "datediff('day', max(ts), (SELECT anchor FROM mx))::BIGINT "
            "AS recency_days, count(*)::BIGINT AS freq, "
            "sum(CAST(round(value * 10000) AS BIGINT))::BIGINT "
            "AS monetary_sc FROM events GROUP BY user_id), "
            "q AS (SELECT user_id, recency_days, freq, monetary_sc, "
            "ntile(4) OVER (ORDER BY recency_days, user_id) AS r_q, "
            "ntile(4) OVER (ORDER BY freq, user_id) AS f_q, "
            "ntile(4) OVER (ORDER BY monetary_sc, user_id) AS m_q "
            "FROM u) "
            "SELECT user_id, recency_days, freq, monetary_sc, "
            "r_q::BIGINT AS r_q, f_q::BIGINT AS f_q, m_q::BIGINT AS m_q, "
            "(r_q * 100 + f_q * 10 + m_q)::BIGINT AS segment "
            "FROM q ORDER BY user_id",
        "word_jw_pairs":
            "WITH w AS (SELECT unnest(regexp_split_to_array(lower(text), "
            "'\\s+')) AS word FROM documents WHERE trim(text) != ''), "
            "v AS (SELECT word FROM w WHERE "
            "regexp_matches(word, '^[a-z]{3,}$') "
            "GROUP BY word HAVING count(*) >= 5) "
            "SELECT a.word AS w1, b.word AS w2, "
            "round(jaro_winkler_similarity(a.word, b.word), 4) AS sim "
            "FROM v a JOIN v b ON a.word < b.word "
            "WHERE jaro_winkler_similarity(a.word, b.word) >= 0.75 "
            "ORDER BY w1, w2",
        "word_edit2_pairs":
            "WITH w AS (SELECT unnest(regexp_split_to_array(lower(text), "
            "'\\s+')) AS word FROM documents WHERE trim(text) != ''), "
            "v AS (SELECT word FROM w WHERE "
            "regexp_matches(word, '^[a-z]{3,}$') "
            "GROUP BY word HAVING count(*) >= 5) "
            "SELECT a.word AS w1, b.word AS w2, "
            "levenshtein(a.word, b.word)::BIGINT AS d "
            "FROM v a JOIN v b ON a.word < b.word "
            "AND abs(length(a.word) - length(b.word)) <= 2 "
            "WHERE levenshtein(a.word, b.word) <= 2 ORDER BY w1, w2",
        "events_type_affinity":
            "WITH ut AS (SELECT DISTINCT user_id, event_type FROM events), "
            "tc AS (SELECT event_type, count(*) AS u FROM ut GROUP BY 1), "
            "nu AS (SELECT count(*) AS n FROM "
            "(SELECT DISTINCT user_id FROM events)), "
            "p AS (SELECT a.event_type AS t1, b.event_type AS t2, "
            "count(*) AS pair_users FROM ut a JOIN ut b "
            "ON a.user_id = b.user_id AND a.event_type < b.event_type "
            "GROUP BY 1, 2) "
            "SELECT t1, t2, pair_users::BIGINT AS pair_users, "
            "((pair_users * nu.n * 1000000) // (ta.u * tb.u))::BIGINT "
            "AS lift_ppm FROM p "
            "JOIN tc ta ON ta.event_type = p.t1 "
            "JOIN tc tb ON tb.event_type = p.t2 CROSS JOIN nu "
            "WHERE pair_users > 0 ORDER BY t1, t2",
        "word_clustering_coeff":
            "WITH words AS (SELECT doc_id, w, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY i) AS rn FROM (SELECT doc_id, "
            "unnest(string_split(text, ' ')) AS w, generate_subscripts("
            "string_split(text, ' '), 1) AS i FROM documents)), "
            "bg AS (SELECT DISTINCT a.doc_id, least(a.w, b.w) AS w1, "
            "greatest(a.w, b.w) AS w2 FROM words a JOIN words b ON "
            "a.doc_id = b.doc_id AND b.rn = a.rn + 1 AND a.w <> b.w "
            "AND a.w <> '' AND b.w <> ''), "
            "e AS (SELECT w1, w2 FROM bg GROUP BY w1, w2 "
            "HAVING count(*) >= 60), "
            "sym AS (SELECT w1 AS a, w2 AS b FROM e "
            "UNION ALL SELECT w2, w1 FROM e), "
            "deg AS (SELECT a AS node, count(*)::BIGINT AS degree "
            "FROM sym GROUP BY a), "
            "tri AS (SELECT s1.a AS node, count(*)::BIGINT AS t "
            "FROM sym s1 JOIN sym s2 ON s1.b = s2.a "
            "JOIN e ON e.w1 = least(s1.a, s2.b) "
            "AND e.w2 = greatest(s1.a, s2.b) "
            "WHERE s1.a <> s2.b GROUP BY s1.a) "
            "SELECT d.node, d.degree, "
            "(coalesce(tri.t, 0) // 2)::BIGINT AS triangles, "
            "round(CASE WHEN d.degree >= 2 THEN coalesce(tri.t, 0)"
            "::DOUBLE / (d.degree * (d.degree - 1)) ELSE 0.0 END, 4) "
            "AS coeff FROM deg d LEFT JOIN tri ON tri.node = d.node "
            "ORDER BY d.node",
        "word_canonical_map":
            "WITH RECURSIVE w AS (SELECT unnest(regexp_split_to_array("
            "lower(text), '\\s+')) AS word FROM documents "
            "WHERE trim(text) != ''), "
            "v AS (SELECT word, count(*)::BIGINT AS n FROM w "
            "WHERE regexp_matches(word, '^[a-z]{3,}$') "
            "GROUP BY word HAVING count(*) >= 5), "
            "p AS (SELECT a.word AS w1, b.word AS w2 FROM v a JOIN v b "
            "ON a.word < b.word "
            "AND abs(length(a.word) - length(b.word)) <= 2 "
            "WHERE levenshtein(a.word, b.word) <= 2), "
            "e AS (SELECT w1 AS x, w2 AS y FROM p "
            "UNION ALL SELECT w2 AS x, w1 AS y FROM p), "
            "reach(x, y) AS (SELECT x, y FROM e "
            "UNION SELECT r.x, e.y FROM reach r JOIN e ON r.y = e.x "
            "WHERE e.y != r.x), "
            "comp AS (SELECT v.word, least(v.word, coalesce("
            "(SELECT min(y) FROM reach WHERE x = v.word), v.word)) "
            "AS rep FROM v), "
            "sel AS (SELECT c.rep, v2.word AS canonical, row_number() "
            "OVER (PARTITION BY c.rep ORDER BY v2.n DESC, v2.word ASC) "
            "AS rn FROM comp c JOIN v v2 ON v2.word = c.word) "
            "SELECT c.word AS word, s.canonical AS canonical "
            "FROM comp c JOIN sel s ON s.rep = c.rep AND s.rn = 1 "
            "ORDER BY word",
        "events_cep_pattern":
            "WITH seq AS (SELECT user_id, string_agg(event_type, ',' "
            "ORDER BY ts, event_id) AS s FROM events GROUP BY user_id), "
            "m AS (SELECT user_id, length(regexp_extract_all(s, "
            "'(?:view,)+click,purchase'))::BIGINT AS n_matches FROM seq) "
            "SELECT user_id, n_matches FROM m "
            "WHERE n_matches > 0 ORDER BY user_id",
        "events_dow_hour_heatmap":
            "SELECT dayofweek(ts)::BIGINT AS dow, hour(ts)::BIGINT AS hr, "
            "count(*)::BIGINT AS n, "
            "round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 2) "
            "AS total_value FROM events GROUP BY 1, 2",
        "docs_stopword_ratio":
            "SELECT doc_id, round("
            "len(list_filter(regexp_split_to_array(trim(text), '\\s+'), "
            "x -> list_contains(" + _EN_STOPWORDS_SQL + ", "
            "translate(x, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
            "'abcdefghijklmnopqrstuvwxyz'))))::DOUBLE / "
            "greatest(CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END, 1), 4) "
            "AS stop_ratio FROM documents",
        "customer_nation_top3":
            "WITH cr AS (SELECT o_custkey, "
            "sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents "
            "FROM orders GROUP BY 1), "
            "r AS (SELECT n_name, c_custkey, cents, row_number() OVER ("
            "PARTITION BY n_name ORDER BY cents DESC, c_custkey) AS rn "
            "FROM cr JOIN customer ON c_custkey = o_custkey "
            "JOIN nation ON n_nationkey = c_nationkey) "
            "SELECT n_name, c_custkey, round(cents / 100.0, 2) AS revenue, "
            "rn::BIGINT AS rank FROM r WHERE rn <= 3 ORDER BY n_name, rank",
        "orders_rolling_7d_revenue":
            "WITH d AS (SELECT CAST(o_orderdate AS DATE) AS day, "
            "sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents "
            "FROM orders GROUP BY 1) "
            "SELECT strftime(a.day, '%Y-%m-%d') AS day, "
            "round(a.cents / 100.0, 2) AS revenue, "
            "round((SELECT sum(b.cents) FROM d b WHERE b.day BETWEEN "
            "a.day - INTERVAL 6 DAY AND a.day) / 100.0, 2) AS rolling7 "
            "FROM d a ORDER BY day",
        "doc_fingerprints": FINGERPRINT_SQL,
        "langid": langid_sql(),
        "ngram_jaccard_pairs": NGRAM_PAIRS_SQL,
        "minhash_dedup_pairs": minhash_oracle_sql(),
        "simhash_pairs": simhash_oracle_sql(3),
        "embedding_dup_pairs": EMBEDDING_DUP_SQL,
        "minhash_dedup_keep": keep_sql,
        "exact_dedup_docs":
            "SELECT md5(text) AS text_hash, min(doc_id) AS doc_id "
            "FROM documents GROUP BY md5(text)",
        "doc_token_counts":
            "SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END::BIGINT "
            "AS n_tokens FROM documents",
        "doc_quality":
            "SELECT doc_id, length(text)::BIGINT AS n_chars, "
            "length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) "
            "AS n_punct, "
            "CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END::BIGINT "
            "AS n_tokens, "
            "len(list_filter(regexp_split_to_array(trim(text), '\\s+'), "
            "x -> list_contains(" + _EN_STOPWORDS_SQL + ", translate(x, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', 'abcdefghijklmnopqrstuvwxyz'))))::BIGINT "
            "AS n_stopwords, "
            "length(text) - length(regexp_replace(text, '[A-Z]', '', 'g')) "
            "AS n_upper FROM documents",
        "lang_counts":
            "SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY lang",
        "paragraph_counts":
            "SELECT doc_id, len(string_split(text, chr(10)))::BIGINT "
            "AS n_paras FROM documents",
        "quality_filter_docs":
            "SELECT doc_id FROM documents WHERE "
            "(CASE WHEN trim(text) = '' THEN 0 ELSE "
            "len(regexp_split_to_array(trim(text), '\\s+')) END) >= 10 AND "
            "len(list_filter(regexp_split_to_array(trim(text), '\\s+'), "
            "x -> list_contains(" + _EN_STOPWORDS_SQL + ", translate(x, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', 'abcdefghijklmnopqrstuvwxyz')))) >= 1",
        "doc_md5":
            "SELECT doc_id, md5(text) AS text_md5 FROM documents",
        "doc_repetition": REPETITION_SQL,
        "bm25_top10": _bm25_oracle(_BM25_QUERY, 10),
        "bpe_top_pairs": _bpe_oracle(20),
        "heavy_hitter_words": _hh_oracle(0.01),
        "pmi_collocations": _pmi_oracle(20, 20),
        "docs_chunk_sliding":
            "WITH tok AS (SELECT doc_id, string_split(text, ' ') AS l "
            "FROM documents) "
            "SELECT doc_id, i AS chunk_idx, "
            "LEAST(i*24+32, len(l)) - i*24 AS n_tokens, "
            "array_to_string(l[(i*24+1)::INT : "
            "LEAST(i*24+32, len(l))::INT], ' ') AS chunk "
            "FROM tok, UNNEST(range(0, ((len(l)+23)//24)::BIGINT)) AS t(i)",
        "doc_unigram_logprob": _UNIGRAM_SQL,
        "doc_oov_rate":
            "WITH w AS (SELECT doc_id, unnest(regexp_split_to_array("
            "lower(text), '\\s+')) AS word FROM documents), "
            "w2 AS (SELECT doc_id, word FROM w WHERE word != ''), "
            "v AS (SELECT word FROM (SELECT word, count(*) AS n FROM w2 "
            "GROUP BY word ORDER BY n DESC, word ASC LIMIT 10)) "
            "SELECT doc_id, round(avg(CASE WHEN word IN "
            "(SELECT word FROM v) THEN 0.0 ELSE 1.0 END), 4) AS oov_rate "
            "FROM w2 GROUP BY doc_id",
        "doc_tfidf_top3":
            "WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) "
            "AS word FROM documents), "
            "n AS (SELECT doc_id, count(*) AS n_words FROM tok "
            "GROUP BY doc_id), "
            "tf AS (SELECT doc_id, word, count(*) AS c FROM tok "
            "GROUP BY doc_id, word), "
            "df AS (SELECT word, count(*) AS dfreq FROM "
            "(SELECT DISTINCT doc_id, word FROM tok) GROUP BY word), "
            "nd AS (SELECT count(*) AS n_docs FROM documents), "
            "s AS (SELECT tf.doc_id, tf.word, "
            "(tf.c::DOUBLE / n.n_words) * ln(nd.n_docs::DOUBLE / df.dfreq) "
            "AS score FROM tf JOIN n USING (doc_id) "
            "JOIN df USING (word) CROSS JOIN nd), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, word) AS rk FROM s) "
            "SELECT doc_id, word, score, rk FROM r WHERE rk <= 3",
        "inverted_index":
            "WITH tok AS (SELECT DISTINCT doc_id, "
            "unnest(string_split(text, ' ')) AS word FROM documents) "
            "SELECT word, doc_id // 128 AS shard, "
            "count(*) AS n_docs, "
            "string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings "
            "FROM tok GROUP BY word, shard",
        "label_centroids":
            "WITH expl AS (SELECT label, "
            "unnest(range(1, len(embedding)+1)) AS dim, "
            "unnest(embedding) AS v FROM embeddings) "
            "SELECT label, dim, avg(v) AS mean_v FROM expl "
            "GROUP BY label, dim",
        "embedding_outliers":
            "WITH expl AS (SELECT label, "
            "unnest(range(1, len(embedding)+1)) AS dim, "
            "unnest(embedding) AS v FROM embeddings), "
            "cent AS (SELECT label, dim, avg(v) AS mean_v FROM expl "
            "GROUP BY label, dim), "
            "pt AS (SELECT vec_id, label, "
            "unnest(range(1, len(embedding)+1)) AS dim, "
            "unnest(embedding) AS v FROM embeddings), "
            "d AS (SELECT pt.vec_id, pt.label, "
            "sqrt(sum((pt.v - cent.mean_v)^2)) AS dist "
            "FROM pt JOIN cent USING (label, dim) "
            "GROUP BY pt.vec_id, pt.label) "
            "SELECT vec_id, label, dist FROM d WHERE dist > 1.0",
        "repetition_filter_docs":
            "SELECT doc_id FROM (" + REPETITION_SQL + ") "
            "WHERE top_word_frac <= 0.1 AND dup_word_frac <= 0.65",
        "embedding_sim_pairs":
            "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4",
        "knn_top1":
            "WITH q AS (SELECT vec_id, embedding FROM embeddings "
            "ORDER BY vec_id LIMIT 10), "
            "sims AS (SELECT q.vec_id AS query_id, e.vec_id AS neighbor, "
            "list_cosine_similarity(q.embedding, e.embedding) AS sim "
            "FROM q CROSS JOIN embeddings e WHERE e.vec_id != q.vec_id), "
            "ranked AS (SELECT query_id, neighbor, "
            "row_number() OVER (PARTITION BY query_id "
            "ORDER BY sim DESC, neighbor ASC) AS rn FROM sims) "
            "SELECT query_id, neighbor FROM ranked WHERE rn = 1",
        "q1_pricing":
            "SELECT l_returnflag, l_linestatus, "
            "round(sum(l_quantity), 2) AS sum_qty, "
            "round(sum(l_extendedprice), 2) AS sum_base_price, "
            "count(*)::BIGINT AS count_order "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus",
        "orders_per_segment":
            "SELECT c_mktsegment, count(*)::BIGINT AS n_orders FROM orders "
            "JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment",
        "top10_parts":
            "SELECT p_partkey, p_name, p_retailprice FROM part "
            "ORDER BY p_retailprice DESC, p_partkey ASC LIMIT 10",
        "events_by_type":
            "SELECT event_type, count(*)::BIGINT AS n, "
            "round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 2) "
            "AS total_value FROM events "
            "GROUP BY event_type",
        "events_hourly_window":
            "SELECT CAST(date_trunc('hour', ts) AS VARCHAR) AS window_start, "
            "event_type, count(*)::BIGINT AS n, "
            "round(sum(value), 2) AS total_value FROM events "
            "GROUP BY date_trunc('hour', ts), event_type",
        "events_user_stats":
            "SELECT user_id, count(*)::BIGINT AS n_events, "
            "round(avg(value), 4) AS avg_value FROM events GROUP BY user_id",
        "events_sessions":
            "WITH x AS (SELECT user_id, epoch(ts) - lag(epoch(ts)) "
            "OVER (PARTITION BY user_id ORDER BY ts) AS gap FROM events) "
            "SELECT user_id, count(CASE WHEN gap IS NULL OR gap > 1800 "
            "THEN 1 END)::BIGINT AS n_sessions FROM x GROUP BY user_id",
        "events_asof_purchase_click":
            "SELECT p.event_id, p.user_id, epoch_us(p.ts) AS on_us, "
            "epoch_us(c.ts) AS prior_on_us "
            "FROM (SELECT * FROM events WHERE event_type = 'purchase') p "
            "ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c "
            "ON p.user_id = c.user_id AND p.ts >= c.ts",
        "events_range_click_purchase":
            "SELECT c.event_id, p.event_id AS right_event_id, "
            "c.user_id, epoch_us(c.ts) AS on_us, "
            "epoch_us(p.ts) AS right_on_us "
            "FROM (SELECT * FROM events WHERE event_type = 'click') c "
            "JOIN (SELECT * FROM events WHERE event_type = 'purchase') p "
            "ON c.user_id = p.user_id AND p.ts > c.ts "
            "AND epoch_us(p.ts) <= epoch_us(c.ts) + 21600000000",
        "customers_without_events":
            "SELECT c_custkey, c_mktsegment, c_acctbal FROM customer c "
            "WHERE NOT EXISTS (SELECT 1 FROM events e "
            "WHERE e.user_id = c.c_custkey)",
        "events_distinct_users":
            "SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users "
            "FROM events GROUP BY event_type",
        "docs_lang_pivot":
            "SELECT source, "
            + ", ".join(
                "count(CASE WHEN lang = '%s' THEN 1 END)::BIGINT AS n_%s"
                % (l, l) for l in ("de", "en", "es", "fr", "zh")) +
            " FROM documents GROUP BY source",
        "docs_longest100":
            "SELECT doc_id, n_chars, source FROM documents "
            "ORDER BY n_chars DESC, doc_id ASC LIMIT 100",
        "events_value_histogram":
            "SELECT floor(value / 50.0)::BIGINT AS bin, "
            "count(*)::BIGINT AS n, round(avg(value), 4) AS avg_value "
            "FROM events GROUP BY 1",
        "events_corr_value_time":
            "SELECT event_type, round(corr(value, epoch(ts)), 4) "
            "AS corr_vt FROM events GROUP BY event_type",
        "events_zorder_key":
            "SELECT event_id, %s AS zkey FROM (SELECT event_id, "
            "user_id, CAST(round(value * 100) AS BIGINT) AS cents "
            "FROM events)" % _morton_sql("user_id", "cents"),
        "docs_length_gini":
            "WITH d AS (SELECT length(text)::BIGINT AS len "
            "FROM documents), "
            "r AS (SELECT len, row_number() OVER (ORDER BY len) AS "
            "rn, count(*) OVER () AS n, sum(len) OVER () AS s "
            "FROM d) "
            "SELECT max(n)::BIGINT AS n_docs, "
            "round(sum((2 * rn - n - 1) * len)::DOUBLE "
            "/ (max(n) * max(s)), 4) AS gini FROM r",
        "word_link_prediction_top20":
            "WITH words AS (SELECT doc_id, w, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY i) AS rn FROM (SELECT "
            "doc_id, unnest(string_split(text, ' ')) AS w, "
            "generate_subscripts(string_split(text, ' '), 1) AS i "
            "FROM documents)), "
            "bg AS (SELECT DISTINCT a.doc_id, least(a.w, b.w) AS w1, "
            "greatest(a.w, b.w) AS w2 FROM words a JOIN words b ON "
            "a.doc_id = b.doc_id AND b.rn = a.rn + 1 AND a.w <> b.w "
            "AND a.w <> '' AND b.w <> ''), "
            "edges AS (SELECT w1, w2 FROM bg GROUP BY w1, w2 "
            "HAVING count(*) >= 60), "
            "und AS (SELECT w1 AS c, w2 AS n FROM edges "
            "UNION ALL SELECT w2, w1 FROM edges), "
            "cn AS (SELECT a.n AS w1, b.n AS w2, count(*)::BIGINT AS "
            "common FROM und a JOIN und b ON a.c = b.c AND a.n < b.n "
            "GROUP BY 1, 2) "
            "SELECT cn.w1, cn.w2, cn.common FROM cn LEFT JOIN edges e "
            "ON e.w1 = cn.w1 AND e.w2 = cn.w2 WHERE e.w1 IS NULL "
            "ORDER BY cn.common DESC, cn.w1, cn.w2 LIMIT 20",
        "embedding_quantize_int8":
            "WITH x AS (SELECT vec_id, g.i AS dim, "
            "embedding[g.i]::DOUBLE AS v FROM embeddings, "
            "generate_series(1, 64) g(i)), "
            "mm AS (SELECT dim, min(v) AS mn, max(v) AS mx "
            "FROM x GROUP BY dim) "
            "SELECT x.vec_id, x.dim, "
            "CASE WHEN mm.mx = mm.mn THEN -127 ELSE "
            "CAST(round((x.v - mm.mn) * 254.0 / (mm.mx - mm.mn)) "
            "- 127 AS BIGINT) END::BIGINT AS q "
            "FROM x JOIN mm USING (dim)",
        "events_max_concurrency":
            "WITH edges AS (SELECT epoch_us(ts) AS t, 1 AS d "
            "FROM events UNION ALL "
            "SELECT epoch_us(ts) + 1800000000, -1 FROM events), "
            "r AS (SELECT sum(d) OVER (ORDER BY t, d "
            "ROWS UNBOUNDED PRECEDING) AS c FROM edges) "
            "SELECT max(c)::BIGINT AS max_concurrent FROM r "
            "HAVING max(c) IS NOT NULL",
        "users_churned_monthly":
            "WITH d AS (SELECT DISTINCT user_id, "
            "year(ts) * 12 + month(ts) AS midx FROM events) "
            "SELECT a.midx, count(*)::BIGINT AS n_churned "
            "FROM d a LEFT JOIN d b ON a.user_id = b.user_id "
            "AND b.midx = a.midx + 1 WHERE b.user_id IS NULL "
            "GROUP BY a.midx",
        "events_value_band_pairs":
            "SELECT e1.event_type, count(*)::BIGINT AS n_pairs "
            "FROM events e1 JOIN events e2 "
            "ON e1.event_type = e2.event_type "
            "AND e1.event_id < e2.event_id "
            "AND abs(CAST(round(e1.value * 100) AS BIGINT) "
            "- CAST(round(e2.value * 100) AS BIGINT)) <= 5 "
            "GROUP BY 1",
        "orders_backlog_timeseries":
            "WITH pl AS (SELECT epoch_us(o_orderdate) // 86400000000 "
            "AS day, count(*)::BIGINT AS n FROM orders GROUP BY 1), "
            "cm AS (SELECT day, count(*)::BIGINT AS n FROM "
            "(SELECT l_orderkey, epoch_us(max(l_shipdate)) "
            "// 86400000000 AS day FROM lineitem GROUP BY "
            "l_orderkey) GROUP BY day), "
            "grid AS (SELECT DISTINCT day FROM (SELECT day FROM pl "
            "UNION ALL SELECT day FROM cm)) "
            "SELECT g.day, coalesce(pl.n, 0)::BIGINT AS placed, "
            "coalesce(cm.n, 0)::BIGINT AS completed, "
            "(sum(coalesce(pl.n, 0) - coalesce(cm.n, 0)) OVER "
            "(ORDER BY g.day ROWS UNBOUNDED PRECEDING))::BIGINT AS "
            "backlog FROM grid g LEFT JOIN pl USING (day) "
            "LEFT JOIN cm USING (day)",
        "q1_incremental_refresh":
            "SELECT l_returnflag, l_linestatus, "
            "round(sum(CAST(round(l_quantity * 100) AS BIGINT)) "
            "/ 100.0, 2) AS sum_qty, "
            "round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) "
            "/ 100.0, 2) AS sum_base_price, "
            "count(*)::BIGINT AS count_order FROM lineitem "
            "WHERE l_orderkey % 97 <> 0 "
            "GROUP BY l_returnflag, l_linestatus",
        "docs_ks_by_source":
            "WITH d AS (SELECT source, length(text)::BIGINT AS len "
            "FROM documents), "
            "tot AS (SELECT source, count(*)::BIGINT AS n FROM d "
            "GROUP BY 1), "
            "alln AS (SELECT count(*)::BIGINT AS n FROM d), "
            "grid AS (SELECT DISTINCT len FROM d), "
            "cs AS (SELECT t.source, t.n AS n_src, g.len, "
            "(SELECT count(*) FROM d d2 WHERE d2.source = t.source "
            "AND d2.len <= g.len) AS c_src, "
            "(SELECT count(*) FROM d d3 WHERE d3.len <= g.len) AS "
            "c_all FROM tot t CROSS JOIN grid g) "
            "SELECT source, round(max(abs(c_src::DOUBLE / n_src "
            "- c_all::DOUBLE / (SELECT n FROM alln))), 4) AS ks "
            "FROM cs GROUP BY source",
        "events_median_interarrival_us":
            "WITH g AS (SELECT epoch_us(ts) - lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS gap "
            "FROM events) SELECT quantile_cont(gap, 0.5) AS med_us "
            "FROM g WHERE gap IS NOT NULL",
        "events_enriched_user_n":
            "SELECT event_id, user_id, count(*) OVER "
            "(PARTITION BY user_id)::BIGINT AS user_n FROM events",
        "orders_monthly_growth":
            "WITH m AS (SELECT strftime(o_orderdate, '%Y-%m') AS "
            "month, sum(CAST(round(o_totalprice * 100) AS BIGINT)) "
            "AS s FROM orders GROUP BY 1), "
            "g AS (SELECT month, s, lag(s) OVER (ORDER BY month) AS "
            "prev FROM m) "
            "SELECT month, round(s / 100.0, 2) AS revenue, "
            "round((s - prev)::DOUBLE / nullif(prev, 0), 4) AS growth "
            "FROM g",
        "events_dau_wau_stickiness":
            "WITH d AS (SELECT DISTINCT user_id, "
            "epoch_us(ts) // 86400000000 AS day FROM events), "
            "days AS (SELECT DISTINCT day FROM d), "
            "w AS (SELECT days.day, d.user_id, "
            "max(CASE WHEN d.day = days.day THEN 1 ELSE 0 END) AS "
            "is_dau FROM days JOIN d ON d.day BETWEEN days.day - 6 "
            "AND days.day GROUP BY days.day, d.user_id) "
            "SELECT day, sum(is_dau)::BIGINT AS dau, "
            "count(*)::BIGINT AS wau, "
            "round(sum(is_dau)::DOUBLE / count(*), 4) AS stickiness "
            "FROM w GROUP BY day",
        "part_copurchase_top20":
            "WITH d AS (SELECT DISTINCT l_orderkey, l_partkey "
            "FROM lineitem) "
            "SELECT a.l_partkey AS p1, b.l_partkey AS p2, "
            "count(*)::BIGINT AS n_orders "
            "FROM d a JOIN d b ON a.l_orderkey = b.l_orderkey "
            "AND a.l_partkey < b.l_partkey "
            "GROUP BY 1, 2 ORDER BY n_orders DESC, p1, p2 LIMIT 20",
        "events_trend_by_type":
            "SELECT event_type, "
            "round(regr_slope(value, epoch_us(ts) / 86400000000.0), 4) "
            "AS slope_per_day, "
            "round(regr_intercept(value, epoch_us(ts) / 86400000000.0)"
            ", 4) AS intercept, "
            "round(regr_r2(value, epoch_us(ts) / 86400000000.0), 4) "
            "AS r2 FROM events GROUP BY event_type",
        "events_throttled":
            "WITH o AS (SELECT user_id, event_type, event_id, "
            "epoch_us(ts) AS ts_us, lag(epoch_us(ts)) OVER "
            "(PARTITION BY user_id, event_type ORDER BY ts, event_id) "
            "AS prev_us FROM events) "
            "SELECT user_id, event_type, event_id, ts_us FROM o "
            "WHERE prev_us IS NULL OR ts_us - prev_us > 60000000",
        "events_rollup":
            "SELECT coalesce(event_type, 'ALL') AS event_type, "
            "coalesce(hour(ts), -1)::BIGINT AS hr, count(*)::BIGINT AS n "
            "FROM events GROUP BY ROLLUP (event_type, hour(ts))",
        "doc_char_entropy":
            "SELECT doc_id, round(entropy(c), 4) AS char_entropy "
            "FROM (SELECT doc_id, unnest(split(text, '')) AS c "
            "FROM documents) GROUP BY doc_id",
        "customer_event_counts":
            "SELECT c.c_custkey, c.c_mktsegment, "
            "count(e.user_id)::BIGINT AS n_events "
            "FROM customer c LEFT JOIN events e ON e.user_id = c.c_custkey "
            "GROUP BY c.c_custkey, c.c_mktsegment",
        "q6_forecast_revenue":
            "SELECT round(sum(l_extendedprice * l_discount), 2) AS revenue "
            "FROM lineitem "
            "WHERE l_shipdate >= TIMESTAMP '1996-01-01' "
            "AND l_shipdate < TIMESTAMP '1997-01-01' "
            "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        "events_funnel":
            "WITH v AS (SELECT user_id, min(ts) AS t1 FROM events "
            "WHERE event_type = 'view' GROUP BY user_id), "
            "c AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e "
            "JOIN v ON e.user_id = v.user_id AND e.ts > v.t1 "
            "WHERE e.event_type = 'click' GROUP BY e.user_id), "
            "p AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e "
            "JOIN c ON e.user_id = c.user_id AND e.ts > c.t2 "
            "WHERE e.event_type = 'purchase' GROUP BY e.user_id) "
            "SELECT v.user_id, epoch_us(v.t1) AS view_us, "
            "epoch_us(c.t2) AS click_us, epoch_us(p.t3) AS purchase_us "
            "FROM v JOIN c ON v.user_id = c.user_id "
            "JOIN p ON v.user_id = p.user_id",
        "events_cohort_retention":
            "WITH d AS (SELECT DISTINCT user_id, "
            "floor(epoch(ts) / 86400)::BIGINT AS day FROM events), "
            "f AS (SELECT user_id, min(day) AS cohort_day FROM d "
            "GROUP BY user_id) "
            "SELECT f.cohort_day, d.day - f.cohort_day AS day_offset, "
            "count(DISTINCT d.user_id)::BIGINT AS n_users "
            "FROM d JOIN f ON d.user_id = f.user_id "
            "GROUP BY f.cohort_day, d.day - f.cohort_day",
        "lineitem_profile":
            " UNION ALL ".join(
                "SELECT '%s' AS col, count(%s)::BIGINT AS n, "
                "(count(*) - count(%s))::BIGINT AS n_null, "
                "round(min(%s), 4) AS min_v, round(max(%s), 4) AS max_v, "
                "sum(CAST(round(%s * 10000, 0) AS BIGINT)) "
                "/ (10000.0 * count(%s)) AS mean_v FROM lineitem"
                % (c, c, c, c, c, c, c)
                for c in ("l_quantity", "l_extendedprice", "l_discount",
                          "l_tax")),
        "events_top3_per_user":
            "WITH ranked AS (SELECT user_id, event_id, value, "
            "row_number() OVER (PARTITION BY user_id "
            "ORDER BY value DESC, event_id ASC) AS rn FROM events) "
            "SELECT user_id, event_id, value, rn FROM ranked WHERE rn <= 3",
        "lineitem_semi_urgent":
            "SELECT l_orderkey, l_linenumber FROM lineitem "
            "WHERE l_orderkey IN (SELECT o_orderkey FROM orders "
            "WHERE o_orderpriority = '1-URGENT')",
        "docs_ari":
            "WITH c AS (SELECT doc_id, "
            "length(regexp_replace(text, '\\s', '', 'g'))::BIGINT "
            "AS n_chars, "
            "len(regexp_split_to_array(trim(text), '\\s+'))::BIGINT "
            "AS n_words, "
            "greatest(len(regexp_extract_all(text, '[.!?]+')), 1)"
            "::BIGINT AS n_sentences FROM documents) "
            "SELECT doc_id, n_chars, n_words, n_sentences, "
            "round(4.71 * (n_chars::DOUBLE / n_words) "
            "+ 0.5 * (n_words::DOUBLE / n_sentences) - 21.43, 4) "
            "AS ari FROM c",
        "events_cusum_changepoint":
            "WITH h AS (SELECT epoch_us(date_trunc('hour', ts)) AS "
            "h_us, sum(CAST(round(value * 100) AS BIGINT)) AS s "
            "FROM events GROUP BY 1), "
            "t AS (SELECT count(*) AS n, sum(s) AS tot FROM h), "
            "c AS (SELECT h_us, sum(s) OVER (ORDER BY h_us) AS cum, "
            "row_number() OVER (ORDER BY h_us) AS i FROM h) "
            "SELECT c.h_us, (c.cum * t.n - c.i * t.tot)::BIGINT AS "
            "cusum_num, t.n::BIGINT AS n_hours FROM c, t "
            "ORDER BY abs(c.cum * t.n - c.i * t.tot) DESC, c.h_us "
            "LIMIT 1",
        "events_mannwhitney_purchase_view":
            "WITH v AS (SELECT event_type AS g, "
            "CAST(round(value * 100) AS BIGINT) AS c FROM events "
            "WHERE event_type IN ('purchase', 'view')), "
            "r AS (SELECT g, c, rank() OVER (ORDER BY c) "
            "+ (count(*) OVER (PARTITION BY c) - 1) / 2.0 AS ar "
            "FROM v), "
            "agg AS (SELECT "
            "(SELECT count(*) FROM v WHERE g = 'purchase')::BIGINT "
            "AS n1, "
            "(SELECT count(*) FROM v WHERE g = 'view')::BIGINT AS n2, "
            "(SELECT sum(ar) FROM r WHERE g = 'purchase') AS r1, "
            "(SELECT sum(t * t * t - t) FROM (SELECT count(*)::DOUBLE "
            "AS t FROM v GROUP BY c)) AS tie) "
            "SELECT n1 AS n_purchase, n2 AS n_view, "
            "r1 - n1 * (n1 + 1) / 2.0 AS u, "
            "round((r1 - n1 * (n1 + 1) / 2.0 - n1 * n2 / 2.0) "
            "/ sqrt(n1 * n2 / 12.0 * ((n1 + n2 + 1) "
            "- tie / ((n1 + n2) * (n1 + n2 - 1.0)))), 4) AS z "
            "FROM agg",
        "events_weekend_ttest":
            "WITH e AS (SELECT CASE WHEN dayofweek(ts) IN (0, 6) "
            "THEN 1 ELSE 0 END AS wknd, "
            "CAST(round(value * 100) AS BIGINT) AS c FROM events), "
            "g AS (SELECT wknd, count(*)::BIGINT AS n, "
            "sum(c)::BIGINT AS s, sum(c * c)::BIGINT AS s2 "
            "FROM e GROUP BY 1), "
            "st AS (SELECT wknd, n, s::DOUBLE / n AS m, "
            "(s2 - s::DOUBLE * s / n) / (n - 1) AS v FROM g) "
            "SELECT w1.n AS n_weekend, w0.n AS n_weekday, "
            "round((w1.m - w0.m) / 100.0, 4) AS mean_diff, "
            "round((w1.m - w0.m) / sqrt(w1.v / w1.n + w0.v / w0.n), "
            "4) AS t_stat, "
            "round(power(w1.v / w1.n + w0.v / w0.n, 2) "
            "/ (power(w1.v / w1.n, 2) / (w1.n - 1) "
            "+ power(w0.v / w0.n, 2) / (w0.n - 1)), 4) AS welch_df "
            "FROM st w1, st w0 WHERE w1.wknd = 1 AND w0.wknd = 0 "
            "AND w1.n > 1 AND w0.n > 1",
        "docs_chi2_lang_source":
            "WITH c AS (SELECT source, lang, count(*)::DOUBLE AS o "
            "FROM documents WHERE source IS NOT NULL "
            "AND lang IS NOT NULL GROUP BY 1, 2), "
            "rt AS (SELECT source, sum(o) AS r FROM c GROUP BY 1), "
            "ct AS (SELECT lang, sum(o) AS cl FROM c GROUP BY 1), "
            "tot AS (SELECT sum(o) AS n FROM c) "
            "SELECT round(sum(power(coalesce(c.o, 0) "
            "- rt.r * ct.cl / t.n, 2) / (rt.r * ct.cl / t.n)), 4) "
            "AS chi2, "
            "(((SELECT count(*) FROM rt) - 1) "
            "* ((SELECT count(*) FROM ct) - 1))::BIGINT AS dof, "
            "CAST(t.n AS BIGINT) AS n "
            "FROM rt CROSS JOIN ct CROSS JOIN tot t "
            "LEFT JOIN c ON c.source = rt.source AND c.lang = ct.lang "
            "GROUP BY t.n",
        "docs_length_theil":
            "WITH d AS (SELECT source, length(text)::BIGINT AS len "
            "FROM documents), "
            "tot AS (SELECT count(*)::DOUBLE AS n, avg(len) AS mu "
            "FROM d), "
            "per AS (SELECT source, count(*)::DOUBLE AS ns, "
            "avg(len) AS mus FROM d GROUP BY source), "
            "wg AS (SELECT p.source, (p.ns * p.mus) / (t.n * t.mu) "
            "AS share, (SELECT sum((d2.len / p.mus) * "
            "ln(d2.len / p.mus)) / p.ns FROM d d2 "
            "WHERE d2.source = p.source) AS theil FROM per p, tot t), "
            "btw AS (SELECT '__between__' AS source, 1.0 AS share, "
            "sum((p.ns * p.mus) / (t.n * t.mu) * ln(p.mus / t.mu)) "
            "AS theil FROM per p, tot t), "
            "ttl AS (SELECT '__total__' AS source, 1.0 AS share, "
            "(SELECT sum((d3.len / t.mu) * ln(d3.len / t.mu)) / t.n "
            "FROM d d3) AS theil FROM tot t) "
            "SELECT source, round(share, 4) AS share, "
            "round(theil, 4) AS theil FROM wg "
            "UNION ALL SELECT source, round(share, 4), "
            "round(theil, 4) FROM btw "
            "UNION ALL SELECT source, round(share, 4), "
            "round(theil, 4) FROM ttl",
        "events_hourly_acf":
            "WITH h AS (SELECT date_trunc('hour', ts) AS h, "
            "sum(CAST(round(value * 100) AS BIGINT)) AS s FROM events "
            "GROUP BY 1) "
            "SELECT g.k AS lag, round(corr(a.s, b.s), 4) AS r, "
            "count(*)::BIGINT AS n_pairs "
            "FROM generate_series(1, 24) g(k) "
            "JOIN h a ON true "
            "JOIN h b ON b.h = a.h + to_hours(g.k) "
            "GROUP BY g.k HAVING count(*) >= 2 "
            "AND corr(a.s, b.s) IS NOT NULL",
        "events_itemsets3":
            "WITH d AS (SELECT DISTINCT user_id, event_type "
            "FROM events) "
            "SELECT a.event_type AS t1, b.event_type AS t2, "
            "c.event_type AS t3, count(*)::BIGINT AS support "
            "FROM d a JOIN d b ON a.user_id = b.user_id "
            "AND a.event_type < b.event_type "
            "JOIN d c ON b.user_id = c.user_id "
            "AND b.event_type < c.event_type GROUP BY 1, 2, 3",
        "events_user_streaks":
            "WITH d AS (SELECT DISTINCT user_id, "
            "epoch_us(ts) // 86400000000 AS day FROM events), "
            "r AS (SELECT user_id, day, day - row_number() OVER "
            "(PARTITION BY user_id ORDER BY day) AS isl FROM d), "
            "i AS (SELECT user_id, count(*)::BIGINT AS run FROM r "
            "GROUP BY user_id, isl) "
            "SELECT user_id, sum(run)::BIGINT AS n_active_days, "
            "count(*)::BIGINT AS n_streaks, max(run)::BIGINT AS "
            "max_streak FROM i GROUP BY user_id",
        "events_user_type_runs":
            "WITH o AS (SELECT user_id, event_id, epoch_us(ts) AS "
            "ts_us, event_type FROM events), "
            "b AS (SELECT *, CASE WHEN lag(event_type) OVER "
            "(PARTITION BY user_id ORDER BY ts_us, event_id) "
            "IS DISTINCT FROM event_type THEN 1 ELSE 0 END AS brk "
            "FROM o), "
            "g AS (SELECT *, sum(brk) OVER (PARTITION BY user_id "
            "ORDER BY ts_us, event_id ROWS UNBOUNDED PRECEDING) AS "
            "grp FROM b) "
            "SELECT user_id, min(event_type) AS state, "
            "count(*)::BIGINT AS n_events, min(ts_us) AS start_us, "
            "max(ts_us) AS end_us FROM g GROUP BY user_id, grp",
        "events_value_mad":
            "SELECT event_type, round(median(value), 4) AS med, "
            "round(mad(value), 4) AS mad, count(*)::BIGINT AS n "
            "FROM events GROUP BY event_type",
        "events_benford":
            "WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS "
            "cents FROM events WHERE round(value * 100) >= 1), "
            "d AS (SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) "
            "AS BIGINT) AS digit FROM c), "
            "g AS (SELECT digit, count(*)::BIGINT AS n FROM d "
            "GROUP BY digit) "
            "SELECT digit, n, CAST((n * 10000) // "
            "(SELECT sum(n) FROM g) AS BIGINT) "
            "AS frac_bp, CAST(round(log10(1 + 1.0 / digit) * 10000) "
            "AS BIGINT) AS benford_bp FROM g",
        "events_seasonal_residuals":
            "WITH e AS (SELECT event_id, dayofweek(ts)::BIGINT AS dow, "
            "hour(ts)::BIGINT AS hr, "
            "CAST(round(value * 100) AS BIGINT) AS cents FROM events), "
            "b AS (SELECT dow, hr, sum(cents)::BIGINT AS s, "
            "count(*)::BIGINT AS n FROM e GROUP BY dow, hr) "
            "SELECT e.event_id, e.dow, e.hr, e.cents, "
            "(e.cents * b.n - b.s)::BIGINT AS resid_num, "
            "b.n AS cell_n FROM e JOIN b USING (dow, hr) "
            "ORDER BY abs((e.cents * b.n - b.s)::DOUBLE / b.n) DESC, "
            "e.event_id LIMIT 20",
        "events_ohlc_hourly":
            "WITH c AS (SELECT epoch_us(date_trunc('hour', ts)) AS h_us, "
            "ts, event_id, CAST(round(value * 100) AS BIGINT) AS cents "
            "FROM events), w AS (SELECT h_us, cents, "
            "row_number() OVER (PARTITION BY h_us "
            "ORDER BY ts, event_id) AS ra, "
            "row_number() OVER (PARTITION BY h_us "
            "ORDER BY ts DESC, event_id DESC) AS rd FROM c) "
            "SELECT h_us, max(CASE WHEN ra = 1 THEN cents END) AS open_c, "
            "max(cents) AS high_c, min(cents) AS low_c, "
            "max(CASE WHEN rd = 1 THEN cents END) AS close_c, "
            "count(*)::BIGINT AS n FROM w GROUP BY h_us",
        "decontaminate_docs": decontam_sql(),
        "events_props_stats":
            "SELECT event_type, count(*)::BIGINT AS n, "
            "round(avg(CAST(props->>'$.k' AS BIGINT)), 4) AS avg_k "
            "FROM events GROUP BY event_type",
        "events_value_quantiles":
            "SELECT event_type, round(quantile_cont(value, 0.5), 4) AS p50, "
            "round(quantile_cont(value, 0.95), 4) AS p95 "
            "FROM events GROUP BY event_type",
        "events_latest_per_user":
            "SELECT user_id, epoch_us(ts) AS ts_us, event_id, event_type, "
            "value FROM (SELECT *, row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id DESC) AS rn FROM events) "
            "WHERE rn = 1",
        "events_dq_report":
            "SELECT count(*)::BIGINT AS n_rows, "
            "sum(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END)::BIGINT "
            "AS n_null_user, "
            "sum(CASE WHEN value <= 0 THEN 1 ELSE 0 END)::BIGINT "
            "AS n_nonpos_value, "
            "sum(CASE WHEN event_type NOT IN ('view','click','purchase',"
            "'signup') THEN 1 ELSE 0 END)::BIGINT AS n_bad_type, "
            "sum(CASE WHEN ts < TIMESTAMP '2024-01-01' OR "
            "ts >= TIMESTAMP '2024-02-01' THEN 1 ELSE 0 END)::BIGINT "
            "AS n_ts_out_of_range FROM events",
        "events_value_zscore":
            "SELECT event_id, round((value - m) / s, 4) AS z FROM events "
            "CROSS JOIN (SELECT avg(value) AS m, stddev_pop(value) AS s "
            "FROM events)",
        "events_zscore_by_type":
            "SELECT event_id, round((value - avg(value) OVER w) / "
            "stddev_pop(value) OVER w, 4) AS z FROM events "
            "WINDOW w AS (PARTITION BY event_type)",
        "events_value_ntile4":
            "SELECT event_id, ntile(4) OVER (ORDER BY value, event_id) "
            "AS tile FROM events",
        "events_cumulative_value":
            "SELECT event_id, round(sum(CAST(round(value * 10000) AS "
            "BIGINT)) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) / 10000.0, 4) "
            "AS cum_value FROM events",
        "events_interarrival":
            "SELECT user_id, round(avg(gap), 4) AS avg_gap_s, "
            "count(*)::BIGINT AS n_gaps FROM (SELECT user_id, "
            "(epoch_us(ts) - lag(epoch_us(ts)) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id)) / 1e6 AS gap FROM events) "
            "WHERE gap IS NOT NULL GROUP BY user_id",
        "events_global_quantiles":
            "SELECT round(quantile_cont(value, 0.5), 4) AS p50, "
            "round(quantile_cont(value, 0.95), 4) AS p95, "
            "round(quantile_cont(value, 0.99), 4) AS p99 FROM events",
        "events_sliding_3h":
            "SELECT CAST(ws AS VARCHAR) AS window_start, "
            "count(*)::BIGINT AS n FROM (SELECT unnest(["
            "date_trunc('hour', ts), "
            "date_trunc('hour', ts) - INTERVAL 1 HOUR, "
            "date_trunc('hour', ts) - INTERVAL 2 HOUR]) AS ws "
            "FROM events) GROUP BY ws",
        "boilerplate_ngrams":
            _NGRAM_SQL_GRAMS +
            " SELECT gram, count(*)::BIGINT AS df FROM "
            "(SELECT doc_id, unnest(grams) AS gram FROM g) "
            "GROUP BY gram HAVING count(*) >= 5 "
            "ORDER BY df DESC, gram ASC LIMIT 20",
        "doc_dup_ngram_frac":
            _NGRAM_SQL_GRAMS +
            ", e AS (SELECT doc_id, unnest(grams) AS gram FROM g), "
            "df AS (SELECT gram, count(*) AS df FROM e GROUP BY gram) "
            "SELECT e.doc_id, "
            "sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END)::DOUBLE "
            "/ count(*) AS dup_gram_frac "
            "FROM e JOIN df USING (gram) GROUP BY e.doc_id",
        "docs_sample_10pct":
            "SELECT doc_id FROM documents WHERE "
            "('0x' || substr(md5(text), 1, 8))::BIGINT % 10 = 0",
        "docs_sample_exact100":
            "SELECT doc_id, md5(text) AS pri FROM documents "
            "ORDER BY pri, doc_id LIMIT 100",
        "docs_weighted_mix":
            "SELECT doc_id, source FROM documents WHERE "
            "('0x' || substr(md5(text), 1, 8))::BIGINT % 100 "
            "< 25 * (substr(source, 4)::BIGINT % 4 + 1)",
        "docs_new_vs_seen":
            "WITH keyed AS (SELECT doc_id, "
            "('0x' || substr(md5(text), 1, 8))::BIGINT AS k "
            "FROM documents) "
            "SELECT p.doc_id FROM keyed p WHERE p.doc_id % 3 != 0 "
            "AND NOT EXISTS (SELECT 1 FROM keyed s "
            "WHERE s.doc_id % 3 = 0 AND s.k = p.k)",
        "docs_pack_sequences":
            "WITH c AS (SELECT doc_id, CASE WHEN trim(text) = '' THEN 0 "
            "ELSE len(regexp_split_to_array(trim(text), '\\s+')) "
            "END::BIGINT AS n_tokens FROM documents) "
            "SELECT doc_id, n_tokens, "
            "COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), "
            "0)::BIGINT AS tok_offset, "
            "(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) "
            "// 2048)::BIGINT AS chunk_id FROM c",
        "events_stratified_sample":
            "WITH r AS (SELECT event_type, event_id, row_number() OVER ("
            "PARTITION BY event_type ORDER BY md5(event_id::VARCHAR), "
            "event_id) AS rn FROM events) "
            "SELECT event_type, event_id FROM r WHERE rn <= 5",
        "q3_shipping":
            "SELECT l_orderkey, CAST(o_orderdate AS VARCHAR) AS o_orderdate, "
            "round(sum(" + _REV_SQL + ") / 10000.0, 2) AS revenue "
            "FROM customer JOIN orders ON c_custkey = o_custkey "
            "JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE c_mktsegment = 'BUILDING' "
            "AND o_orderdate < TIMESTAMP '1995-03-15' "
            "AND l_shipdate > TIMESTAMP '1995-03-15' "
            "GROUP BY l_orderkey, o_orderdate "
            "ORDER BY sum(" + _REV_SQL + ") DESC, l_orderkey LIMIT 10",
        "q5_local_supplier":
            "SELECT n_name, "
            "round(sum(" + _REV_SQL + ") / 10000.0, 2) AS revenue "
            "FROM customer, orders, lineitem, supplier, nation, region "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
            "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
            "AND r_name = 'ASIA' "
            "AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1997-01-01' "
            "GROUP BY n_name ORDER BY revenue DESC",
        "normalize_docs":
            "SELECT doc_id, md5(array_to_string(list_filter("
            "regexp_extract_all(translate(text, "
            "'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
            "'abcdefghijklmnopqrstuvwxyz'), '[0-9a-z_]+'), "
            "w -> NOT list_contains(" + _EN_STOPWORDS_SQL + ", w)), ' ')) "
            "AS norm_md5 FROM documents",
        "top_words":
            "WITH w AS (SELECT unnest(regexp_split_to_array(lower(text), "
            "'\\s+')) AS word FROM documents WHERE trim(text) != '') "
            "SELECT word, count(*)::BIGINT AS n FROM w WHERE word != '' "
            "GROUP BY word ORDER BY n DESC, word ASC LIMIT 20",
        "nation_region":
            "SELECT r_name, count(*)::BIGINT AS n_nations FROM nation "
            "JOIN region ON n_regionkey = r_regionkey GROUP BY r_name",
        "order_status_counts":
            "SELECT o_orderstatus, count(*)::BIGINT AS n FROM orders "
            "GROUP BY o_orderstatus",
        "substring_dup_frac":
            "WITH grams AS (SELECT DISTINCT doc_id, "
            "substring(text, i+1, 16) AS gram FROM documents, LATERAL "
            "(SELECT unnest(range(0, greatest(length(text)-15, 0))) AS i) "
            "WHERE length(text) >= 16), "
            "gc AS (SELECT gram, count(*) AS nd FROM grams GROUP BY gram) "
            "SELECT g.doc_id, round(avg(CASE WHEN gc.nd >= 2 THEN 1.0 "
            "ELSE 0.0 END), 4) AS dup_frac "
            "FROM grams g JOIN gc USING(gram) GROUP BY g.doc_id",
        "word_cooccur_edges":
            "WITH words AS (SELECT doc_id, w, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY i) AS rn FROM (SELECT doc_id, "
            "unnest(string_split(text, ' ')) AS w, generate_subscripts("
            "string_split(text, ' '), 1) AS i FROM documents)), "
            "bg AS (SELECT DISTINCT a.doc_id, least(a.w, b.w) AS w1, "
            "greatest(a.w, b.w) AS w2 FROM words a JOIN words b ON "
            "a.doc_id = b.doc_id AND b.rn = a.rn + 1 AND a.w <> b.w "
            "AND a.w <> '' AND b.w <> '') "
            "SELECT w1, w2, count(*)::BIGINT AS df FROM bg "
            "GROUP BY w1, w2 HAVING count(*) >= 60",
        "word_triangles":
            "WITH words AS (SELECT doc_id, w, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY i) AS rn FROM (SELECT doc_id, "
            "unnest(string_split(text, ' ')) AS w, generate_subscripts("
            "string_split(text, ' '), 1) AS i FROM documents)), "
            "bg AS (SELECT DISTINCT a.doc_id, least(a.w, b.w) AS w1, "
            "greatest(a.w, b.w) AS w2 FROM words a JOIN words b ON "
            "a.doc_id = b.doc_id AND b.rn = a.rn + 1 AND a.w <> b.w "
            "AND a.w <> '' AND b.w <> ''), "
            "edges AS (SELECT w1, w2 FROM bg GROUP BY w1, w2 "
            "HAVING count(*) >= 60) "
            "SELECT e1.w1 AS w1, e1.w2 AS w2, e2.w2 AS w3 FROM edges e1 "
            "JOIN edges e2 ON e2.w1 = e1.w2 "
            "JOIN edges e3 ON e3.w1 = e1.w1 AND e3.w2 = e2.w2",
        "q4_priority_late":
            "WITH lm AS (SELECT l_orderkey, max(l_shipdate) AS mx "
            "FROM lineitem GROUP BY l_orderkey) "
            "SELECT o_orderpriority, count(*)::BIGINT AS n "
            "FROM orders JOIN lm ON lm.l_orderkey = o_orderkey "
            "WHERE mx > o_orderdate + INTERVAL 60 DAY "
            "GROUP BY o_orderpriority",
        "q10_returned_customers":
            "SELECT c_custkey, c_name, n_name, "
            "round(sum(" + _REV_SQL + ") / 10000.0, 2) AS revenue "
            "FROM customer, orders, lineitem, nation "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1996-07-01' "
            "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
            "GROUP BY c_custkey, c_name, n_name "
            "ORDER BY sum(" + _REV_SQL + ") DESC, "
            "c_custkey LIMIT 20",
        "q12_returnflag_priority":
            "SELECT l_returnflag, "
            "sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') "
            "THEN 1 ELSE 0 END)::BIGINT AS high_line_count, "
            "sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH') "
            "THEN 1 ELSE 0 END)::BIGINT AS low_line_count "
            "FROM orders JOIN lineitem ON l_orderkey = o_orderkey "
            "WHERE l_shipdate >= TIMESTAMP '1997-01-01' "
            "AND l_shipdate < TIMESTAMP '1998-01-01' "
            "GROUP BY l_returnflag",
        "q14_promo_revenue":
            "SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO' THEN "
            + _REV_SQL + " ELSE 0 END) / "
            "sum(" + _REV_SQL + "), 4) AS promo_revenue "
            "FROM lineitem JOIN part ON l_partkey = p_partkey "
            "WHERE l_shipdate >= TIMESTAMP '1997-09-01' "
            "AND l_shipdate < TIMESTAMP '1997-10-01'",
        "q7_nation_volume":
            "SELECT supp_nation, cust_nation, l_year, "
            "round(sum(rev) / 10000.0, 2) AS revenue FROM ("
            "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
            "year(l_shipdate)::BIGINT AS l_year, " + _REV_SQL + " AS rev "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN customer ON c_custkey = o_custkey "
            "JOIN nation n1 ON s_nationkey = n1.n_nationkey "
            "JOIN nation n2 ON c_nationkey = n2.n_nationkey "
            "WHERE ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_7') "
            "OR (n1.n_name = 'NATION_7' AND n2.n_name = 'NATION_3')) "
            "AND l_shipdate >= TIMESTAMP '1999-01-01' "
            "AND l_shipdate < TIMESTAMP '2001-01-01') "
            "GROUP BY 1, 2, 3 ORDER BY 1, 2, 3",
        "q8_market_share":
            "SELECT o_year, round(sum(CASE WHEN nation = 'NATION_8' "
            "THEN rev ELSE 0 END)::DOUBLE / sum(rev), 4) AS mkt_share "
            "FROM (SELECT year(o_orderdate)::BIGINT AS o_year, "
            + _REV_SQL + " AS rev, n1.n_name AS nation "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "JOIN part ON p_partkey = l_partkey "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN customer ON c_custkey = o_custkey "
            "JOIN nation n1 ON s_nationkey = n1.n_nationkey "
            "JOIN nation n2 ON c_nationkey = n2.n_nationkey "
            "JOIN region ON r_regionkey = n2.n_regionkey "
            "WHERE r_name = 'ASIA' AND p_type = 'STANDARD' "
            "AND o_orderdate >= TIMESTAMP '1996-01-01' "
            "AND o_orderdate < TIMESTAMP '1998-01-01') "
            "GROUP BY o_year ORDER BY o_year",
        "q9_profit_by_nation":
            "SELECT nation, o_year, "
            "round(sum(amount) / 10000.0, 2) AS sum_profit FROM ("
            "SELECT n_name AS nation, year(o_orderdate)::BIGINT AS "
            "o_year, " + _REV_SQL + " AS amount "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "JOIN part ON p_partkey = l_partkey "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN nation ON s_nationkey = n_nationkey "
            "WHERE p_name LIKE '%red%') "
            "GROUP BY 1, 2 ORDER BY nation, o_year DESC",
        "q13_order_distribution":
            "SELECT c_count, count(*)::BIGINT AS custdist FROM ("
            "SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count "
            "FROM customer LEFT JOIN orders ON c_custkey = o_custkey "
            "GROUP BY c_custkey) GROUP BY c_count "
            "ORDER BY custdist DESC, c_count DESC",
        "q15_top_supplier":
            "WITH rev AS (SELECT l_suppkey, sum(" + _REV_SQL + ") AS r "
            "FROM lineitem WHERE l_shipdate >= TIMESTAMP '1999-01-01' "
            "AND l_shipdate < TIMESTAMP '1999-04-01' GROUP BY l_suppkey) "
            "SELECT s_suppkey, s_name, round(r / 10000.0, 2) AS "
            "total_revenue FROM rev JOIN supplier ON s_suppkey = "
            "l_suppkey WHERE r = (SELECT max(r) FROM rev) "
            "ORDER BY s_suppkey",
        "q17_small_quantity_revenue":
            "WITH pp AS (SELECT l_partkey AS pk, "
            "sum(CAST(round(l_quantity * 100) AS BIGINT)) AS sq, "
            "count(*)::BIGINT AS c FROM lineitem "
            "JOIN part ON p_partkey = l_partkey "
            "WHERE p_brand = 'Brand#23' GROUP BY l_partkey) "
            "SELECT round(sum(CAST(round(l_extendedprice * 100) AS "
            "BIGINT)) / 100.0 / 7.0, 2) AS avg_yearly "
            "FROM lineitem JOIN pp ON pk = l_partkey "
            "WHERE 5 * CAST(round(l_quantity * 100) AS BIGINT) * c < sq",
        "q18_large_volume":
            "SELECT c_name, c_custkey, o_orderkey, o_orderdate, "
            "o_totalprice, round(sq / 100.0, 2) AS sum_qty "
            "FROM (SELECT l_orderkey, "
            "sum(CAST(round(l_quantity * 100) AS BIGINT)) AS sq "
            "FROM lineitem GROUP BY l_orderkey HAVING sq > 15000) "
            "JOIN orders ON o_orderkey = l_orderkey "
            "JOIN customer ON c_custkey = o_custkey "
            "ORDER BY o_totalprice DESC, o_orderdate, o_orderkey "
            "LIMIT 100",
        "q19_disjunct_revenue":
            # coalesce pins the 0-revenue-on-empty semantic the Ray
            # side implements (SQL sum over zero rows is NULL; at tiny
            # sf the disjuncts can match nothing)
            "SELECT round(coalesce(sum(" + _REV_SQL + "), 0) "
            "/ 10000.0, 2) AS revenue "
            "FROM lineitem JOIN part ON p_partkey = l_partkey WHERE "
            "(p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5 "
            "AND round(l_quantity) BETWEEN 1 AND 11) "
            "OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10 "
            "AND round(l_quantity) BETWEEN 10 AND 20) "
            "OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15 "
            "AND round(l_quantity) BETWEEN 20 AND 30)",
        "q22_idle_customers":
            "WITH s AS (SELECT sum(CAST(round(c_acctbal * 100) AS "
            "BIGINT)) AS sc, count(*)::BIGINT AS c FROM customer "
            "WHERE CAST(round(c_acctbal * 100) AS BIGINT) > 0) "
            "SELECT c_nationkey::BIGINT AS n_nationkey, "
            "count(*)::BIGINT AS numcust, "
            "round(sum(CAST(round(c_acctbal * 100) AS BIGINT)) / 100.0, "
            "2) AS totacctbal FROM customer, s "
            "WHERE CAST(round(c_acctbal * 100) AS BIGINT) * c > sc "
            "AND c_custkey NOT IN (SELECT o_custkey FROM orders "
            "WHERE o_orderdate >= TIMESTAMP '2000-01-01') "
            "GROUP BY c_nationkey ORDER BY n_nationkey",
        "docs_dsir_scores": _dsir_sql("en"),
        "docs_bigram_logprob": _bigram_lp_sql(),
        "docs_pii_scrub": _pii_sql(),
        "events_watermark_hourly":
            "WITH x AS (SELECT strftime(date_trunc('hour', ts), "
            "'%Y-%m-%d %H:00:00') AS \"window\", "
            "(ts + to_minutes(event_id % 13) > date_trunc('hour', ts) "
            "+ INTERVAL 65 MINUTE) AS late, "
            "CAST(round(value * 100) AS BIGINT) AS cents FROM events) "
            "SELECT \"window\", "
            "(count(*) FILTER (WHERE NOT late))::BIGINT AS n_on_time, "
            "(count(*) FILTER (WHERE late))::BIGINT AS n_late, "
            "round(sum(CASE WHEN NOT late THEN cents ELSE 0 END) "
            "/ 100.0, 2) AS sum_value_on_time "
            "FROM x GROUP BY \"window\" ORDER BY \"window\"",
        "q2_min_cost_supplier":
            "WITH offers AS (SELECT l_partkey, l_suppkey, "
            "min(CAST(round(l_extendedprice * 100) AS BIGINT)) AS cents "
            "FROM lineitem JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN nation ON n_nationkey = s_nationkey "
            "JOIN region ON r_regionkey = n_regionkey "
            "WHERE r_name = 'EUROPE' GROUP BY 1, 2), "
            "best AS (SELECT l_partkey, min(cents) AS mc FROM offers "
            "GROUP BY 1) "
            "SELECT s_acctbal, s_name, n_name, p_partkey::BIGINT AS "
            "p_partkey, round(o.cents / 100.0, 2) AS min_cost "
            "FROM offers o JOIN best b ON o.l_partkey = b.l_partkey "
            "AND o.cents = b.mc "
            "JOIN part ON p_partkey = o.l_partkey "
            "JOIN supplier ON s_suppkey = o.l_suppkey "
            "JOIN nation ON n_nationkey = s_nationkey "
            "WHERE p_type = 'STANDARD' AND p_size IN (5, 15, 25, 35, 45) "
            "ORDER BY s_acctbal DESC, n_name, s_name, p_partkey",
        "q11_important_parts":
            "WITH v AS (SELECT l_partkey::BIGINT AS l_partkey, "
            "sum(" + _REV_SQL + ") AS val "
            "FROM lineitem JOIN supplier ON s_suppkey = l_suppkey "
            "WHERE s_nationkey = 5 GROUP BY 1) "
            "SELECT l_partkey, round(val / 10000.0, 2) AS value FROM v "
            "WHERE val * 500 > (SELECT sum(val) FROM v) "
            "ORDER BY value DESC, l_partkey",
        "q16_supplier_cnt":
            "WITH pairs AS (SELECT DISTINCT l_partkey, l_suppkey "
            "FROM lineitem), "
            "ok AS (SELECT l_partkey, l_suppkey FROM pairs "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "WHERE s_acctbal >= 0) "
            "SELECT p_brand, p_type, p_size::BIGINT AS p_size, "
            "count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt "
            "FROM ok JOIN part ON p_partkey = l_partkey "
            "WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO' "
            "AND p_size IN (1, 4, 9, 16, 25, 36, 49) "
            "GROUP BY 1, 2, 3 "
            "ORDER BY supplier_cnt DESC, p_brand, p_type, p_size",
        "q20_excess_suppliers":
            "WITH sq AS (SELECT l_partkey, l_suppkey, "
            "sum(CAST(round(l_quantity) AS BIGINT))::BIGINT AS q "
            "FROM lineitem "
            "WHERE l_shipdate >= TIMESTAMP '1999-01-01' "
            "AND l_shipdate < TIMESTAMP '2000-01-01' GROUP BY 1, 2), "
            "pq AS (SELECT l_partkey, sum(q) AS tq FROM sq GROUP BY 1) "
            "SELECT DISTINCT s_name, n_name "
            "FROM sq JOIN pq ON sq.l_partkey = pq.l_partkey "
            "JOIN part ON p_partkey = sq.l_partkey "
            "JOIN supplier ON s_suppkey = l_suppkey "
            "JOIN nation ON n_nationkey = s_nationkey "
            "WHERE p_name LIKE 'small%' AND sq.q * 2 > pq.tq "
            "AND n_name IN ('NATION_3', 'NATION_4') ORDER BY s_name",
        "q21_waiting_suppliers":
            "WITH l AS (SELECT l_orderkey, l_suppkey, "
            "(l_shipdate > o_orderdate + INTERVAL 60 DAY) AS late "
            "FROM lineitem JOIN orders ON o_orderkey = l_orderkey "
            "WHERE o_orderstatus = 'F'), "
            "per_order AS (SELECT l_orderkey, "
            "count(DISTINCT l_suppkey) AS nsupp, "
            "count(DISTINCT CASE WHEN late THEN l_suppkey END) AS nlate, "
            "max(CASE WHEN late THEN l_suppkey END) AS late_supp "
            "FROM l GROUP BY 1) "
            "SELECT s_name, count(*)::BIGINT AS numwait "
            "FROM per_order JOIN supplier ON s_suppkey = late_supp "
            "JOIN nation ON n_nationkey = s_nationkey "
            "WHERE nsupp > 1 AND nlate = 1 "
            "AND n_name IN ('NATION_1', 'NATION_2') "
            "GROUP BY 1 ORDER BY numwait DESC, s_name",
        "gopher_filter_docs":
            "WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) "
            "AS w FROM documents), "
            "wc AS (SELECT doc_id, w, count(*) AS c FROM w GROUP BY 1, 2), "
            "per AS (SELECT doc_id, sum(c)::BIGINT AS n_words, "
            "sum(c * length(w))::DOUBLE / sum(c) AS mean_wlen, "
            "sum(CASE WHEN w IN ('a', 'the') THEN c ELSE 0 END)::DOUBLE "
            "/ sum(c) AS stop_frac, "
            "max(c)::DOUBLE / sum(c) AS top_frac FROM wc GROUP BY doc_id) "
            "SELECT doc_id, n_words, round(mean_wlen, 4) AS mean_wlen, "
            "round(stop_frac, 4) AS stop_frac, "
            "round(top_frac, 4) AS top_frac FROM per "
            "WHERE n_words BETWEEN 40 AND 90 "
            "AND mean_wlen >= 4.0 AND mean_wlen <= 5.0 "
            "AND stop_frac >= 0.03 AND top_frac <= 0.2",
        "docs_zipf_slope":
            "WITH w AS (SELECT lang, unnest(string_split(text, ' ')) AS w "
            "FROM documents), "
            "wc AS (SELECT lang, w, count(*) AS f FROM w WHERE w <> '' "
            "GROUP BY 1, 2), "
            "r AS (SELECT lang, f, row_number() OVER (PARTITION BY lang "
            "ORDER BY f DESC, w) AS rnk FROM wc) "
            "SELECT lang, count(*)::BIGINT AS n_types, "
            "round(regr_slope(ln(f), ln(rnk)), 4) AS zipf_slope "
            "FROM r GROUP BY lang",
        "events_markov_transitions":
            "WITH seq AS (SELECT user_id, event_type, lag(event_type) "
            "OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev "
            "FROM events) "
            "SELECT prev AS prev_type, event_type AS next_type, "
            "count(*)::BIGINT AS n FROM seq WHERE prev IS NOT NULL "
            "GROUP BY 1, 2",
        "events_anomaly_iqr":
            "WITH q AS (SELECT event_type, "
            "quantile_cont(value, 0.25) AS q1, "
            "quantile_cont(value, 0.75) AS q3 FROM events "
            "GROUP BY event_type) "
            "SELECT e.event_type, "
            "sum(CASE WHEN e.value < q.q1 - 1.5 * (q.q3 - q.q1) "
            "OR e.value > q.q3 + 1.5 * (q.q3 - q.q1) THEN 1 ELSE 0 "
            "END)::BIGINT AS n_outliers, "
            "round(any_value(q.q1 - 1.5 * (q.q3 - q.q1)), 4) AS fence_lo, "
            "round(any_value(q.q3 + 1.5 * (q.q3 - q.q1)), 4) AS fence_hi "
            "FROM events e JOIN q ON e.event_type = q.event_type "
            "GROUP BY e.event_type",
        "embedding_norm_stats":
            "SELECT label, count(*)::BIGINT AS n, "
            "round(avg(norm), 4) AS avg_norm, "
            "round(max(norm), 4) AS max_norm FROM ("
            "SELECT label, sqrt(list_sum(list_transform(embedding, "
            "x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))) AS norm "
            "FROM embeddings) GROUP BY label",
        "minhash_cluster_sizes":
            "WITH RECURSIVE w AS (SELECT doc_id, regexp_extract_all("
            "translate(text, 'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
            "'abcdefghijklmnopqrstuvwxyz'), '[0-9a-z_]+') AS words "
            "FROM documents), "
            "g AS (SELECT doc_id, list_distinct(list_transform(range(1, "
            "len(words)-1), i -> words[i] || ' ' || words[i+1] || ' ' || "
            "words[i+2])) AS grams FROM w WHERE len(words) >= 3), "
            "e AS (SELECT a.doc_id AS x, b.doc_id AS y FROM g a JOIN g b "
            "ON a.doc_id != b.doc_id "
            "WHERE len(list_intersect(a.grams, b.grams))::DOUBLE / "
            "len(list_distinct(list_concat(a.grams, b.grams))) >= 0.5), "
            "reach(x, y) AS (SELECT x, y FROM e "
            "UNION SELECT r.x, e.y FROM reach r JOIN e ON r.y = e.x "
            "WHERE e.y != r.x), "
            "comp AS (SELECT d.doc_id AS doc_id, least(d.doc_id, "
            "coalesce((SELECT min(y) FROM reach WHERE x = d.doc_id), "
            "d.doc_id)) AS rep FROM documents d), "
            "cs AS (SELECT rep, count(*) AS sz FROM comp GROUP BY rep "
            "HAVING count(*) >= 2) "
            "SELECT sz::BIGINT AS cluster_size, count(*)::BIGINT "
            "AS n_clusters FROM cs GROUP BY sz",
        "docs_split_assign":
            "SELECT doc_id, CASE WHEN h < 8 THEN 'train' WHEN h = 8 "
            "THEN 'val' ELSE 'test' END AS split FROM (SELECT doc_id, "
            "('0x' || substr(md5(text), 1, 8))::BIGINT % 10 AS h "
            "FROM documents)",
        "events_hourly_distinct_users":
            "SELECT strftime(date_trunc('hour', ts), "
            "'%Y-%m-%d %H:00:00') AS window, "
            "count(DISTINCT user_id)::BIGINT AS n_users "
            "FROM events GROUP BY 1",
        "embedding_covariance":
            "WITH x AS (SELECT vec_id, generate_subscripts(embedding, 1) "
            "AS i, CAST(unnest(embedding) AS DOUBLE) AS v "
            "FROM embeddings) "
            "SELECT a.i::BIGINT AS i, b.i::BIGINT AS j, "
            "round(covar_pop(a.v, b.v), 6) AS cov "
            "FROM x a JOIN x b ON a.vec_id = b.vec_id AND a.i <= b.i "
            "WHERE a.i <= 8 AND b.i <= 8 GROUP BY a.i, b.i",
    }
