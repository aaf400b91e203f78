"""Temporal / windowed operators Ray Data lacks natively.

* ``asof_join_prior`` — classic AS-OF join: each left row picks the
  greatest right-side timestamp ≤ its own within the same key group
  (DuckDB ``ASOF JOIN`` semantics, inner form).
* ``range_join_forward`` — keyed range join: all right rows in the
  (left.on, left.on + window] forward interval per key.
* ``top_k_per_group`` — windowed ``row_number() ≤ k`` per key.

Both are expressed as compositions the streaming executor can pipeline
(SURVEY §2 custom-operator rule (a)): a key-partitioned
``groupby().map_groups`` whose per-group kernel is vectorized numpy —
no driver-side state, no full materialization.

Partitioning assumption (documented per the custom-operator contract):
one group = one key's rows.  At 100 TB a hot key (one user with 10^8
events) concentrates in a single group; callers salt such keys by time
range (``user#day``) and stitch boundaries with a second pass.
``top_k_per_group`` is additionally protected by a per-block partial
top-k (associative), so only ≤ k rows per (block × key) reach the
exchange.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _ts_us(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Cast a timestamp/int column to int64 epoch-microseconds (UTC) —
    an integer survives the oracle hash exactly where stringified
    timestamps diverge on trailing-zero formatting."""
    if pa.types.is_timestamp(col.type):
        return col.cast(pa.timestamp("us")).cast(pa.int64())
    return col.cast(pa.int64())


def asof_join_prior(left_ds, right_ds, by: str = "user_id",
                    on: str = "ts", id_col: str = "event_id"):
    """For each left row, the greatest right ``on`` ≤ left ``on`` in the
    same ``by`` group (inner: left rows with no prior right row drop).

    Returns Dataset (id_col, by, on_us, prior_on_us) — all int64.

    Both sides are projected to 3 int64 columns + a side tag BEFORE the
    exchange, so the shuffle moves 25 bytes/row regardless of input
    width; the per-group merge is one argsort + one searchsorted.
    """

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "grp": t.column(by).cast(pa.int64()),
                "on_us": _ts_us(t.column(on)),
                "row_id": (t.column(id_col).cast(pa.int64()) if side == 0
                           else pa.nulls(n, pa.int64())),
                "side": pa.array(np.full(n, side, dtype=np.int8)),
            })
        return fn

    tagged = left_ds.map_batches(prep(0), batch_format="pyarrow").union(
        right_ds.map_batches(prep(1), batch_format="pyarrow"))

    def bucket_merge(g: pa.Table) -> pa.Table:
        # vectorized across ALL keys in the bucket: right rows sort by
        # the composite (grp, t) — numpy compares structured dtypes
        # lexicographically — so one global searchsorted finds each left
        # row's greatest same-group prior time
        side = np.asarray(g.column("side"))
        t = np.asarray(g.column("on_us"))
        grp = np.asarray(g.column("grp"))
        lmask = side == 0
        lt, lgrp = t[lmask], grp[lmask]
        lid = np.asarray(g.column("row_id"))[lmask]
        dt = np.dtype([("g", "<i8"), ("t", "<i8")])
        rrec = np.empty(int((~lmask).sum()), dtype=dt)
        rrec["g"], rrec["t"] = grp[~lmask], t[~lmask]
        rrec.sort()
        lrec = np.empty(len(lt), dtype=dt)
        lrec["g"], lrec["t"] = lgrp, lt
        if len(rrec) == 0:
            keep = np.zeros(len(lt), dtype=bool)
            idx = np.zeros(len(lt), dtype=np.int64)
        else:
            idx = np.searchsorted(rrec, lrec, side="right") - 1
            keep = (idx >= 0) & (rrec["g"][np.maximum(idx, 0)] == lgrp)
        return pa.table({
            id_col: pa.array(lid[keep], type=pa.int64()),
            by: pa.array(lgrp[keep], type=pa.int64()),
            "on_us": pa.array(lt[keep], type=pa.int64()),
            "prior_on_us": pa.array(rrec["t"][idx[keep]],
                                    type=pa.int64()),
        })

    from ie_ray.stages.relational import bucketed_map_groups
    return bucketed_map_groups(tagged, "grp", bucket_merge)


def range_join_forward(left_ds, right_ds, by: str = "user_id",
                       on: str = "ts", id_col: str = "event_id",
                       window_us: int = 3_600_000_000):
    """Range join: every (left, right) pair in the same ``by`` group with
    ``left.on < right.on ≤ left.on + window_us`` (forward window, strict
    lower bound — the complement of :func:`asof_join_prior`).

    Returns Dataset (id_col, right_<id_col>, by, on_us, right_on_us).

    Same slim-exchange contract as the as-of join: both sides project to
    4 int64 columns + a side tag before the shuffle.  Per group the right
    times are sorted once; each left row finds its (lo, hi] slice with
    two ``searchsorted`` calls and pairs expand via ``repeat``/``arange``
    — no per-row Python, no nested loop.  Output size is the true join
    cardinality, so a pathological window (≫ median inter-event gap ×
    group size) is the caller's cost knob, not an implementation blowup.
    Hot-key note: one group = one key (see module docstring); salt by
    time range when a key's rows exceed a block.
    """

    def prep(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "grp": t.column(by).cast(pa.int64()),
                "on_us": _ts_us(t.column(on)),
                "row_id": t.column(id_col).cast(pa.int64()),
                "side": pa.array(np.full(n, side, dtype=np.int8)),
            })
        return fn

    tagged = left_ds.map_batches(prep(0), batch_format="pyarrow").union(
        right_ds.map_batches(prep(1), batch_format="pyarrow"))

    def bucket_merge(g: pa.Table) -> pa.Table:
        # vectorized across all keys in the bucket: composite (grp, t)
        # sort + two global searchsorted calls give each left row its
        # same-group (lo, hi] slice — both bounds share the grp field,
        # so the slice can never leak into a neighbouring group
        side = np.asarray(g.column("side"))
        t = np.asarray(g.column("on_us"))
        grp = np.asarray(g.column("grp"))
        ids = np.asarray(g.column("row_id"))
        lmask = side == 0
        lt, lid, lgrp = t[lmask], ids[lmask], grp[lmask]
        dt = np.dtype([("g", "<i8"), ("t", "<i8")])
        rorder = np.lexsort((t[~lmask], grp[~lmask]))
        rt = t[~lmask][rorder]
        rid = ids[~lmask][rorder]
        rrec = np.empty(len(rt), dtype=dt)
        rrec["g"], rrec["t"] = grp[~lmask][rorder], rt
        lrec = np.empty(len(lt), dtype=dt)
        lrec["g"], lrec["t"] = lgrp, lt
        lo = np.searchsorted(rrec, lrec, side="right")
        lrec["t"] = lt + window_us
        hi = np.searchsorted(rrec, lrec, side="right")
        cnt = hi - lo
        lrep = np.repeat(np.arange(len(lt)), cnt)
        rpos = np.arange(len(lrep)) - np.repeat(
            np.cumsum(cnt) - cnt, cnt) + np.repeat(lo, cnt)
        return pa.table({
            id_col: pa.array(lid[lrep], type=pa.int64()),
            "right_" + id_col: pa.array(rid[rpos], type=pa.int64()),
            by: pa.array(lgrp[lrep], type=pa.int64()),
            "on_us": pa.array(lt[lrep], type=pa.int64()),
            "right_on_us": pa.array(rt[rpos], type=pa.int64()),
        })

    from ie_ray.stages.relational import bucketed_map_groups
    return bucketed_map_groups(tagged, "grp", bucket_merge)


def top_k_per_group(ds, key: str, value: str, k: int = 3,
                    tie_col: str = "event_id"):
    """Top-k rows per key by (value DESC, tie_col ASC), with their rank.

    Returns Dataset (key, tie_col, value, rn) — rn in 1..k.

    Skew-safe: a per-block partial top-k runs inside ``map_batches``
    first (top-k is associative), so a key appearing in B blocks ships
    ≤ k·B rows through the groupby instead of its full row count.
    """

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([key, tie_col, value])
        order = pc.sort_indices(t, sort_keys=[
            (key, "ascending"), (value, "descending"), (tie_col, "ascending")])
        t = t.take(order)
        # vectorized "head k per key": rank within run of equal keys
        keys = np.asarray(t.column(key))
        starts = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        pos = np.arange(len(keys)) - np.repeat(starts, np.diff(
            np.r_[starts, len(keys)]))
        return t.filter(pa.array(pos < k))

    def bucket_final(g: pa.Table) -> pa.Table:
        # same head-k-per-run trick as the block partial, per bucket
        order = pc.sort_indices(g, sort_keys=[
            (key, "ascending"), (value, "descending"),
            (tie_col, "ascending")])
        g = g.take(order)
        keys = np.asarray(g.column(key))
        starts = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        pos = np.arange(len(keys)) - np.repeat(starts, np.diff(
            np.r_[starts, len(keys)]))
        g = g.filter(pa.array(pos < k))
        return g.append_column(
            "rn", pa.array(pos[pos < k] + 1, type=pa.int64()))

    from ie_ray.stages.relational import bucketed_map_groups
    return bucketed_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"), key,
        bucket_final)


def ohlc_bars(ds, period_us: int = 3_600_000_000, ts_col: str = "ts",
              value_col: str = "value", id_col: str = "event_id"):
    """Per-period OHLC (open/high/low/close) bars over an event stream —
    the classic candlestick aggregate (kdb+ ``xbar``, Flink windowed
    first/last).  open = value at the (ts, id)-least event of the
    period, close = at the (ts, id)-greatest, high/low = max/min; values
    ride as exact int64 cents (the 2-decimal-grid convention, see
    ``_rev_scaled``), so every reduce is integer-exact and associative.

    Scale shape: ordered first/last are NOT Ray/Arrow builtin aggregates
    but they ARE mergeable once each partial carries its arg-key —
    each block reduces to ≤|periods| rows of
    (period, open-key, open, close-key, close, high, low, n), and
    partials merge by re-applying the same lexicographic-min/max rule
    (``relational.lowcard_combine`` with ``combine_fn``: once the
    partials are many they tree-combine, so no task holds more than
    ~fanin × |periods| rows), and the raw stream is never shuffled.
    The period domain is bounded (hours of a crawl window ≲ 10^5),
    which is what makes the lowcard path legal.

    Returns Dataset (h timestamp[us], open_c, high_c, low_c, close_c,
    n) — one row per non-empty period.
    """
    import polars as pl

    from ie_ray.stages.relational import lowcard_combine

    def partial(t: pa.Table) -> pa.Table:
        ts = _ts_us(t.column(ts_col)).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(pc.multiply(
            t.column(value_col).cast(pa.float64()), 100.0)), pa.int64())
        df = pl.from_arrow(pa.table({
            "h": pa.array(ts - ts % period_us, type=pa.int64()),
            "k_ts": pa.array(ts, type=pa.int64()),
            "k_id": t.column(id_col).cast(pa.int64()),
            "c": cents}))
        return (df.sort(["h", "k_ts", "k_id"])
                .group_by("h")
                .agg(pl.col("k_ts").first().alias("ots"),
                     pl.col("k_id").first().alias("oid"),
                     pl.col("c").first().alias("open_c"),
                     pl.col("k_ts").last().alias("cts"),
                     pl.col("k_id").last().alias("cid"),
                     pl.col("c").last().alias("close_c"),
                     pl.col("c").max().alias("high_c"),
                     pl.col("c").min().alias("low_c"),
                     pl.len().cast(pl.Int64).alias("n"))).to_arrow()

    def combine(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        ckey = [pl.col("cts"), pl.col("cid")]
        return (df.sort(["h", "ots", "oid"])
                .group_by("h")
                .agg(pl.col("ots").first(), pl.col("oid").first(),
                     pl.col("open_c").first(),
                     pl.col("cts").sort_by(ckey).last(),
                     pl.col("cid").sort_by(ckey).last(),
                     pl.col("close_c").sort_by(ckey).last(),
                     pl.col("high_c").max(), pl.col("low_c").min(),
                     pl.col("n").sum())).to_arrow()

    def final(t: pa.Table) -> pa.Table:
        out = combine(t)
        return pa.table({
            "h": out.column("h").cast(pa.timestamp("us")),
            "open_c": out.column("open_c").cast(pa.int64()),
            "high_c": out.column("high_c").cast(pa.int64()),
            "low_c": out.column("low_c").cast(pa.int64()),
            "close_c": out.column("close_c").cast(pa.int64()),
            "n": out.column("n").cast(pa.int64())})

    return lowcard_combine(ds.select_columns(
        [ts_col, value_col, id_col]), partial, final_fn=final,
        combine_fn=combine)


def islands_per_key(ds, key: str, seq_col: str):
    """Gaps-and-islands per key: collapse each key's set of integer
    sequence points (days, slots, versions) into maximal runs of
    consecutive integers and reduce them to per-key streak stats —
    the classic activity-streak / retention-run shape (SQL: ``seq -
    row_number() OVER (PARTITION BY key ORDER BY seq)`` island id).

    Scale shape: one bucketed exchange on ``key`` (complete-key
    buckets via hash partition); inside a bucket the whole
    dedupe→sort→diff→segment pipeline is a single vectorized polars
    pass over every key at once — no per-key Python slicing.  Output
    is one row per key, so downstream never sees the raw stream.

    Returns Dataset (key, n_seq, n_islands, max_island_len) where
    n_seq counts DISTINCT sequence points (duplicates collapse).
    """
    import polars as pl

    from ie_ray.stages.relational import bucketed_map_groups

    def kernel(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(pa.table({
            "k": g.column(key).cast(pa.int64()),
            "s": g.column(seq_col).cast(pa.int64())}))
        out = (df.unique(["k", "s"])
               .sort(["k", "s"])
               .with_columns((pl.col("s")
                              - pl.col("s").cum_count().over("k")
                              .cast(pl.Int64)).alias("isl"))
               .group_by(["k", "isl"])
               .agg(pl.len().cast(pl.Int64).alias("run"))
               .group_by("k")
               .agg(pl.col("run").sum().alias("n_seq"),
                    pl.len().cast(pl.Int64).alias("n_islands"),
                    pl.col("run").max().alias("max_island_len")))
        t = out.to_arrow()
        return pa.table({
            key: t.column("k"),
            "n_seq": t.column("n_seq").cast(pa.int64()),
            "n_islands": t.column("n_islands").cast(pa.int64()),
            "max_island_len":
                t.column("max_island_len").cast(pa.int64())})

    return bucketed_map_groups(ds.select_columns([key, seq_col]),
                               key, kernel)


def run_length_intervals(ds, key: str, ts_col: str, id_col: str,
                         state_col: str):
    """Run-length interval build (the SCD-type-2 / CDC collapse): per
    key, order the stream by (ts, id) and merge consecutive rows with
    the SAME state value into one validity interval — the standard
    warehouse move from an event log to a slowly-changing-dimension
    history (``LAG(state)`` break flag → running sum → group).

    Same partitioning contract as ``islands_per_key``: one bucketed
    exchange on ``key``, then a single vectorized polars
    sort→shift→cum_sum→group pass per complete bucket.

    Returns Dataset (key, state, n_events, start_us, end_us) — one
    row per maximal run, timestamps as int64 epoch-microseconds.
    """
    import polars as pl

    from ie_ray.stages.relational import bucketed_map_groups

    def kernel(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(pa.table({
            "k": g.column(key).cast(pa.int64()),
            "ts": _ts_us(g.column(ts_col)),
            "id": g.column(id_col).cast(pa.int64()),
            "st": g.column(state_col)}))
        out = (df.sort(["k", "ts", "id"])
               # ne_missing = SQL IS DISTINCT FROM: null-vs-null is NOT
               # a break (consecutive null states merge into one
               # interval, matching the oracle); null-vs-value is
               .with_columns(
                   pl.col("st").ne_missing(pl.col("st").shift(1))
                   .over("k").alias("brk"))
               .with_columns(pl.col("brk").cast(pl.Int64).cum_sum()
                             .over("k").alias("grp"))
               .group_by(["k", "grp"])
               .agg(pl.col("st").first().alias("state"),
                    pl.len().cast(pl.Int64).alias("n_events"),
                    pl.col("ts").min().alias("start_us"),
                    pl.col("ts").max().alias("end_us"))
               .drop("grp"))
        t = out.to_arrow()
        return pa.table({
            key: t.column("k"),
            "state": t.column("state"),
            "n_events": t.column("n_events").cast(pa.int64()),
            "start_us": t.column("start_us").cast(pa.int64()),
            "end_us": t.column("end_us").cast(pa.int64())})

    return bucketed_map_groups(
        ds.select_columns([key, ts_col, id_col, state_col]), key,
        kernel)
