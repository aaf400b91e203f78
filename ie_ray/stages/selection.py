"""Exact distributed order statistics by iterative range narrowing.

The cent-grid histogram trick (events_value_mad) gives exact medians
only when the value domain is BOUNDED; arbitrary int64 columns
(latencies in µs, byte sizes, ids) need real distributed selection.
The classic answer (the Blum/Floyd–Rivest family adapted to
shared-nothing scans): repeatedly histogram the candidate range into
2¹⁶ equal bins with one counting pass over the data, descend into the
bin containing the target rank, and stop once the surviving ROW count
(not just the range width) is small enough to pull exactly — a range
of one value answers directly, so heavy duplicates can never blow up
the collect.  A 64-bit range needs ≤ 4 passes; each pass is one
lowcard tree-combine (2¹⁶ bounded keys), so nothing rows-sized ever
shuffles.

Robustness contracts (review findings, r5s4):
* values are XOR-biased into uint64 (order-preserving ``v ^ 2⁶³``) so
  range arithmetic never overflows — full ±2⁶³ spans work;
* nulls are dropped at ingestion (quantile_cont semantics);
* adjacent ranks (the even-count median pair) share one descent and
  one collect when they land in the same narrowed range.

Callers selecting from a DERIVED stream should ``materialize()`` it
first — each pass re-scans the input, and re-executing an expensive
lineage 3–4× is the wrong trade (the object store spills if needed).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_BINS = 1 << 16
_COLLECT_MAX = 1 << 18   # max ROWS the final collect may pull

_SIGN = np.uint64(1 << 63)


def _ucol(t: pa.Table, col: str) -> np.ndarray:
    """Null-dropped column as order-preserving biased uint64."""
    arr = t.column(col).cast(pa.int64()).combine_chunks().drop_null()
    v = arr.to_numpy(zero_copy_only=False).astype(np.int64)
    return v.view(np.uint64) ^ _SIGN


def _unbias(u) -> int:
    return int(np.int64(np.uint64(u) ^ _SIGN))


def _scalar_pass(ds, partial, combine):
    from ie_ray.stages.relational import lowcard_combine
    return lowcard_combine(ds, partial, final_fn=combine,
                           combine_fn=combine).take_all()


def _histogram(ds, col: str, lo: np.uint64, hi: np.uint64):
    """Per-bin counts over biased [lo, hi] + below-range count."""
    span = int(hi - lo) + 1
    width = np.uint64(max(1, -(-span // _BINS)))

    def partial(t: pa.Table) -> pa.Table:
        u = _ucol(t, col)
        below = int((u < lo).sum())
        inr = u[(u >= lo) & (u <= hi)]
        b = ((inr - lo) // width).astype(np.int64)
        cnt = np.bincount(b, minlength=1).astype(np.int64)
        nz = np.nonzero(cnt)[0]
        return pa.table({
            "bin": pa.array(np.concatenate([[-1], nz])),
            "n": pa.array(np.concatenate([[below], cnt[nz]]))})

    def combine(t: pa.Table) -> pa.Table:
        return t.group_by("bin").aggregate([("n", "sum")]) \
            .rename_columns(["bin", "n"])

    rows = _scalar_pass(ds, partial, combine)
    counts = {r["bin"]: r["n"] for r in rows}
    below = counts.pop(-1, 0)
    return below, counts, width


def _descend(ds, col: str, k: int, lo: np.uint64, hi: np.uint64):
    """Narrow [lo, hi] until the in-range row count ≤ _COLLECT_MAX or
    the range is a single value.  Returns (lo, hi, in_rows) with
    in_rows = None when the range collapsed to one value (answer =
    lo, no collect needed)."""
    while True:
        below, counts, width = _histogram(ds, col, lo, hi)
        rank_in = k - below
        run, target = 0, None
        for b in sorted(counts):
            if run + counts[b] > rank_in:
                target = b
                break
            run += counts[b]
        if target is None:   # rank at/after max: clamp to top bin
            target = max(counts)
        # bin bounds on Python ints: the top bin may reach past 2⁶⁴ - 1
        new_lo = int(lo) + int(target) * int(width)
        hi = np.uint64(min(int(hi), new_lo + int(width) - 1))
        lo = np.uint64(new_lo)
        in_rows = counts[target]
        if hi == lo:
            return lo, hi, None
        if in_rows <= _COLLECT_MAX:
            return lo, hi, in_rows


def _collect_sorted(ds, col: str, lo: np.uint64,
                    hi: np.uint64) -> np.ndarray:
    def collect(t: pa.Table) -> pa.Table:
        u = _ucol(t, col)
        keep = u[(u >= lo) & (u <= hi)]
        return pa.table({"v": pa.array(np.sort(keep).view(np.int64))})

    def ccomb(t: pa.Table) -> pa.Table:
        u = np.asarray(t.column("v"), dtype=np.int64).view(np.uint64)
        return pa.table({"v": pa.array(np.sort(u).view(np.int64))})

    rows = _scalar_pass(ds, collect, ccomb)
    return np.asarray([r["v"] for r in rows],
                      dtype=np.int64).view(np.uint64)


def _count_below(ds, col: str, lo: np.uint64) -> int:
    def partial(t: pa.Table) -> pa.Table:
        u = _ucol(t, col)
        return pa.table({"n": pa.array([int((u < lo).sum())],
                                       type=pa.int64())})

    def combine(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array(
            [pc.sum(t.column("n")).as_py() or 0], type=pa.int64())})

    rows = _scalar_pass(ds, partial, combine)
    return int(rows[0]["n"]) if rows else 0


def exact_kth_int64(ds, col: str, ks) -> dict:
    """Exact values at 0-based ranks ``ks`` (ascending, nulls ignored)
    of the int64 column; multi-pass histogram descent, {k: value}."""
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        return {}

    def mm(t: pa.Table) -> pa.Table:
        u = _ucol(t, col)
        if len(u) == 0:
            return pa.table({"lo": pa.array([], type=pa.int64()),
                             "hi": pa.array([], type=pa.int64())})
        return pa.table({
            "lo": pa.array(np.array([u.min()]).view(np.int64)),
            "hi": pa.array(np.array([u.max()]).view(np.int64))})

    def mmc(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        lo_ = np.asarray(t.column("lo"), dtype=np.int64) \
            .view(np.uint64).min()
        hi_ = np.asarray(t.column("hi"), dtype=np.int64) \
            .view(np.uint64).max()
        return pa.table({
            "lo": pa.array(np.array([lo_]).view(np.int64)),
            "hi": pa.array(np.array([hi_]).view(np.int64))})

    rows = _scalar_pass(ds, mm, mmc)
    if not rows:
        return {}
    glo = np.uint64(np.int64(rows[0]["lo"]))
    ghi = np.uint64(np.int64(rows[0]["hi"]))

    out = {}
    cache = None   # (lo, hi, sorted_values, offset) of the last collect
    for k in ks:
        if cache is not None:
            clo, chi, arr, off = cache
            if off <= k < off + len(arr):
                out[k] = _unbias(arr[k - off])
                continue
        lo, hi, in_rows = _descend(ds, col, k, glo, ghi)
        if in_rows is None:
            out[k] = _unbias(lo)
            # single-value ranges don't cache rank spans; skip
            continue
        off = _count_below(ds, col, lo)
        arr = _collect_sorted(ds, col, lo, hi)
        cache = (lo, hi, arr, off)
        out[k] = _unbias(arr[k - off])
    return out


def exact_quantile_int64(ds, col: str, q: float, n: int = None):
    """Continuous-interpolation quantile (DuckDB quantile_cont /
    median semantics, nulls ignored) of an int64 column via
    :func:`exact_kth_int64`; returns float (None on empty input)."""
    if n is None:
        def cp(t: pa.Table) -> pa.Table:
            return pa.table({"n": pa.array(
                [len(_ucol(t, col))], type=pa.int64())})

        def cc(t: pa.Table) -> pa.Table:
            return pa.table({"n": pa.array(
                [pc.sum(t.column("n")).as_py() or 0],
                type=pa.int64())})

        rows = _scalar_pass(ds, cp, cc)
        n = int(rows[0]["n"]) if rows else 0
    if n == 0:
        return None
    h = (n - 1) * q
    lo_k, hi_k = int(np.floor(h)), int(np.ceil(h))
    got = exact_kth_int64(ds, col, [lo_k, hi_k])
    vlo, vhi = got[lo_k], got[hi_k]
    return vlo + (h - np.floor(h)) * (vhi - vlo)
