"""Distributed exact selection (stages/selection.py)."""

import numpy as np
import pyarrow as pa


def _ds(v, parts=6):
    import ray.data
    return ray.data.from_arrow(
        pa.table({"x": pa.array(v, type=pa.int64())})).repartition(parts)


def test_exact_kth_wide_range(ray_session):
    """64-bit-spread values force multiple histogram descents."""
    from ie_ray.stages.selection import exact_kth_int64

    rng = np.random.RandomState(5)
    v = rng.randint(-2**62, 2**62, 50_000, dtype=np.int64)
    want = np.sort(v)
    got = exact_kth_int64(_ds(v), "x", [0, 1, 24_999, 49_998, 49_999])
    for k, val in got.items():
        assert val == want[k], k


def test_exact_kth_heavy_duplicates(ray_session):
    from ie_ray.stages.selection import exact_kth_int64

    v = np.concatenate([np.zeros(10_000, dtype=np.int64),
                        np.full(10_000, 7, dtype=np.int64),
                        np.arange(100, dtype=np.int64) + 10])
    rng = np.random.RandomState(3)
    rng.shuffle(v)
    want = np.sort(v)
    got = exact_kth_int64(_ds(v), "x", [0, 9_999, 10_000, 20_050])
    for k, val in got.items():
        assert val == want[k], k


def test_exact_quantile_matches_duckdb(ray_session):
    import duckdb

    from ie_ray.stages.selection import exact_quantile_int64

    rng = np.random.RandomState(11)
    v = rng.randint(0, 10**15, 30_001, dtype=np.int64)
    con = duckdb.connect()
    con.register("t", pa.table({"x": v}))
    for q in (0.5, 0.9, 0.99):
        want = con.execute(
            "SELECT quantile_cont(x, %f) FROM t" % q).fetchone()[0]
        got = exact_quantile_int64(_ds(v), "x", q)
        assert got == want, (q, got, want)


def test_exact_quantile_empty(ray_session):
    from ie_ray.stages.selection import exact_quantile_int64

    assert exact_quantile_int64(
        _ds(np.array([], dtype=np.int64), parts=1), "x", 0.5) is None


def test_exact_kth_full_int64_span(ray_session):
    """Both int64 extremes present — range arithmetic must not wrap
    (XOR-bias regression, review finding r5s4)."""
    from ie_ray.stages.selection import exact_kth_int64

    v = np.array([-2**63, -5, 0, 7, 2**63 - 1], dtype=np.int64)
    got = exact_kth_int64(_ds(v, parts=2), "x", [0, 2, 4])
    assert got == {0: -2**63, 2: 0, 4: 2**63 - 1}


def test_exact_kth_ceiling_adjacent(ray_session):
    """Values ending at the int64 maximum, over a span that is not a
    multiple of the bin count: the top histogram bin reaches past the
    uint64 ceiling, so its upper bound must be clamped, not wrapped."""
    from ie_ray.stages.selection import exact_kth_int64

    top = 2**63 - 1
    v = np.int64(top) - np.arange(70_001, dtype=np.int64)
    got = exact_kth_int64(_ds(v, parts=2), "x", [0, 35_000, 70_000])
    assert got == {0: top - 70_000, 35_000: top - 35_000, 70_000: top}


def test_exact_quantile_ignores_nulls(ray_session):
    import ray.data

    from ie_ray.stages.selection import exact_quantile_int64

    t = pa.table({"x": pa.array([1, 2, 3, None, None],
                                type=pa.int64())})
    ds = ray.data.from_arrow(t).repartition(2)
    assert exact_quantile_int64(ds, "x", 0.5) == 2.0


def test_exact_kth_single_value_short_circuit(ray_session):
    """A rank buried in a million duplicates resolves WITHOUT a
    collect blowing past the row cap (range collapses to one value)."""
    from ie_ray.stages.selection import exact_kth_int64

    v = np.concatenate([
        np.full(1_000_000, 42, dtype=np.int64),
        np.array([-2**62, 2**62], dtype=np.int64)])
    got = exact_kth_int64(_ds(v), "x", [500_000])
    assert got == {500_000: 42}
