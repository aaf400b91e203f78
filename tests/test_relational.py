"""Semi/anti join and exact distinct-count operator tests."""

import numpy as np
import pyarrow as pa


def _ds(table, blocks=1):
    import ray.data
    ds = ray.data.from_arrow(table)
    return ds.repartition(blocks) if blocks > 1 else ds


def _rand_tables(seed):
    rng = np.random.RandomState(seed)
    left = pa.table({
        "k": pa.array(rng.randint(0, 40, 300), type=pa.int64()),
        "payload": pa.array([f"p{i}" for i in range(300)]),
        "v": pa.array(rng.rand(300)),
    })
    right = pa.table({
        "rk": pa.array(rng.randint(20, 60, 500), type=pa.int64()),
    })
    return left, right


def test_semi_anti_join_vs_duckdb(ray_session):
    import duckdb
    from ie_ray.stages.relational import anti_join, semi_join
    left, right = _rand_tables(7)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)

    semi = semi_join(_ds(left, 4), _ds(right, 4), "k", "rk").take_all()
    anti = anti_join(_ds(left, 4), _ds(right, 4), "k", "rk").take_all()
    want_semi = set(con.execute(
        "SELECT payload FROM l WHERE EXISTS "
        "(SELECT 1 FROM r WHERE r.rk = l.k)").df().payload)
    want_anti = set(con.execute(
        "SELECT payload FROM l WHERE NOT EXISTS "
        "(SELECT 1 FROM r WHERE r.rk = l.k)").df().payload)
    assert {r["payload"] for r in semi} == want_semi
    assert {r["payload"] for r in anti} == want_anti
    # all left columns survive, tags dropped
    assert set(semi[0]) == {"k", "payload", "v"}
    assert len(semi) + len(anti) == left.num_rows
    assert len(want_semi) > 0 and len(want_anti) > 0


def test_distinct_count_multiblock(ray_session):
    from ie_ray.stages.relational import distinct_count
    rng = np.random.RandomState(9)
    t = pa.table({
        "g": pa.array([f"g{x}" for x in rng.randint(0, 4, 1000)]),
        "x": pa.array(rng.randint(0, 30, 1000), type=pa.int64()),
    })
    out = {r["g"]: r["n_distinct"]
           for r in distinct_count(_ds(t, 6), "g", "x").take_all()}
    df = t.to_pandas()
    want = df.groupby("g").x.nunique().to_dict()
    assert out == want


def test_lowcard_combine_tree_bounds_task_input(ray_session, monkeypatch):
    """Above the partial-row bound, no single reduce task may receive
    more than ~max(blocks/fanin, fanin) x |keys| rows even at an
    artificially high block count (the events_hourly_window hazard: a
    time-growing key domain x many blocks overwhelming the final single
    task).  The bound is forced low here; it is enforced INSIDE the
    reduce tasks (they run in worker processes) — any violation raises
    and fails the run."""
    from ie_ray.stages import relational
    from ie_ray.stages.relational import lowcard_combine
    monkeypatch.setattr(relational, "LOWCARD_FLAT_MAX_ROWS", 0)
    fanin = relational.LOWCARD_TREE_FANIN
    rng = np.random.RandomState(3)
    n, keys, blocks = 20_000, 200, 64
    cap = max(-(-blocks // fanin), fanin) * keys
    t = pa.table({
        "k": pa.array(rng.randint(0, keys, n), type=pa.int64()),
        "v": pa.array(rng.rand(n)),
    })

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("k").aggregate([("v", "sum"), ([], "count_all")])
        return g.rename_columns(["k", "v", "n"])

    def combine(b: pa.Table) -> pa.Table:
        if b.num_rows > cap:
            raise AssertionError(
                "reduce task received %d rows > cap %d" % (b.num_rows, cap))
        g = b.group_by("k").aggregate([("v", "sum"), ("n", "sum")])
        return g.rename_columns(["k", "v", "n"])

    out = lowcard_combine(_ds(t, blocks), partial, combine,
                          combine_fn=combine).take_all()
    got = {r["k"]: (round(r["v"], 9), r["n"]) for r in out}
    df = t.to_pandas().groupby("k").v.agg(["sum", "count"])
    want = {int(k): (round(row["sum"], 9), int(row["count"]))
            for k, row in df.iterrows()}
    assert got == want
    # sanity: without the tree level the final task WOULD exceed the cap
    assert blocks * keys > cap


def test_lowcard_combine_stays_flat_below_bound(ray_session):
    """At the default bound a few small partials go straight to the one
    final task: ``combine_fn`` never runs."""
    from ie_ray.stages.relational import LOWCARD_FLAT_MAX_ROWS, lowcard_combine
    t = pa.table({"k": pa.array(np.arange(4000) % 50, type=pa.int64())})
    assert 16 * 50 <= LOWCARD_FLAT_MAX_ROWS

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by("k").aggregate([([], "count_all")])

    def final(b: pa.Table) -> pa.Table:
        return b.group_by("k").aggregate([("count_all", "sum")])

    def combine(b: pa.Table) -> pa.Table:
        raise AssertionError("tree level ran below the row bound")

    out = lowcard_combine(_ds(t, 16), partial, final,
                          combine_fn=combine).take_all()
    assert sorted((r["k"], r["count_all_sum"]) for r in out) == \
        [(k, 80) for k in range(50)]


_AGGS = [([], "count_all"), ("v", "count"), ("v", "sum"), ("v", "min"),
         ("v", "max"), ("x", "sum"), ("x", "min"), ("x", "max")]


def _null_key_blocks(n_blocks=64, rows=300, seed=5):
    """Blocks keyed on (s, i) with > 128 null-key rows per block: the
    pyarrow 16.1 multi-key group_by splits such tuples at exec-batch
    boundaries unless the null-safe path handles them."""
    rng = np.random.RandomState(seed)
    out = []
    for _ in range(n_blocks):
        s = rng.choice(["a", "b", "c"], rows).astype(object)
        s[rng.rand(rows) < 0.5] = None
        i = rng.randint(0, 4, rows).astype(object)
        i[rng.rand(rows) < 0.5] = None
        v = rng.rand(rows) * 100
        out.append(pa.table({
            "s": pa.array(s, type=pa.string()),
            "i": pa.array(i, type=pa.int64()),
            "v": pa.array(np.where(rng.rand(rows) < 0.1, None, v),
                          type=pa.float64()),
            "x": pa.array(rng.randint(-50, 50, rows), type=pa.int64())}))
    return out


def _canon(t: pa.Table):
    return sorted(tuple(round(v, 6) if isinstance(v, float) else v
                        for v in r.values())
                  for r in t.to_pylist())


def test_lowcard_aggregate_equals_one_group_by(ray_session):
    import ray.data
    from ie_ray.stages.relational import lowcard_aggregate
    blocks = _null_key_blocks()
    assert all(b.column("s").null_count > 128 for b in blocks)
    whole = pa.concat_tables(blocks)
    # the reference: one group_by over the whole input, with null-key
    # tuples kept whole (a single key column of the pair's repr)
    ref = pa.table({"k": pa.array([repr((a, b)) for a, b in zip(
        whole.column("s").to_pylist(), whole.column("i").to_pylist())]),
        "v": whole.column("v"), "x": whole.column("x")}) \
        .group_by("k").aggregate(_AGGS)
    out = pa.Table.from_pylist(lowcard_aggregate(
        ray.data.from_arrow(blocks), ["s", "i"], _AGGS).take_all())
    assert out.column_names == ["s", "i"] + ref.column_names[1:]
    assert out.num_rows == ref.num_rows
    got = pa.table({"k": pa.array([repr((a, b)) for a, b in zip(
        out.column("s").to_pylist(), out.column("i").to_pylist())]),
        **{c: out.column(c) for c in ref.column_names[1:]}})
    assert _canon(got) == _canon(ref.select(got.column_names))
    # pyarrow's own two-key group_by over the concatenation splits the
    # null-key tuples into thousands of rows; its schema is the same
    direct = whole.group_by(["s", "i"]).aggregate(_AGGS)
    assert direct.schema == out.schema and direct.num_rows > out.num_rows


def test_lowcard_aggregate_finish_and_empty_input(ray_session):
    import ray.data
    from ie_ray.stages.relational import lowcard_aggregate, lowcard_combine
    t = pa.table({"k": pa.array([1, 2, 1], type=pa.int64()),
                  "v": pa.array([1.0, 2.0, 3.0])})
    out = lowcard_aggregate(
        _ds(t, 3), "k", [("v", "sum")],
        lambda g: g.rename_columns(["k", "total"])).take_all()
    assert sorted((r["k"], r["total"]) for r in out) == [(1, 4.0), (2, 2.0)]

    # empty input: what a hand-written partial/final pair gives
    empty = ray.data.from_arrow(t).filter(lambda r: False)
    old = lowcard_combine(
        empty, lambda b: b.group_by("k").aggregate([("v", "sum")]),
        lambda b: b.group_by("k").aggregate([("v_sum", "sum")])
        .rename_columns(["k", "v_sum"]))
    new = lowcard_aggregate(empty, "k", [("v", "sum")])
    assert new.take_all() == old.take_all() == []
    assert new.schema() == old.schema()
