"""adaptive_join: broadcast and hash paths produce identical results."""

import pyarrow as pa
import pytest

from ie_ray.stages.relational import adaptive_join

LEFT = pa.table({
    "k": pa.array([1, 2, 2, 3, 5], type=pa.int64()),
    "lv": pa.array(["a", "b", "c", "d", "e"]),
})
RIGHT = pa.table({
    "k": pa.array([1, 2, 3, 4], type=pa.int64()),
    "rv": pa.array([10, 20, 30, 40], type=pa.int64()),
})
WANT = sorted([(1, "a", 10), (2, "b", 20), (2, "c", 20), (3, "d", 30)])


def _run(broadcast_max_rows):
    import ray.data
    out = adaptive_join(ray.data.from_arrow(LEFT).repartition(3),
                        ray.data.from_arrow(RIGHT), "k",
                        broadcast_max_rows=broadcast_max_rows)
    return sorted((r["k"], r["lv"], r["rv"]) for r in out.take_all())


@pytest.mark.usefixtures("ray_session")
def test_broadcast_path():
    assert _run(broadcast_max_rows=100) == WANT


@pytest.mark.usefixtures("ray_session")
def test_hash_path_same_result():
    assert _run(broadcast_max_rows=1) == WANT


@pytest.mark.usefixtures("ray_session")
def test_broadcast_rejects_dup_keys():
    import ray.data
    dup = pa.table({"k": pa.array([1, 1], type=pa.int64()),
                    "rv": pa.array([9, 9], type=pa.int64())})
    with pytest.raises(Exception):
        adaptive_join(ray.data.from_arrow(LEFT),
                      ray.data.from_arrow(dup), "k",
                      broadcast_max_rows=10).take_all()


@pytest.mark.usefixtures("ray_session")
def test_broadcast_build_side_skips_driver(monkeypatch):
    """The broadcast path hands workers the build side's block refs: the
    driver neither gets a build-side table nor puts one."""
    import ray
    import ray.data
    left = ray.data.from_arrow(LEFT).repartition(3)
    right = ray.data.from_arrow(RIGHT).materialize()
    seen = []
    get, put = ray.get, ray.put

    def spy_get(*args, **kwargs):
        out = get(*args, **kwargs)
        vals = out if isinstance(out, list) else [out]
        seen.extend(v for v in vals if isinstance(v, pa.Table))
        return out

    def spy_put(value, *args, **kwargs):
        if isinstance(value, pa.Table):
            seen.append(value)
        return put(value, *args, **kwargs)

    monkeypatch.setattr(ray, "get", spy_get)
    monkeypatch.setattr(ray, "put", spy_put)
    out = adaptive_join(left, right, "k", broadcast_max_rows=100)
    monkeypatch.undo()
    assert seen == []
    assert sorted((r["k"], r["lv"], r["rv"])
                  for r in out.take_all()) == WANT


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("broadcast_max_rows", [100, 1])
def test_lazy_right_side_runs_once(tmp_path, broadcast_max_rows):
    """A lazy right side is executed once per join, on either path."""
    import uuid

    import ray.data

    def counted(t: pa.Table) -> pa.Table:
        open(str(tmp_path / uuid.uuid4().hex), "w").close()
        return t

    right = ray.data.from_arrow(RIGHT).map_batches(counted,
                                                   batch_format="pyarrow")
    out = adaptive_join(ray.data.from_arrow(LEFT).repartition(3), right,
                        "k", broadcast_max_rows=broadcast_max_rows)
    assert sorted((r["k"], r["lv"], r["rv"])
                  for r in out.take_all()) == WANT
    assert len(list(tmp_path.iterdir())) == 1
