"""Pages-level checkpoint-resume (F1): kill mid-run, re-run, identical
output, completed shards not recomputed."""

import os

import pytest


def _shard_mtimes(out_dir):
    base = os.path.join(out_dir, "triples")
    out = {}
    for d in sorted(os.listdir(base)):
        if d.startswith("shard=") and not d.endswith(".tmp"):
            p = os.path.join(base, d)
            out[d] = max(os.path.getmtime(os.path.join(p, f))
                         for f in os.listdir(p))
    return out


def _triple_multiset(out_dir):
    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(out_dir, "triples"),
                      columns=["sent_hash", "subj", "pred", "obj", "kind"])
    return sorted(zip(*(t.column(c).to_pylist() for c in t.column_names)))


def test_pages_level_resume(ray_session, tmp_path, dedup_shards_made):
    import ray
    from ie_ray.pipelines.kg import kg_resumable
    from ie_ray.sources.pages import write_fixture_tables
    d = str(tmp_path / "fx")
    write_fixture_tables(d, n_pages=80, pool_size=300)
    out = str(tmp_path / "out")

    # crash after the first completed shard
    with pytest.raises(RuntimeError, match="simulated crash"):
        kg_resumable(d, out, num_shards=3, _fail_after=1)
    done_before = _shard_mtimes(out)
    assert len(done_before) == 1            # exactly one shard landed
    manifests = os.listdir(os.path.join(out, "manifests"))
    assert any(m.startswith("triples-shard") for m in manifests)

    # resume: completes, skips the landed shard byte-for-byte
    res = kg_resumable(d, out, num_shards=3)
    assert res["shards_skipped"] == 1
    assert res["shards_computed"] == res["shards"] - 1
    after = _shard_mtimes(out)
    for shard, mtime in done_before.items():
        assert after[shard] == mtime        # not recomputed

    # identical output vs an uninterrupted run of the same pipeline
    out2 = str(tmp_path / "out2")
    res2 = kg_resumable(d, out2, num_shards=3)
    assert res2["shards_skipped"] == 0
    assert _triple_multiset(out) == _triple_multiset(out2)
    assert res["edges"] == res2["edges"] and res["nodes"] == res2["nodes"]
    # every run, the crashed one too, killed its dedup shards on return
    assert len(dedup_shards_made) >= 3
    for shard in dedup_shards_made:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(shard.size.remote(), timeout=60)
