"""Pages-level checkpoint-resume (F1): kill mid-run, re-run, identical
output, completed shards not recomputed, same graph as one shard."""

import collections
import glob
import os

import pytest


def _landed_files(out_dir, shard):
    """{file: mtime} of a landed shard, its manifest included."""
    landed = os.path.join(out_dir, "landed")
    files = glob.glob(os.path.join(landed, "triples", shard, "*")) + [
        os.path.join(landed, "manifests", "triples-%s.json" % shard)]
    return {f: os.path.getmtime(f) for f in files}


def _output(out_dir):
    """The published tables as order-free values: the canonical
    ``(subj_id, pred, obj_id)`` multiset, the triple rows by sentence,
    the quarantine rows, and the node and edge rows."""
    import pyarrow.parquet as pq

    def rows(table, cols):
        t = pq.read_table(os.path.join(out_dir, table), columns=cols)
        return collections.Counter(zip(*(t.column(c).to_pylist()
                                         for c in cols)))
    return {
        "canonical": rows("triples", ["subj_id", "pred", "obj_id"]),
        "triples": rows("triples", ["sent_hash", "subj", "pred", "obj",
                                    "kind"]),
        "quarantine": rows("quarantine", ["sent_hash", "error"]),
        "nodes": rows("nodes", ["entity_id", "label", "mentions"]),
        "edges": rows("edges", ["subj_id", "pred", "obj_id", "n"]),
    }


def test_pages_level_resume(ray_session, tmp_path, dedup_shards_made):
    import ray
    from ie_ray.pipelines.kg import kg_full
    from ie_ray.sources.pages import write_fixture_tables
    d = str(tmp_path / "fx")
    # 500 pages per input file: three files, so num_shards=3 gives 3 shards
    write_fixture_tables(d, n_pages=1001, pool_size=300)
    assert len(glob.glob(os.path.join(d, "pages", "*.parquet"))) == 3
    out = str(tmp_path / "out")

    # crash after the first completed shard
    with pytest.raises(RuntimeError, match="simulated crash"):
        kg_full(d, out, num_shards=3, _fail_after=1)
    landed = sorted(os.listdir(os.path.join(out, "landed", "triples")))
    assert landed == ["shard000"]
    before = _landed_files(out, "shard000")

    # resume: the two pending shards run, the landed one is not rewritten
    res = kg_full(d, out, num_shards=3)
    assert res["shards"] == 3 and res["shards_computed"] == 2
    assert _landed_files(out, "shard000") == before

    # identical output vs an uninterrupted run of the same shards, and the
    # same graph as a one-shard run
    resumed = _output(out)
    res3 = kg_full(d, str(tmp_path / "out3"), num_shards=3)
    assert res3["shards_computed"] == 3
    assert _output(str(tmp_path / "out3")) == resumed
    # ... on the same out_dir: shard000 landed from one input file, not
    # three, so it counts as pending and is recomputed
    res1 = kg_full(d, out, num_shards=1)
    assert res1["shards"] == res1["shards_computed"] == 1
    one = _output(out)
    for table in ("canonical", "nodes", "edges"):
        assert one[table] == resumed[table], table
    assert (res1["nodes"], res1["edges"]) == (res["nodes"], res["edges"])

    # one index per run that computed a shard (the crashed one too), and
    # every one killed on return
    assert len(dedup_shards_made) >= 4
    for shard in dedup_shards_made:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(shard.size.remote(), timeout=60)
