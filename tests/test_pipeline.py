"""End-to-end Ray pipeline tests at small fixture scale."""

import collections
import glob
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def fixture_dir(ray_session, tmp_path_factory):
    from ie_ray.sources.pages import write_fixture_tables
    d = str(tmp_path_factory.mktemp("fixtures"))
    write_fixture_tables(d, n_pages=60, pool_size=300)
    return d


def test_extraction_byte_identity(ray_session, fixture_dir):
    import ray.data
    from ie_ray.stages.extract import verify_extraction_batch
    ds = ray.data.read_parquet(os.path.join(fixture_dir, "pages"))
    res = ds.map_batches(verify_extraction_batch, batch_format="pyarrow")
    rows = res.take_all()
    assert rows and all(r["identical"] for r in rows)


def test_multidomain_extraction_unit():
    """Byte-identity per container contract (S2: reuters/nyt/wapo/fox
    + generic <article> fallback); boilerplate <p> must be dropped."""
    from ie_ray.sources.html import extract_text
    from ie_ray.sources.pages import _LAYOUTS, _page_html
    paras = ["First paragraph here.", "Second one, with <b>markup</b>."]
    want = "First paragraph here.\nSecond one, with markup."
    for layout in _LAYOUTS:
        html = _page_html("Title", paras, layout)
        assert extract_text(html.encode("utf-8")) == want, layout
    generic = ("<html><body><p>nav junk</p><article><p>First paragraph "
               "here.</p><p>Second one.</p></article></body></html>")
    assert extract_text(generic) == "First paragraph here.\nSecond one."
    assert extract_text("<html><body><p>no container</p></body></html>") == ""


def test_exact_dedup(ray_session, fixture_dir):
    import ray.data
    from ie_ray.stages.extract import add_page_hash, exact_dedup
    ds = ray.data.read_parquet(os.path.join(fixture_dir, "pages"))
    ds = ds.map_batches(add_page_hash, batch_format="pyarrow")
    total = ds.count()
    deduped = exact_dedup(ds).count()
    assert deduped < total  # the synthesizer plants syndicated duplicates
    hashes = [r["page_hash"] for r in
              exact_dedup(ds).select_columns(["page_hash"]).take_all()]
    assert len(hashes) == len(set(hashes))


def test_kg_triples_and_pr(ray_session, fixture_dir):
    from ie_ray.pipelines.kg import kg_triples
    from ie_ray.pipelines.metrics import triple_pr
    ds = kg_triples(fixture_dir)
    rows = ds.take_all()
    kinds = collections.Counter(r["kind"] for r in rows)
    assert kinds["arg"] > 0
    pr = triple_pr(kg_triples(fixture_dir), fixture_dir)
    assert pr["precision"] >= 0.95, pr
    assert pr["recall"] >= 0.95, pr


def test_quarantine_rows_present(ray_session, fixture_dir):
    # the synthesizer plants an over-long sentence; it must surface as a
    # quarantine row, not an exception
    from ie_ray.pipelines.kg import kg_triples
    ds = kg_triples(fixture_dir)
    errs = [r["error"] for r in ds.take_all() if r["kind"] == "quarantine"]
    assert any(e == "too_long" for e in errs)


def _rows(path):
    import pyarrow.parquet as pq
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in glob.glob(os.path.join(path, "**", "*.parquet"),
                                  recursive=True))


def test_graph_write_and_resume(ray_session, fixture_dir, tmp_path,
                                dedup_shards_made, monkeypatch):
    import ray
    import ie_ray.pipelines.kg as kg
    out = str(tmp_path / "graph")
    res = kg.kg_full(fixture_dir, out_dir=out)
    assert res["nodes"] > 0 and res["edges"] > 0
    assert res["shards"] == res["shards_computed"] == 1
    assert os.path.isdir(os.path.join(out, "manifests"))
    mans = [m for m in os.listdir(os.path.join(out, "manifests"))
            if m.endswith(".json")]
    assert len(mans) == res["node_partitions"] + res["edge_partitions"]
    m = json.load(open(os.path.join(out, "manifests", mans[0])))
    assert m["rows"] >= 0 and "partition" in m
    tables = ("triples", "quarantine", "nodes", "edges")
    rows = {t: _rows(os.path.join(out, t)) for t in tables}
    assert rows["triples"] > 0 and rows["quarantine"] > 0
    made = len(dedup_shards_made)
    assert made >= 1

    # a second run on the finished out_dir recomputes no triples, makes
    # no dedup index and rewrites the same tables: no row is duplicated
    def no_triples(*args, **kwargs):
        raise AssertionError("kg_triples ran on a landed out_dir")
    monkeypatch.setattr(kg, "kg_triples", no_triples)
    res2 = kg.kg_full(fixture_dir, out_dir=out)
    assert res2["shards_computed"] == 0
    assert res2["nodes"] == res["nodes"] and res2["edges"] == res["edges"]
    assert {t: _rows(os.path.join(out, t)) for t in tables} == rows
    assert len(dedup_shards_made) == made
    # the first run killed its dedup shards on return
    for shard in dedup_shards_made:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(shard.size.remote(), timeout=60)


def test_kg_triples_plan_is_one_fused_task(ray_session, fixture_dir):
    """The consumed flagship plan is two physical operators: the read and
    ONE fused task running every page stage, the dedup probe,
    segmentation and parse/compose/link.  No actor pool."""
    import ray.data
    from ie_ray.pipelines.kg import kg_triples
    ds = kg_triples(fixture_dir)
    stats = ds.materialize().stats()
    ops = [line for line in stats.splitlines()
           if line.startswith("Operator ")]
    assert len(ops) == 2, stats
    assert "MapBatches(DedupFilter)->MapBatches(segment_batch)" \
        "->MapBatches(ParseComposeActor)" in ops[1], ops
    # the stats text names no compute strategy: read it off the logical
    # plan, where an actor-pool stage carries an ActorPoolStrategy
    todo = [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        assert not isinstance(getattr(op, "_compute", None),
                              ray.data.ActorPoolStrategy), op.name
        todo.extend(op.input_dependencies)


def test_kg_triples_dead_dedup_shard_raises(fixture_dir):
    """A dedup shard that died before the run makes ``kg_triples`` raise
    within 120 s: it neither hangs nor returns rows."""
    script = ("import sys, ray\n"
              "ray.init(address='local', num_cpus=2, "
              "include_dashboard=False)\n"
              "from ie_ray.pipelines.kg import kg_triples\n"
              "from ie_ray.stages.dedup_index import create_dedup_index\n"
              "shards = create_dedup_index()\n"
              "ray.kill(shards[0])\n"
              "try:\n"
              "    rows = kg_triples(sys.argv[1], "
              "dedup_shards=shards).take_all()\n"
              "except Exception as e:\n"
              "    print('RAISED', type(e).__name__)\n"
              "else:\n"
              "    print('ROWS', len(rows))\n")
    proc = subprocess.run([sys.executable, "-c", script, fixture_dir],
                          capture_output=True, text=True, cwd=REPO,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-2] == "RAISED", proc.stdout[-2000:]


def _sorted_rows(parquet_dir):
    import pyarrow.parquet as pq
    return sorted(json.dumps(r, sort_keys=True, default=str)
                  for r in pq.read_table(parquet_dir).to_pylist())


def test_kg_triples_one_cpu(ray_session, fixture_dir, tmp_path):
    """A 1-CPU session finishes (the read and the fused page task are
    the only CPU users; the dedup shards reserve none) with the same
    triples as the multi-CPU session."""
    from ie_ray.pipelines.kg import kg_triples
    one, many = str(tmp_path / "one_cpu"), str(tmp_path / "session")
    script = ("import sys, ray\n"
              "ray.init(address='local', num_cpus=1, "
              "include_dashboard=False)\n"
              "from ie_ray.pipelines.kg import kg_triples\n"
              "kg_triples(sys.argv[1]).write_parquet(sys.argv[2])\n")
    proc = subprocess.run([sys.executable, "-c", script, fixture_dir, one],
                          capture_output=True, text=True, cwd=REPO,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    kg_triples(fixture_dir).write_parquet(many)
    assert _sorted_rows(one) == _sorted_rows(many)
