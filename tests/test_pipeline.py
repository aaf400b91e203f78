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
    """The synthesizer plants syndicated duplicates: the page dedup drops
    them and keeps one url per content hash."""
    import ie_ray.pipelines.kg as kg
    pages = kg._read_pages(os.path.join(fixture_dir, "pages"))
    kept = kg._new_pages(pages, kg.dedup_losers(pages)).select_columns(
        ["url", "page_hash"]).take_all()
    assert len(kept) < kg._en_pages(pages).count()
    urls = collections.defaultdict(set)
    for r in kept:
        urls[r["page_hash"]].add(r["url"])
    assert all(len(u) == 1 for u in urls.values())


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
                                monkeypatch):
    from ray._private import state
    import ie_ray.pipelines.kg as kg
    out = str(tmp_path / "graph")
    before = set(state.actors())
    res = kg.kg_full(fixture_dir, out_dir=out)
    # Ray Data's own bookkeeping actors aside, the writer starts none
    made = {a["ActorClassName"] for k, a in state.actors().items()
            if k not in before}
    assert made <= {"_StatsActor", "AutoscalingRequester"}, made
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

    # a second run on the finished out_dir recomputes no triples, makes
    # no loser list and rewrites the same tables: no row is duplicated
    def not_run(*args, **kwargs):
        raise AssertionError("a landed out_dir reran the page stages")
    monkeypatch.setattr(kg, "kg_triples", not_run)
    monkeypatch.setattr(kg, "dedup_losers", not_run)
    res2 = kg.kg_full(fixture_dir, out_dir=out)
    assert res2["shards_computed"] == 0
    assert res2["nodes"] == res["nodes"] and res2["edges"] == res["edges"]
    assert {t: _rows(os.path.join(out, t)) for t in tables} == rows


def test_kg_triples_plan_is_one_fused_task(ray_session, fixture_dir):
    """The consumed flagship plan is two physical operators: the read and
    ONE fused task running every page stage, the loser-list probe,
    segmentation and parse/compose/link.  No actor pool."""
    import ray.data
    from ie_ray.pipelines.kg import kg_triples
    ds = kg_triples(fixture_dir)
    stats = ds.materialize().stats()
    ops = [line for line in stats.splitlines()
           if line.startswith("Operator ")]
    assert len(ops) == 2, stats
    assert "MapBatches(add_page_hash)->MapBatches(drop_dedup_losers)" \
        "->MapBatches(segment_batch)->MapBatches(ParseComposeActor)" \
        in ops[1], ops
    # the stats text names no compute strategy: read it off the logical
    # plan, where an actor-pool stage carries an ActorPoolStrategy
    todo = [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        assert not isinstance(getattr(op, "_compute", None),
                              ray.data.ActorPoolStrategy), op.name
        todo.extend(op.input_dependencies)


def _distinct_en_pages(fixture_dir, n):
    """``n`` (html, page_hash) pairs of English fixture pages, each with
    its own text."""
    import pyarrow.parquet as pq
    from ie_ray.stages.extract import add_page_hash, extract_text_batch
    t = pq.read_table(os.path.join(fixture_dir, "pages"),
                      columns=["url", "html", "lang"])
    hashes = add_page_hash(extract_text_batch(t)).column("page_hash")
    out, seen = [], set()
    for html, lang, h in zip(t.column("html").to_pylist(),
                             t.column("lang").to_pylist(),
                             hashes.to_pylist()):
        if lang == "en" and h not in seen:
            seen.add(h)
            out.append((html, h))
    return out[:n]


def test_dedup_keeps_least_url(ray_session, fixture_dir, tmp_path):
    """Duplicate texts arriving in reversed url order across files: the
    least url of each page hash survives, with every row that has it."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ie_ray.pipelines.kg as kg
    (h0, k0), (h1, k1) = _distinct_en_pages(fixture_dir, 2)
    files = [[("http://x/c", h0, "en"), ("http://x/d", h1, "en"),
              ("http://x/a", h0, "de")],
             [("http://x/b", h0, "en"), ("http://x/b", h0, "en"),
              ("http://x/e", h1, "en")]]
    os.makedirs(str(tmp_path / "pages"))
    for i, rows in enumerate(files):
        pq.write_table(pa.table({
            "url": [r[0] for r in rows],
            "html": pa.array([r[1] for r in rows], type=pa.binary()),
            "lang": [r[2] for r in rows]}),
            str(tmp_path / "pages" / ("part-%05d.parquet" % i)))
    pages = kg._read_pages(str(tmp_path / "pages"))
    losers = kg.dedup_losers(pages)
    assert sorted((r["page_hash"], r["url"]) for r in losers.take_all()) \
        == sorted([(k0, "http://x/c"), (k1, "http://x/e")])
    kept = kg._new_pages(pages, losers).select_columns(["url", "page_hash"])
    assert sorted((r["url"], r["page_hash"]) for r in kept.take_all()) \
        == [("http://x/b", k0), ("http://x/b", k0), ("http://x/d", k1)]
    urls = collections.Counter(
        r["url"] for r in kg.kg_triples(fixture_dir, pages_ds=pages)
        .take_all())
    assert set(urls) == {"http://x/b", "http://x/d"}
    assert urls["http://x/b"] % 2 == 0


def _json_rows(rows):
    return sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)


def test_kg_triples_is_deterministic(ray_session, fixture_dir):
    """Two runs give byte-identical sorted rows, url included, also when
    the second reads the pages in reversed row order."""
    import pyarrow.parquet as pq
    import ray.data
    from ie_ray.pipelines.kg import kg_triples
    first = _json_rows(kg_triples(fixture_dir).take_all())
    t = pq.read_table(os.path.join(fixture_dir, "pages"),
                      columns=["url", "html", "lang"])
    backwards = ray.data.from_arrow(
        t.take(list(range(t.num_rows - 1, -1, -1)))).repartition(4)
    assert _json_rows(kg_triples(fixture_dir, pages_ds=backwards)
                      .take_all()) == first


def test_kg_triples_survives_a_dead_worker(ray_session, fixture_dir,
                                           tmp_path):
    """A page stage that kills its worker process once: Ray re-runs the
    lost task from its lineage and the rows are the same, whether the
    death hits the key pass or the fused page task."""
    import ie_ray.pipelines.kg as kg
    marker = str(tmp_path / "died")

    def die_once(t):
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return t

    def flaky_pages():
        return kg._read_pages(os.path.join(fixture_dir, "pages")) \
            .map_batches(die_once, batch_format="pyarrow")

    want = _json_rows(kg.kg_triples(fixture_dir).take_all())
    # the key pass reads the pages first, so it takes the death
    assert _json_rows(kg.kg_triples(fixture_dir, pages_ds=flaky_pages())
                      .take_all()) == want
    # a ready loser list: the death hits the fused page task
    losers = kg.dedup_losers(flaky_pages())
    os.remove(marker)
    assert _json_rows(kg.kg_triples(fixture_dir, pages_ds=flaky_pages(),
                                    losers=losers).take_all()) == want


def _sorted_rows(parquet_dir):
    import pyarrow.parquet as pq
    return _json_rows(pq.read_table(parquet_dir).to_pylist())


def test_kg_triples_one_cpu(ray_session, fixture_dir, tmp_path):
    """A 1-CPU session finishes (the read and the fused page task are
    the only CPU users) with the same triples as the multi-CPU
    session."""
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
