"""Incremental graph maintenance: two-delta update == one-shot build."""
import shutil

import pyarrow as pa
import pytest


def _triples(rows):
    return pa.table({
        "subj_id": pa.array([r[0] for r in rows], type=pa.string()),
        "subj": pa.array([r[1] for r in rows], type=pa.string()),
        "pred": pa.array([r[2] for r in rows], type=pa.string()),
        "obj_id": pa.array([r[3] for r in rows], type=pa.string()),
        "obj": pa.array([r[4] for r in rows], type=pa.string()),
        "kind": pa.array([r[5] for r in rows], type=pa.string()),
    })


BATCH_A = [
    ("e:acme", "Acme", "acquire", "e:globex", "Globex", "arg"),
    ("e:acme", "Acme Corp", "acquire", "e:globex", "Globex", "arg"),
    ("e:acme", "Acme", "hire", "e:smith", "Smith", "arg"),
    ("e:smith", "Smith", "own", "e:car", "car", "poss"),
    ("e:x", "X", "rel", None, None, "arg"),          # dropped: null obj
]
BATCH_B = [
    ("e:acme", "Acme Corp", "acquire", "e:globex", "Globex", "arg"),
    ("e:acme", "Acme Corp", "acquire", "e:initech", "Initech", "arg"),
    ("e:smith", "J. Smith", "join", "e:initech", "Initech", "arg"),
]


def _graph(edges_ds, nodes_ds):
    edges = {(r["subj_id"], r["pred"], r["obj_id"]): r["n"]
             for r in edges_ds.take_all()}
    nodes = {r["entity_id"]: (r["label"], r["mentions"])
             for r in nodes_ds.take_all()}
    return edges, nodes


def _snapshot(out_dir):
    from ie_ray.stages.graph_update import read_graph
    return _graph(read_graph(out_dir, "edges"), read_graph(out_dir, "nodes"))


def _one_shot(triples_ds):
    """The same snapshot from the one-shot build over ``triples_ds``."""
    from ie_ray.stages.graph import build_edges, build_nodes
    return _graph(build_edges(triples_ds), build_nodes(triples_ds))


def test_incremental_equals_one_shot(ray_session, tmp_path):
    import json

    import ray.data
    from ie_ray.stages.graph_update import update_graph

    inc_dir = str(tmp_path / "inc")
    m1 = update_graph(inc_dir, ray.data.from_arrow(_triples(BATCH_A)))
    assert m1["version"] == "v1"
    m2 = update_graph(inc_dir, ray.data.from_arrow(_triples(BATCH_B)))
    assert m2["version"] == "v2"
    union = ray.data.from_arrow(_triples(BATCH_A)).union(
        ray.data.from_arrow(_triples(BATCH_B)))
    assert _snapshot(inc_dir) == _one_shot(union)

    edges, nodes = _snapshot(inc_dir)
    assert edges[("e:acme", "acquire", "e:globex")] == 3
    assert edges[("e:smith", "own", "e:car")] == 1
    # majority label across BOTH deltas: "Acme Corp" (3) beats "Acme" (2)
    assert nodes["e:acme"] == ("Acme Corp", 5)
    # previous version remains intact (checkpoint: crash mid-v2 would
    # leave v1 CURRENT)
    assert (tmp_path / "inc" / "v1" / "edges").is_dir()
    # the version's row counts are the sums of its partition manifests
    mans = [json.loads(p.read_text())
            for p in (tmp_path / "inc" / "v2" / "manifests").iterdir()]
    for name, rows in m2["tables"].items():
        assert rows == sum(m["rows"] for m in mans if m["table"] == name)
    assert m2["tables"] == {"node_labels": 8, "edges": 5, "nodes": 6}


def test_incremental_equals_one_shot_on_fixture(ray_session, tmp_path):
    """Two deltas of real flagship triples (the 60-page fixture split by
    url-length parity, as ``kg_incremental`` splits it) give the rows
    ``build_nodes``/``build_edges`` give over the whole corpus."""
    import pyarrow.compute as pc
    from ie_ray.pipelines.kg import default_fixture_dir, kg_triples
    from ie_ray.stages.graph_update import update_graph

    good = kg_triples(default_fixture_dir(n_pages=60, pool_size=300)) \
        .filter(expr="kind != 'quarantine' and kind != 'empty'") \
        .materialize()

    def half(parity):
        def fn(b: pa.Table) -> pa.Table:
            odd = pc.bit_wise_and(pc.utf8_length(b.column("url")), 1)
            return b.filter(pc.equal(odd, parity))
        return fn

    out = str(tmp_path / "inc")
    sizes = [update_graph(out, good.map_batches(
        half(parity), batch_format="pyarrow"))["tables"]["edges"]
        for parity in (0, 1)]
    assert 0 < sizes[0] < sizes[1]      # both deltas carry edges
    edges, nodes = _snapshot(out)
    assert len(edges) > 100 and len(nodes) > 50
    assert (edges, nodes) == _one_shot(good)


def test_crash_leaves_previous_version_current(ray_session, tmp_path):
    import ray.data
    from ie_ray.stages.graph_update import read_graph, update_graph

    out = str(tmp_path / "g")
    update_graph(out, ray.data.from_arrow(_triples(BATCH_A)))
    before, _ = _snapshot(out)
    # simulate a crashed second update: a half-written version directory
    # without the CURRENT flip
    (tmp_path / "g" / "v2" / "edges").mkdir(parents=True)
    after, _ = _snapshot(out)
    assert after == before          # reads still serve v1
    # a retried update publishes v2 properly... but the stale partial v2
    # dir is in the way of write_parquet? update_graph overwrites it.
    update_graph(out, ray.data.from_arrow(_triples(BATCH_B)))
    edges, _ = _snapshot(out)
    assert edges[("e:acme", "acquire", "e:globex")] == 3
