"""Distributed connected components + canonical-id propagation."""

import pyarrow as pa
import pytest


def test_connected_components(ray_session):
    import ray.data
    from ie_ray.stages.link import connected_components
    # two components: {a,b,c,d} via chain, {x,y}
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array(["b", "c", "d", "y"], type=pa.string()),
        "b": pa.array(["a", "b", "c", "x"], type=pa.string()),
    }))
    comp = {r["node"]: r["component"]
            for r in connected_components(edges).take_all()}
    assert comp["a"] == comp["b"] == comp["c"] == comp["d"] == "a"
    assert comp["x"] == comp["y"] == "x"


def test_cc_long_path_converges(ray_session):
    """A 1,000-node path spread over several blocks is one component,
    labelled by its least id, whichever way the ids run along it."""
    import random

    import ray.data
    from ie_ray.stages.link import connected_components
    nodes = ["n%04d" % i for i in range(1000)]
    shuffled = random.Random(7).sample(nodes, len(nodes))
    for order in (nodes, nodes[::-1], shuffled):
        edges = ray.data.from_arrow(pa.table({
            "a": pa.array(order[:-1], type=pa.string()),
            "b": pa.array(order[1:], type=pa.string()),
        })).repartition(4)
        comp = {r["node"]: r["component"]
                for r in connected_components(edges).take_all()}
        assert comp == dict.fromkeys(nodes, "n0000")


def test_cc_hub_component(ray_session):
    """A star graph (hub with many leaves) is one component, labelled
    by the hub."""
    import ray.data
    from ie_ray.stages.link import connected_components
    leaves = ["leaf%03d" % i for i in range(200)]
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array(["hub"] * 200, type=pa.string()),
        "b": pa.array(leaves, type=pa.string()),
    }))
    comp = {r["node"]: r["component"]
            for r in connected_components(edges).take_all()}
    assert set(comp.values()) == {"hub"}
    assert len(comp) == 201


def _dict_relabel(table, comp, cols):
    """The reference relabel: a driver-side dict lookup per value."""
    return [{c: comp.get(v, v) if c in cols else v for c, v in r.items()}
            for r in table.to_pylist()]


def test_canonicalize_ds_matches_broadcast(ray_session):
    """The broadcast relabel must produce exactly a driver-side dict
    relabel's output on a planted alias cluster."""
    import ray.data
    from ie_ray.stages.link import canonicalize_ids_ds, connected_components
    t = pa.table({
        "subj": pa.array(["A", "B", "C", "D", None], type=pa.string()),
        "pred": pa.array(["aka", "aka", "sees", "sees", None],
                         type=pa.string()),
        "obj": pa.array(["B", "C", "D", "A", None], type=pa.string()),
        "kind": pa.array(["aka", "aka", "arg", "arg", "quarantine"],
                         type=pa.string()),
        "subj_id": pa.array(["e:a", "e:b", "e:c", "e:d", None],
                            type=pa.string()),
        "obj_id": pa.array(["e:b", "e:c", "e:d", "e:a", None],
                           type=pa.string()),
    })
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array(["e:a", "e:b"], type=pa.string()),
        "b": pa.array(["e:b", "e:c"], type=pa.string()),
    }))
    labels = connected_components(edges).materialize()
    comp = {r["node"]: r["component"] for r in labels.take_all()}

    def canon_rows(rows):
        return sorted((r["subj_id"] or "", r["obj_id"] or "", r["kind"])
                      for r in rows)

    cols = ("subj_id", "obj_id")
    via_ds = canon_rows(canonicalize_ids_ds(ray.data.from_arrow(t), labels,
                                            cols).take_all())
    via_map = canon_rows(_dict_relabel(t, comp, cols))
    assert via_ds == via_map
    # the planted cluster {e:a, e:b, e:c} collapsed to e:a
    assert ("e:a", "e:a", "aka") in via_ds
    assert ("", "", "quarantine") in via_ds


def test_canonicalize_cols_keeps_unlabelled_and_null(ray_session):
    """``cols`` names the columns to relabel in any table: a labelled
    value takes its component, an unlabelled value and a null keep
    themselves, and the other columns are untouched."""
    import ray.data
    from ie_ray.stages.link import canonicalize_ids_ds, connected_components
    t = pa.table({
        "word": pa.array(["colour", "color", "house", None],
                         type=pa.string()),
        "word2": pa.array(["color", "colour", "house", "x"],
                          type=pa.string()),
        "n": pa.array([3, 7, 2, 1], type=pa.int64()),
    })
    labels = connected_components(ray.data.from_arrow(pa.table({
        "a": pa.array(["colour"], type=pa.string()),
        "b": pa.array(["color"], type=pa.string()),
    })))
    out = canonicalize_ids_ds(ray.data.from_arrow(t), labels, ("word",))
    assert out.schema().names == ["word", "word2", "n"]
    assert sorted(out.take_all(), key=lambda r: r["n"]) == [
        {"word": None, "word2": "x", "n": 1},
        {"word": "house", "word2": "house", "n": 2},
        {"word": "color", "word2": "color", "n": 3},
        {"word": "color", "word2": "colour", "n": 7},
    ]


def test_canonicalize_runs_no_join(ray_session):
    """The relabel probes the one-block label table by broadcast: the
    consumed plan has no join and no hash shuffle."""
    import ray.data
    from ie_ray.stages.link import canonicalize_ids_ds, connected_components
    triples = ray.data.from_arrow(pa.table({
        "subj_id": pa.array(["e:b", "e:c", "e:d"], type=pa.string()),
        "obj_id": pa.array(["e:a", "e:a", None], type=pa.string()),
    }))
    labels = connected_components(ray.data.from_arrow(pa.table({
        "a": pa.array(["e:a"], type=pa.string()),
        "b": pa.array(["e:b"], type=pa.string()),
    })))
    out = canonicalize_ids_ds(triples, labels,
                              ("subj_id", "obj_id")).materialize()
    assert sorted((r["subj_id"], r["obj_id"] or "")
                  for r in out.take_all()) == \
        [("e:a", "e:a"), ("e:c", "e:a"), ("e:d", "")]
    stats = out.stats()
    assert "Join" not in stats and "HashShuffle" not in stats, stats


def test_canonicalize_pipeline(ray_session, tmp_path):
    import ray.data
    from ie_ray.sources.pages import write_fixture_tables
    from ie_ray.pipelines.kg import kg_triples
    from ie_ray.stages.link import (alias_edges_from_triples,
                                    canonicalize_ids_ds,
                                    connected_components)
    d = str(tmp_path / "fx")
    write_fixture_tables(d, n_pages=80, pool_size=300)
    triples = kg_triples(d).materialize()
    edges = alias_edges_from_triples(triples)
    assert edges.count() > 0  # appositive sentences produce _AKA edges
    labels = connected_components(edges)
    rows = canonicalize_ids_ds(triples, labels,
                               ("subj_id", "obj_id")).take_all()
    # every aka pair now shares a canonical id
    for r in rows:
        if r["kind"] == "aka" and r["subj_id"] and r["obj_id"]:
            assert r["subj_id"] == r["obj_id"], r


def _union_find_labels(a, b):
    """node → least id of its component, by a driver-side union-find."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return {node: find(node) for node in set(a) | set(b)}


def test_cc_matches_union_find(ray_session):
    """Labels equal a union-find twin's on (1) a planted hub with a chain
    hanging off one leaf plus a separate pair, and (2) a seeded random
    graph over eight blocks, whose components span blocks."""
    import numpy as np
    import ray.data
    from ie_ray.stages.link import connected_components

    leaves = ["leaf%04d" % i for i in range(500)]
    hub = (["hub"] * 500 + ["leaf0000", "chain1", "p"],
           leaves + ["chain1", "chain2", "q"])
    rng = np.random.default_rng(11)
    ids = ["v%05d" % i for i in range(3000)]
    ends = rng.integers(0, len(ids), size=(2, 2500))
    rand = ([ids[i] for i in ends[0]], [ids[i] for i in ends[1]])
    for a, b in (hub, rand):
        edges = ray.data.from_arrow(pa.table({
            "a": pa.array(a, type=pa.string()),
            "b": pa.array(b, type=pa.string()),
        })).repartition(8)
        comp = {r["node"]: r["component"]
                for r in connected_components(edges).take_all()}
        assert comp == _union_find_labels(a, b)


def test_canonicalize_without_alias_edges(ray_session):
    """No alias edges → an empty label set, which relabels nothing."""
    import ray.data
    from ie_ray.stages.link import (alias_edges_from_triples,
                                    canonicalize_ids_ds,
                                    connected_components)
    t = pa.table({
        "subj": pa.array(["A", "C"], type=pa.string()),
        "pred": pa.array(["sees", "sees"], type=pa.string()),
        "obj": pa.array(["B", "D"], type=pa.string()),
        "kind": pa.array(["arg", "arg"], type=pa.string()),
        "subj_id": pa.array(["e:a", "e:c"], type=pa.string()),
        "obj_id": pa.array(["e:b", "e:d"], type=pa.string()),
    })
    triples = ray.data.from_arrow(t)
    labels = connected_components(alias_edges_from_triples(triples))
    out = canonicalize_ids_ds(triples, labels,
                              ("subj_id", "obj_id")).take_all()
    assert sorted(tuple(r.values()) for r in out) == \
        sorted(zip(*(t.column(c).to_pylist() for c in t.column_names)))
