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
    """A 30-node path whose minimum id sits at one end needs one round
    per hop; the loop must run until the labels stop changing."""
    import ray.data
    from ie_ray.stages.link import connected_components
    nodes = ["n%02d" % i for i in range(30)]
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array(nodes[:-1], type=pa.string()),
        "b": pa.array(nodes[1:], type=pa.string()),
    }))
    comp = {r["node"]: r["component"]
            for r in connected_components(edges).take_all()}
    assert comp == dict.fromkeys(nodes, "n00")


def test_cc_hub_component(ray_session):
    """A star graph (hub with many leaves) — the shape that round-1's
    per-node map_groups push serialized into one Python task — must
    converge to the hub component under the join-based propagation."""
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


def test_canonicalize_ds_matches_broadcast(ray_session):
    """The distributed join relabel must produce exactly the broadcast-dict
    relabel's output on a planted alias cluster."""
    import ray
    import ray.data
    from ie_ray.stages.link import (canonicalize_ids, canonicalize_ids_ds,
                                    connected_components)
    triples = ray.data.from_arrow(pa.table({
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
    }))
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array(["e:a", "e:b"], type=pa.string()),
        "b": pa.array(["e:b", "e:c"], type=pa.string()),
    }))
    labels = connected_components(edges).materialize()
    comp = {r["node"]: r["component"] for r in labels.take_all()}

    def canon_rows(ds):
        return sorted(((r["subj_id"] or "", r["obj_id"] or "", r["kind"])
                       for r in ds.take_all()))

    via_ds = canon_rows(canonicalize_ids_ds(triples, labels))
    via_map = canon_rows(canonicalize_ids(triples, ray.put(comp)))
    assert via_ds == via_map
    # the planted cluster {e:a, e:b, e:c} collapsed to e:a
    assert ("e:a", "e:a", "aka") in via_ds
    assert ("", "", "quarantine") in via_ds


def test_canonicalize_pipeline(ray_session, tmp_path):
    import ray
    import ray.data
    from ie_ray.sources.pages import write_fixture_tables
    from ie_ray.pipelines.kg import kg_triples
    from ie_ray.stages.link import (alias_edges_from_triples,
                                    canonicalize_ids, connected_components)
    d = str(tmp_path / "fx")
    write_fixture_tables(d, n_pages=80, pool_size=300)
    triples = kg_triples(d).materialize()
    edges = alias_edges_from_triples(triples)
    assert edges.count() > 0  # appositive sentences produce _AKA edges
    comp = {r["node"]: r["component"]
            for r in connected_components(edges).take_all()}
    ref = ray.put(comp)
    canon = canonicalize_ids(triples, ref)
    rows = canon.take_all()
    # every aka pair now shares a canonical id
    for r in rows:
        if r["kind"] == "aka" and r["subj_id"] and r["obj_id"]:
            assert r["subj_id"] == r["obj_id"], r


def test_cc_planted_hub_salting(ray_session):
    """Planted hub: one node with degree >> block size must (a) split so
    no propagation group exceeds ~hub_degree rows and (b) converge to
    exactly the labels a driver-side union-find computes, with no
    sub-node ids leaking into the output."""
    import numpy as np
    import ray.data
    from ie_ray.stages.link import (_SUB_PREFIX, _salt_hubs,
                                    connected_components)

    hub_degree = 32
    n_leaves = 500
    leaves = ["leaf%04d" % i for i in range(n_leaves)]
    # hub star + a chain hanging off leaf0 + a separate component
    a = ["hub"] * n_leaves + ["leaf0000", "chain1", "p"]
    b = leaves + ["chain1", "chain2", "q"]
    edges = ray.data.from_arrow(pa.table({
        "a": pa.array(a, type=pa.string()),
        "b": pa.array(b, type=pa.string()),
    })).repartition(8)

    # (a) group-size bound after salting
    def explode(batch):
        aa = batch.column("a").to_pylist()
        bb = batch.column("b").to_pylist()
        return pa.table({"node": pa.array(aa + bb, type=pa.string()),
                         "peer": pa.array(bb + aa, type=pa.string())})
    adj = edges.map_batches(explode, batch_format="pyarrow").materialize()
    salted, n_hubs = _salt_hubs(adj, hub_degree)
    assert n_hubs == 1
    counts = {r["node"]: r["count()"]
              for r in salted.groupby("node").count().take_all()}
    k = -(-(n_leaves) // hub_degree)  # hub adjacency rows -> k sub-nodes
    assert max(counts.values()) <= hub_degree + 2, max(counts.items(),
                                                       key=lambda x: x[1])
    assert counts["hub"] <= k + 2  # chain rows only (plus chain/extra)
    subs = [n for n in counts if n.startswith(_SUB_PREFIX)]
    assert len(subs) == k

    # (b) labels identical to a union-find twin, no sub-nodes in output
    comp = {r["node"]: r["component"]
            for r in connected_components(edges,
                                          hub_degree=hub_degree).take_all()}
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
    want = {}
    for node in set(a) | set(b):
        root = find(node)
        # component id = min node id in component
        want.setdefault(root, []).append(node)
    want_label = {}
    for root, members in want.items():
        m = min(members)
        for node in members:
            want_label[node] = m
    assert not any(n.startswith(_SUB_PREFIX) for n in comp)
    assert comp == want_label
