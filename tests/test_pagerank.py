"""Distributed PageRank matches its NumPy twin on a planted graph and
on the real KG edge set."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest


def _run(edges_tbl, iters=10):
    import ray.data
    from ie_ray.stages.pagerank import pagerank
    ds = ray.data.from_arrow(edges_tbl)
    got = (pagerank(ds, iters=iters).to_pandas()
           .sort_values("node").reset_index(drop=True))
    return got


def test_pagerank_planted_graph(ray_session):
    """Star + chain + dangling node: hand-checkable structure.  The hub
    of the star must outrank every leaf, and ranks sum to 1."""
    from ie_ray.stages.pagerank import pagerank_reference
    src = ["a", "b", "c", "d", "hub", "x"]
    dst = ["hub", "hub", "hub", "hub", "x", "y"]
    t = pa.table({"subj_id": src, "obj_id": dst})
    got = _run(t)
    want = pagerank_reference(src, dst)
    assert len(got) == len(want)
    for _, row in got.iterrows():
        assert abs(row["rank"] - want[row["node"]]) < 1e-9
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    ranks = dict(zip(got.node, got["rank"]))
    assert ranks["hub"] > ranks["a"]
    # y is dangling (no out-edges) — its mass must still be conserved
    assert ranks["y"] > 0


def test_pagerank_on_kg_edges(ray_session):
    """The kg_pagerank query agrees with the twin run on the same edge
    set, node for node."""
    import __ray_entry__ as entrymod
    from ie_ray.stages.pagerank import pagerank_reference

    edges = (entrymod.queries()["kg_edges"]("/root/testdata/sf0.001")
             .to_pandas())
    got = (entrymod.queries()["kg_pagerank"]("/root/testdata/sf0.001")
           .to_pandas().sort_values("node").reset_index(drop=True))
    want = pagerank_reference(list(edges.subj_id), list(edges.obj_id),
                              iters=5)
    assert len(got) == len(want) > 0
    for _, row in got.iterrows():
        assert abs(row["rank"] - want[row["node"]]) < 1e-6
    assert abs(got["rank"].sum() - 1.0) < 1e-6


def test_personalized_pagerank_matches_twin(ray_session):
    import ray.data

    from ie_ray.stages.pagerank import (pagerank_personalized,
                                        pagerank_personalized_reference)

    rng = np.random.RandomState(83)
    nodes = ["v%02d" % i for i in range(25)]
    pairs = sorted({(nodes[a], nodes[b]) for a, b in
                    zip(rng.randint(0, 25, 120),
                        rng.randint(0, 25, 120)) if a != b})
    src = [p[0] for p in pairs]
    dst = [p[1] for p in pairs]
    edges = ray.data.from_arrow(pa.table({
        "subj_id": pa.array(src), "obj_id": pa.array(dst)})) \
        .repartition(4)
    seeds = ["v00", "v01"]
    got = {r["node"]: r["rank"] for r in
           pagerank_personalized(edges, seeds, iters=8,
                                 num_partitions=2).take_all()}
    want = pagerank_personalized_reference(src, dst, seeds, iters=8)
    for v, w in want.items():
        assert abs(got.get(v, 0.0) - w) < 1e-9, v
    # teleport locality: the seed set keeps far more than the
    # uniform share of total mass
    seed_mass = sum(got[s] for s in seeds if s in got)
    assert seed_mass > 2 * len(seeds) / len(want)


def test_personalized_pagerank_rejects_missing_seed(ray_session):
    import pytest
    import ray.data

    from ie_ray.stages.pagerank import (pagerank_personalized,
                                        pagerank_personalized_reference)

    edges = ray.data.from_arrow(pa.table({
        "subj_id": pa.array(["a"]), "obj_id": pa.array(["b"])}))
    with pytest.raises(ValueError, match="absent"):
        pagerank_personalized(edges, ["a", "ghost"], iters=2)
    with pytest.raises(ValueError, match="absent"):
        pagerank_personalized_reference(["a"], ["b"], ["ghost"])


def test_kg_pagerank_finishes_at_two_cpus():
    """pagerank reads its edges several times, two of them in one union
    plan; unless they are materialized once, two copies of the flagship
    run at once (with the former parse actor pool a 2-CPU session never
    finished).  A 2-CPU session must finish with a non-empty ranking."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = ("import ray\n"
              "ray.init(address='local', num_cpus=2, "
              "include_dashboard=False)\n"
              "import __ray_entry__ as e\n"
              "ds = e.queries()['kg_pagerank']('/root/testdata/sf0.001')\n"
              "print(ds.count())\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, cwd=repo,
                          timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout.split()[-1]) > 0
