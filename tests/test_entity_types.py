"""Entity typing: shape votes + skew-safe majority aggregation."""

import pyarrow as pa
import pytest

from ie_ray.stages.graph import _mention_type, type_entities


def test_mention_type_shapes():
    assert _mention_type("Acme Corp") == "org"
    assert _mention_type("Meridian Holdings") == "org"
    assert _mention_type("Anna Marbury") == "person"
    assert _mention_type("committee") == "concept"
    assert _mention_type("the Plan") == "other"
    assert _mention_type("") == "other"


@pytest.mark.usefixtures("ray_session")
def test_majority_vote_and_tiebreak():
    import ray.data
    rows = {
        "subj_id": ["e1", "e1", "e1", "e2", "e3"],
        "subj": ["Anna Marbury", "Anna Marbury", "committee",
                 "Acme Corp", "union"],
        "obj_id": ["e2", None, "e2", "e3", None],
        "obj": ["Acme Corp", None, "Acme Corp", "union", None],
        "kind": ["arg", "arg", "arg", "aka", "quarantine"],
    }
    got = {r["entity_id"]: (r["etype"], r["evidence"])
           for r in type_entities(
               ray.data.from_arrow(pa.table(rows))).take_all()}
    # e1: 2 person votes vs 1 concept → person, 3 mentions of evidence
    assert got["e1"] == ("person", 3)
    assert got["e2"] == ("org", 3)
    # e3's only non-quarantine mention is 'union' (concept)
    assert got["e3"] == ("concept", 1)


@pytest.mark.usefixtures("ray_session")
def test_fixture_pipeline_types():
    from ie_ray.pipelines.kg import default_fixture_dir, kg_triples
    fd = default_fixture_dir(n_pages=60, pool_size=300)
    got = type_entities(kg_triples(fd)).take_all()
    by_type: dict = {}
    for r in got:
        by_type.setdefault(r["etype"], 0)
        by_type[r["etype"]] += 1
    # the synthetic pool guarantees persons, orgs and common nouns
    assert by_type.get("person", 0) > 0
    assert by_type.get("org", 0) > 0
    assert by_type.get("concept", 0) > 0


def _reference_votes(batch: pa.Table) -> pa.Table:
    """The per-row vote loop ``type_entities`` used before its votes were
    Arrow compute — kept here as the reference for ``type_votes``."""
    counts: dict = {}
    for sid, s, oid, o, k in zip(batch.column("subj_id").to_pylist(),
                                 batch.column("subj").to_pylist(),
                                 batch.column("obj_id").to_pylist(),
                                 batch.column("obj").to_pylist(),
                                 batch.column("kind").to_pylist()):
        if k in ("quarantine", "empty"):
            continue
        if sid is not None:
            key = (sid, _mention_type(s or ""))
            counts[key] = counts.get(key, 0) + 1
        if oid is not None:
            key = (oid, _mention_type(o or ""))
            counts[key] = counts.get(key, 0) + 1
    keys = sorted(counts)
    return pa.table({
        "entity_id": pa.array([k[0] for k in keys], type=pa.string()),
        "etype": pa.array([k[1] for k in keys], type=pa.string()),
        "n": pa.array([counts[k] for k in keys], type=pa.int64()),
    })


_LABELS = ["Anna Marbury", "Acme Corp", "committee", "the Plan", "",
           "Sofia-Marbury", "union", "Meridian Holdings", None]
_KINDS = ["arg", "arg", "aka", "poss", "quarantine", "empty", None]


def _random_triples(rng, n: int, n_ents: int = 12) -> pa.Table:
    """Random triple rows: ~10% null ids, null labels, and every kind
    the votes must skip or keep (a null kind votes)."""
    def ids():
        return [None if rng.random() < 0.1 else "e%d" % rng.randrange(n_ents)
                for _ in range(n)]

    def labels():
        return [rng.choice(_LABELS) for _ in range(n)]

    return pa.table({
        "subj_id": pa.array(ids(), type=pa.string()),
        "subj": pa.array(labels(), type=pa.string()),
        "pred": pa.array(["p"] * n, type=pa.string()),
        "obj_id": pa.array(ids(), type=pa.string()),
        "obj": pa.array(labels(), type=pa.string()),
        "kind": pa.array([rng.choice(_KINDS) for _ in range(n)],
                         type=pa.string()),
    })


def _sorted_rows(t: pa.Table):
    return sorted(zip(*(t.column(c).to_pylist() for c in t.column_names)))


def test_arrow_votes_equal_reference_loop():
    import random

    from ie_ray.stages.graph import type_votes
    rng = random.Random(5)
    for n in [0, 1, 2, 7] + [rng.randrange(1, 400) for _ in range(60)]:
        batch = _random_triples(rng, n)
        got, want = type_votes(batch), _reference_votes(batch)
        assert got.column_names == want.column_names
        assert _sorted_rows(got) == _sorted_rows(want), n


@pytest.mark.usefixtures("ray_session")
def test_one_block_equals_seven_blocks():
    """The majority is taken after the counts are summed over blocks: a
    kernel that picked each block's majority first would change labels
    and types between the two layouts."""
    import random

    import ray.data
    from ie_ray.stages.graph import build_nodes
    rng = random.Random(11)
    table = _random_triples(rng, 1400, n_ents=30)
    one = ray.data.from_arrow(table)
    seven = ray.data.from_arrow([table.slice(i * 200, 200)
                                 for i in range(7)])
    assert seven.materialize().num_blocks() == 7
    for fn, cols in ((build_nodes, ["entity_id", "label", "mentions"]),
                     (type_entities, ["entity_id", "etype", "evidence"])):
        rows_one = sorted(tuple(r[c] for c in cols)
                          for r in fn(one).take_all())
        rows_seven = sorted(tuple(r[c] for c in cols)
                            for r in fn(seven).take_all())
        assert len(rows_one) == 30
        assert rows_one == rows_seven, fn.__name__
