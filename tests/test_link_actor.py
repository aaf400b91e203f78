"""Entity linking against an EXTERNAL (non-fixture) alias table.

Round-4 verdict ask #7: one documented entry point that ingests any
alias/entity parquet (schema: alias, entity_id, prior, title) into
``LinkActor``, plus a vectorized ``index_in`` fast path for exact alias
hits (Python only touches the miss tail).  Reference scoring parity:
the common-prefix ratio ≥ 0.7 candidate rule, ie/semantics/ccg.py:1887-1917.
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ie_ray.stages.link import LinkActor, load_alias_map


@pytest.fixture()
def kb_path(tmp_path):
    """A miniature 'real KB' alias table — NOT the synthesized fixture
    one; includes a duplicate alias with differing priors."""
    p = str(tmp_path / "kb_alias.parquet")
    pq.write_table(pa.table({
        "alias": ["angela merkel", "merkel", "paris",
                  "paris", "ada lovelace", "lovelace"],
        "entity_id": ["Q567", "Q567", "Q90", "Q167646", "Q7259", "Q7259"],
        "prior": [0.99, 0.8, 0.9, 0.1, 0.95, 0.7],
        "title": ["Angela Merkel", "Angela Merkel", "Paris",
                  "Paris Texas", "Ada Lovelace", "Ada Lovelace"],
    }), p)
    return p


def test_load_alias_map_highest_prior_wins(kb_path):
    m = load_alias_map(kb_path)
    assert m["paris"][0] == "Q90"          # 0.9 beats 0.1
    assert m["merkel"][0] == "Q567"


def test_link_actor_external_kb(kb_path):
    actor = LinkActor(load_alias_map(kb_path))
    batch = pa.table({
        "subj": ["Angela Merkel", "Angela-Merkel", "Paris",
                 "Ada Lovelace", "Chancellor Merkel", "chancellor", None],
        "obj": ["Merkel", "paris", "Unknown Person",
                "lovelace", "treaty", "Lovelace", "Paris"],
    })
    out = actor(batch)
    subj = out.column("subj_id").to_pylist()
    obj = out.column("obj_id").to_pylist()
    # exact hits (vectorized index_in path), incl. hyphen normalization
    assert subj[0] == subj[1] == "Q567"
    assert subj[2] == "Q90"
    assert subj[3] == "Q7259"
    assert obj[0] == "Q567" and obj[1] == "Q90" and obj[3] == "Q7259"
    # head-word candidate rule: "Chancellor Merkel" resolves through the
    # head alias "merkel" whose title's head matches (ccg.py:1887-1917)
    assert subj[4] == "Q567"
    # unknown proper name → deterministic surface id; common noun → concept
    assert obj[2].startswith("m:")
    assert subj[5] == "c:chancellor"
    # null stays null; capitalized exact alias hit on the obj side
    assert subj[6] is None
    assert obj[5] == "Q7259" and obj[6] == "Q90"


def test_link_actor_vectorized_matches_row_path(kb_path):
    """The index_in fast path must agree with the per-row semantics on
    every label class (hit / prefix-miss / concept / empty / null)."""
    actor = LinkActor(load_alias_map(kb_path))
    labels = ["Merkel", "merkel", "PARIS", "smith", "Smith",
              "", None, "Ada-Lovelace", "a b c"]
    batch = pa.table({"subj": pa.array(labels, type=pa.string()),
                      "obj": pa.array(labels, type=pa.string())})
    out = actor(batch)
    got = out.column("subj_id").to_pylist()
    exp = [actor._link_one(x) for x in labels]
    assert got == exp
    assert out.column("obj_id").to_pylist() == exp


def test_kg_triples_alias_override(ray_session, tmp_path, kb_path):
    """kg_triples(alias_table_path=…) swaps the KB without touching the
    fixture directory."""
    from ie_ray.pipelines.kg import kg_triples
    from ie_ray.sources.pages import write_fixture_tables
    d = str(tmp_path / "fx")
    write_fixture_tables(d, n_pages=20)
    ds = kg_triples(d, alias_table_path=kb_path)
    ids = set()
    for r in ds.take_all():
        if r["subj_id"]:
            ids.add(r["subj_id"])
    # fixture entities are absent from the external KB → all proper
    # mentions become m:… surface ids, concepts stay c:…; crucially the
    # pipeline accepts and uses the external path without error
    assert ids
    assert not any(i.startswith("E") for i in ids)


def test_kg_triples_state_belongs_to_one_run(ray_session, tmp_path,
                                             kb_path):
    """Each worker's parse/compose/link state is keyed by the run's
    broadcast refs: runs with alias table A, then B, then A again in one
    session give B's ids from B's KB alone, and the second A run equals
    the first row for row."""
    import json
    import os
    from ie_ray.pipelines.kg import kg_triples
    from ie_ray.sources.pages import write_fixture_tables
    d = str(tmp_path / "fx")
    write_fixture_tables(d, n_pages=20)
    kb_a = os.path.join(d, "alias_table.parquet")

    def run(alias_path):
        return sorted(json.dumps(r, sort_keys=True) for r in
                      kg_triples(d, alias_table_path=alias_path).take_all())

    first, b, again = run(kb_a), run(kb_path), run(kb_a)
    assert again == first
    link_b = LinkActor(load_alias_map(kb_path))
    rows = [json.loads(r) for r in b]
    assert any(r["subj_id"] for r in rows)
    for r in rows:
        assert r["subj_id"] == link_b._link_one(r["subj"]), r
        assert r["obj_id"] == link_b._link_one(r["obj"]), r
    assert any(json.loads(r)["subj_id"].startswith("E") for r in first
               if json.loads(r)["subj_id"])


def test_external_link_actor_fetch_and_cache():
    """ExternalLinkActor: fixture-backed candidate fetcher, per-unique
    fetch accounting, prefix-score acceptance, pipeline parity when the
    mention is an exact alias hit."""
    import pyarrow as pa
    from ie_ray.stages.link import ExternalLinkActor

    alias = {"paris": ("e:paris", 0.9, "Paris")}
    calls = []

    def fetch(mention):
        calls.append(mention)
        if mention == "angela merkel":
            return [("e:merkel", 0.8, "Angela Merkel")]
        if mention == "obscure person":
            return [("e:wrong", 0.9, "Completely Different Title")]
        return []

    actor = ExternalLinkActor(alias, fetch_candidates=fetch)
    batch = pa.table({
        "subj": pa.array(["Paris", "Angela Merkel", "Angela Merkel",
                          "Obscure Person", "Nobody Known"]),
        "obj": pa.array(["cat", "Paris", "Angela Merkel", "cat", None]),
    })
    out = actor(batch)
    subj = out.column("subj_id").to_pylist()
    # exact alias hit never touches the fetcher
    assert subj[0] == "e:paris"
    # fetched candidate accepted via prefix score
    assert subj[1] == "e:merkel" and subj[2] == "e:merkel"
    # low-prefix-score candidate rejected → deterministic surface id
    assert subj[3].startswith("m:")
    # empty candidate list → surface id fallback
    assert subj[4].startswith("m:")
    # per-DISTINCT-mention fetching: merkel fetched once despite 3 rows
    assert calls.count("angela merkel") == 1
    assert actor.fetch_calls == len(set(calls))
    assert actor.cache_hits >= 1

    # second batch: cache absorbs repeats, no new fetches
    n = actor.fetch_calls
    actor(pa.table({"subj": pa.array(["Angela Merkel"]),
                    "obj": pa.array(["Paris"])}))
    assert actor.fetch_calls == n


def test_external_link_actor_disabled_is_plain_linkactor():
    import pyarrow as pa
    from ie_ray.stages.link import ExternalLinkActor, LinkActor

    alias = {"paris": ("e:paris", 0.9, "Paris")}
    a = ExternalLinkActor(alias)          # no fetcher configured
    b = LinkActor(alias)
    batch = pa.table({"subj": pa.array(["Paris", "Unknown Guy", "dog"]),
                      "obj": pa.array(["dog", "Paris", None])})
    assert a(batch).to_pydict() == b(batch).to_pydict()


def test_external_link_actor_fetcher_errors_degrade():
    import pyarrow as pa
    from ie_ray.stages.link import ExternalLinkActor

    def bad_fetch(m):
        raise RuntimeError("network down")

    a = ExternalLinkActor({}, fetch_candidates=bad_fetch)
    out = a(pa.table({"subj": pa.array(["Angela Merkel"]),
                      "obj": pa.array([None], type=pa.string())}))
    assert out.column("subj_id").to_pylist()[0].startswith("m:")
