"""Co-mention pair counting over planted triple rows."""

import pyarrow as pa
import pytest

from ie_ray.stages.graph import co_mention_pairs


@pytest.mark.usefixtures("ray_session")
def test_pairs_and_ordering():
    import ray.data
    t = pa.table({
        "sent_hash": pa.array(["s1", "s1", "s2", "s2", "s3"]),
        "subj_id": pa.array(["a", "a", "a", "c", "a"]),
        "obj_id": pa.array(["b", "c", "b", None, None]),
    })
    got = [(r["ent_a"], r["ent_b"], r["n"])
           for r in co_mention_pairs(ray.data.from_arrow(t),
                                     k=10).take_all()]
    # s1 has {a,b,c} → ab, ac, bc; s2 has {a,b,c} → ab, ac, bc; s3 {a}
    assert got[0] == ("a", "b", 2)
    assert set(got) == {("a", "b", 2), ("a", "c", 2), ("b", "c", 2)}


@pytest.mark.usefixtures("ray_session")
def test_counts_do_not_depend_on_block_layout():
    """A sentence that recurs in several blocks counts once per pair,
    as it does when all its rows share one block."""
    import ray.data
    t = pa.table({
        "sent_hash": pa.array(["s1", "s1", "s2", "s1", "s1"]),
        "subj_id": pa.array(["a", "a", "a", "a", "a"]),
        "obj_id": pa.array(["b", "c", "b", "b", "c"]),
    })

    def pairs(ds):
        return sorted((r["ent_a"], r["ent_b"], r["n"])
                      for r in co_mention_pairs(ds, k=10).take_all())

    one_block = pairs(ray.data.from_arrow(t))
    assert one_block == [("a", "b", 2), ("a", "c", 1), ("b", "c", 1)]
    assert pairs(ray.data.from_arrow([t.slice(0, 3), t.slice(3)])) \
        == one_block
