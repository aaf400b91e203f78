"""Train the statistical supertagger (ie_ray/ccg/supertagger.py).

Two public derivation sources:

1. **Gold**: EasySRL-produced CCGBANK derivations shipped with the
   reference as fixtures (``data/brexit-ccgbank.dat`` and the
   derivation string literals inside ``ie/test/compose_test.py`` /
   ``exec_test.py`` / ``gold_constituent_test.py`` /
   ``ccg/test/ccg_test.py``).  Leaf nodes carry the supertags the real
   learned model assigned — the distribution we want to imitate.
   Counted at weight ``GOLD_WEIGHT``.

2. **Silver**: self-parses — book prose sentences the repo's own CKY
   parser already handles; reinforces in-domain (word, cat) statistics.
   The held-out evaluation slice (every 6th cliffsnotes sentence — the
   pool ``tests/test_cky_parser.py::test_held_out_prose_coverage``
   measures) is EXCLUDED from training.

The silver pass runs as a Ray Data pipeline: sentences → CKY parse in
an actor pool (parser built once per actor) → vectorized leaf
extraction → (token, cat, pos) rows counted through
``relational.bucketed_aggregate`` (rows-sized key domain, so the plain
sort-based groupby is off the table per the repo's scale contract).

Output: ``ie_ray/ccg/data/supertag_counts.json`` (committed — training
is deterministic given the corpus, rerun this script to refresh).

Usage: python scripts/train_supertagger.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402

from ie_ray.ccg.supertagger import (_LEAF_RE, DEFAULT_MODEL_PATH,  # noqa: E402
                                    SupertagModel)

GOLD_FILES = [
    "/root/reference/data/brexit-ccgbank.dat",
    "/root/reference/src/python/marbles/ie/test/compose_test.py",
    "/root/reference/src/python/marbles/ie/test/exec_test.py",
    "/root/reference/src/python/marbles/ie/test/gold_constituent_test.py",
    "/root/reference/src/python/marbles/ie/ccg/test/ccg_test.py",
]

BOOKS = [
    "/root/reference/data/books/Speak-cliffsnotes-summary.txt",
    "/root/reference/data/books/Speak/analysis.txt",
    "/root/reference/data/books/brexit.txt",
    "/root/reference/data/books/Speak-Laurie_Halse_Anderson_djvu.txt",
]

GOLD_WEIGHT = 3


def gold_counts():
    """Leaf counts straight off the fixture TEXT — the ``<L cat pos pos
    word cat>`` pattern is position-independent, so no need to parse the
    Python files the strings are embedded in."""
    wc, pc = {}, {}
    for path in GOLD_FILES:
        if not os.path.exists(path):
            continue
        text = open(path, errors="ignore").read()
        for cat, pos, word in _LEAF_RE.findall(text):
            if "\\" in word or len(cat) > 60:
                continue
            w = word.lower().replace("_", " ")
            wc.setdefault(w, {})
            wc[w][cat] = wc[w].get(cat, 0) + GOLD_WEIGHT
            pc.setdefault(pos, {})
            pc[pos][cat] = pc[pos].get(cat, 0) + GOLD_WEIGHT
    return wc, pc


def training_sentences():
    from ie_ray.nlp.text import split_sentences
    held_out = set()
    cliffs = BOOKS[0]
    sents_all = []
    if os.path.exists(cliffs):
        s = []
        for para in open(cliffs).read().split("\n"):
            para = para.strip()
            if para:
                s.extend(split_sentences(para))
        held_out = set(list(
            x for x in s if 3 <= len(x.split()) <= 40)[::6])
    for p in BOOKS:
        if not os.path.exists(p):
            continue
        for para in open(p, errors="ignore").read().split("\n"):
            sents_all.extend(split_sentences(para.strip()))
    return [x for x in sents_all
            if 4 <= len(x.split()) <= 45 and x not in held_out]


class ParseLeaves:
    """Actor-pool stage: sentence → (token, cat, pos) leaf rows of the
    best derivation (empty for quarantined sentences)."""

    def __init__(self):
        from ie_ray.ccg.parser import CkyParser
        self.parser = CkyParser()

    def __call__(self, t: pa.Table) -> pa.Table:
        words, cats, poss = [], [], []
        for s in t.column("sentence").to_pylist():
            drv = self.parser.parse(s)
            if not drv:
                continue
            for cat, pos, word in _LEAF_RE.findall(drv):
                words.append(word.lower().replace("_", " "))
                cats.append(cat)
                poss.append(pos)
        return pa.table({
            "word": pa.array(words, type=pa.string()),
            "cat": pa.array(cats, type=pa.string()),
            "pos": pa.array(poss, type=pa.string()),
            "n": pa.array([1] * len(words), type=pa.int64())})


def silver_counts():
    import ray
    import ray.data

    from ie_ray.stages.relational import bucketed_aggregate
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False)
    sents = training_sentences()
    print("silver training sentences:", len(sents))
    ds = ray.data.from_items([{"sentence": s} for s in sents])
    leaves = ds.map_batches(ParseLeaves, concurrency=8, batch_size=64,
                            batch_format="pyarrow")
    wc, pc = {}, {}
    # (word, cat) and (pos, cat) domains are vocab-sized — bucketed path
    for r in bucketed_aggregate(leaves, ["word", "cat"],
                                [("n", "sum")]).iter_rows():
        wc.setdefault(r["word"], {})[r["cat"]] = int(r["n_sum"])
    for r in bucketed_aggregate(leaves, ["pos", "cat"],
                                [("n", "sum")]).iter_rows():
        pc.setdefault(r["pos"], {})[r["cat"]] = int(r["n_sum"])
    return wc, pc


def merge(a, b):
    out = {k: dict(v) for k, v in a.items()}
    for k, cats in b.items():
        d = out.setdefault(k, {})
        for c, n in cats.items():
            d[c] = d.get(c, 0) + n
    return out


def main():
    gw, gp = gold_counts()
    print("gold: %d words, %d pos" % (len(gw), len(gp)))
    sw, sp = silver_counts()
    print("silver: %d words, %d pos" % (len(sw), len(sp)))
    model = SupertagModel(merge(gw, sw), merge(gp, sp), min_count=3)
    model.save(DEFAULT_MODEL_PATH)
    print("saved", DEFAULT_MODEL_PATH)
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
