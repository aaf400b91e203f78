"""Training-data operator tests: dedup family, similarity, text stats."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data
    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumps over the lazy dog again and again",  # dup
        "the quick brown fox jumps over the lazy dog again and twice",  # near
        "a completely different document about ray data pipelines",
        "another unrelated text concerning arrow record batches",
        "",
    ]
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))


def test_exact_dedup_docs(docs_ds):
    from ie_ray.stages.dedup import exact_dedup_docs
    rows = exact_dedup_docs(docs_ds).take_all()
    # 6 docs, one exact duplicate pair → 5 distinct hashes, min id kept
    assert len(rows) == 5
    kept = {r["doc_id"] for r in rows}
    assert 0 in kept and 1 not in kept


def test_minhash_near_dup(docs_ds):
    from ie_ray.stages.dedup import minhash_lsh_pairs
    pairs = {(r["doc_a"], r["doc_b"])
             for r in minhash_lsh_pairs(docs_ds, jaccard_threshold=0.5).take_all()}
    assert (0, 1) in pairs          # exact dup
    assert (0, 2) in pairs or (1, 2) in pairs  # near dup
    assert (3, 4) not in pairs


def test_simhash_pairs(docs_ds):
    from ie_ray.stages.dedup import simhash_pairs
    pairs = {(r["doc_a"], r["doc_b"]): r["hamming"]
             for r in simhash_pairs(docs_ds, max_hamming=6).take_all()}
    assert pairs[(0, 1)] == 0


def test_ngram_jaccard(docs_ds):
    from ie_ray.stages.dedup import ngram_jaccard_pairs
    pairs = {(r["doc_a"], r["doc_b"]): r["jaccard"]
             for r in ngram_jaccard_pairs(docs_ds, threshold=0.3).take_all()}
    assert pairs[(0, 1)] == 1.0


def test_simhash_vectorized_matches_reference():
    from ie_ray.stages.dedup import SimHasher, simhash64
    sh = SimHasher()
    texts = ["The quick brown fox jumps over the lazy dog",
             "", "a", "hello hello hello world",
             "naïve café — déjà vu!  123 abc_def",
             "Prime Minister Theresa May said talks would resume."]
    for t in texts:
        assert sh.simhash(t) == simhash64(t), t


def test_minhash_recall_precision_vs_exact(ray_session):
    """minhash_lsh_pairs (est ≥ 0.7) against DuckDB exact 5-gram jaccard:
    precision/recall gates on a corpus with planted near-dups — the
    documented-recall-gate form of the oracle for an estimator op."""
    import duckdb
    import ray.data
    rng = np.random.RandomState(11)
    # 200 base words: one flipped word gives pairwise 5-gram jaccard
    # ≈0.90 between any two near-dups — >5σ above the 0.7 threshold for a
    # 64-perm estimator (σ≈0.04), so a miss means a broken kernel, not
    # estimator variance at the boundary (which this test does not gate).
    base = ["w%d" % rng.randint(0, 400) for _ in range(200)]
    texts = []
    for i in range(40):
        words = list(base)
        if i % 4 == 0:        # near-dup of doc 0: flip one word
            k = rng.randint(0, 200)
            words[k] = "x%d" % rng.randint(0, 400)
        else:                 # unrelated
            words = ["u%d_%d" % (i, j) for j in range(80)]
        texts.append(" ".join(words))
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(40), type=pa.int64()),
        "text": pa.array(texts, type=pa.string())}))
    from ie_ray.stages.dedup import minhash_lsh_pairs
    got = {(r["doc_a"], r["doc_b"])
           for r in minhash_lsh_pairs(ds, jaccard_threshold=0.7).take_all()}
    con = duckdb.connect()
    con.register("docs", pa.table({"doc_id": pa.array(range(40)),
                                   "text": pa.array(texts)}))
    exact = set(con.execute("""
        WITH w AS (SELECT doc_id, string_split(text, ' ') AS words FROM docs),
        g AS (SELECT doc_id, list_distinct(list_transform(range(1, len(words)-3),
          i -> array_to_string(words[i:i+4], ' '))) AS grams FROM w)
        SELECT a.doc_id, b.doc_id FROM g a JOIN g b ON a.doc_id < b.doc_id
        WHERE len(list_intersect(a.grams, b.grams))::DOUBLE /
              len(list_distinct(list_concat(a.grams, b.grams))) >= 0.7
        """).fetchall())
    assert exact, "fixture must contain true near-dup pairs"
    tp = len(got & exact)
    assert tp / len(exact) >= 0.9, (got, exact)     # recall gate
    assert tp / max(len(got), 1) >= 0.9, (got, exact)  # precision gate


def test_embedding_dup_multiprobe_sign_flip(ray_session):
    """A cosine-0.99 pair whose first-dim sign flips (near-zero coordinate)
    must be found via the hamming-1 multiprobe."""
    import ray.data
    from ie_ray.stages.dedup import embedding_dup_pairs
    rng = np.random.RandomState(4)
    m = rng.randn(30, 16)
    m[5] = np.abs(m[5]) + 1.0
    m[5][0] = 0.001              # near-zero leading coordinate
    m[9] = m[5].copy()
    m[9][0] = -0.001             # sign flip on dim 0 → different primary
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(30), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in m],
                              type=pa.list_(pa.float32()))}))
    pairs = {(r["vec_a"], r["vec_b"])
             for r in embedding_dup_pairs(ds, threshold=0.95).take_all()}
    assert (5, 9) in pairs
    assert all(a < b for a, b in pairs)
    assert len(pairs) == len(set(pairs))


def test_dedup_keep_numeric_min(ray_session):
    """Cluster {9, 10, 11} must keep doc 9 (numeric min, not lexicographic
    — '10' < '9' as strings)."""
    import ray.data
    from ie_ray.stages.dedup import ngram_jaccard_pairs
    from ie_ray.stages.link import connected_components
    words = ["tok%d" % i for i in range(60)]
    dup = " ".join(words)
    texts = {i: "unique doc %d with filler %s" % (i, " ".join(
        "f%d_%d" % (i, j) for j in range(30))) for i in range(12)}
    texts[9] = dup
    texts[10] = dup + " tail9"
    texts[11] = dup + " tail10 extra"
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), type=pa.int64()),
        "text": pa.array([texts[i] for i in sorted(texts)],
                         type=pa.string())}))
    pairs = ngram_jaccard_pairs(ds, threshold=0.5)

    def as_edges(b):
        return pa.table({
            "a": pa.array(["%020d" % x for x in b.column("doc_a").to_pylist()],
                          type=pa.string()),
            "b": pa.array(["%020d" % x for x in b.column("doc_b").to_pylist()],
                          type=pa.string())})

    labels = {int(r["node"]): int(r["component"])
              for r in connected_components(
                  pairs.map_batches(as_edges,
                                    batch_format="pyarrow")).take_all()}
    assert labels[10] == 9 and labels[11] == 9 and labels[9] == 9


def test_near_dedup_finishes_at_two_cpus():
    """``ngram_jaccard_pairs`` attaches both texts through
    ``adaptive_join``: a broadcast while the corpus is small, so a 2-CPU
    session runs no chained hash joins (with them the query never
    finished).  The keep-list and the cluster sizes must both come
    back."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = ("import ray\n"
              "ray.init(address='local', num_cpus=2, "
              "include_dashboard=False)\n"
              "import __ray_entry__ as e\n"
              "qs = e.queries()\n"
              "print(qs['minhash_dedup_keep']('/root/testdata/sf0.01')"
              ".count(),\n"
              "      qs['minhash_cluster_sizes']('/root/testdata/sf0.01')"
              ".count())\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, cwd=repo,
                          timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split()[-2:] == ["476", "2"]


def test_knn_and_sim_pairs(ray_session):
    import ray.data
    from ie_ray.stages.similarity import knn_brute, sim_pairs_exact
    rng = np.random.RandomState(3)
    m = rng.randn(50, 16)
    m[7] = m[3] + 0.01 * rng.randn(16)   # planted neighbor
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(50), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in m],
                              type=pa.list_(pa.float32())),
    }))
    res = knn_brute(ds, m[[3]], [3], k=2).take_all()
    neighbors = [r["neighbor"] for r in res]
    assert 3 in neighbors and 7 in neighbors

    pairs = {(r["vec_a"], r["vec_b"])
             for r in sim_pairs_exact(ds, m, list(range(50)),
                                      threshold=0.99).take_all()}
    assert (3, 7) in pairs


def test_knn_lsh_recall(ray_session):
    import ray.data
    from ie_ray.stages.similarity import knn_brute, knn_lsh
    rng = np.random.RandomState(5)
    m = rng.randn(400, 32)
    # plant 3 true near-neighbours per query (LSH finds NEAR points;
    # on purely random data "top-5" is arbitrary and unfindable by design)
    qids = list(range(8))
    planted = {}
    slot = 50
    for q in qids:
        planted[q] = []
        for _ in range(3):
            m[slot] = m[q] + 0.05 * rng.randn(32)
            planted[q].append(slot)
            slot += 1
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(400), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in m],
                              type=pa.list_(pa.float32())),
    }))
    approx = {}
    for r in knn_lsh(ds, m[:8], qids, k=4, nbits=6).take_all():
        approx.setdefault(r["query_id"], set()).add(r["neighbor"])
    hits = sum(len(set(planted[q]) & approx.get(q, set())) for q in qids)
    total = sum(len(planted[q]) for q in qids)
    assert hits / total >= 0.9, (hits, total)
    # sanity: brute force finds the same planted neighbours
    exact = {}
    for r in knn_brute(ds, m[:8], qids, k=4).take_all():
        exact.setdefault(r["query_id"], set()).add(r["neighbor"])
    ehits = sum(len(set(planted[q]) & exact.get(q, set())) for q in qids)
    assert ehits == total


def test_knn_ivf_recall(ray_session):
    """IVF-flat ANN finds planted near-neighbours at recall ≥ 0.9 (the
    codebook trains on a driver-side sample only)."""
    import ray.data
    from ie_ray.stages.similarity import knn_ivf
    rng = np.random.RandomState(9)
    m = rng.randn(400, 32)
    qids = list(range(8))
    planted = {}
    slot = 50
    for q in qids:
        planted[q] = []
        for _ in range(3):
            m[slot] = m[q] + 0.05 * rng.randn(32)
            planted[q].append(slot)
            slot += 1
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(400), type=pa.int64()),
        "embedding": pa.array([r.tolist() for r in m],
                              type=pa.list_(pa.float32()))}))
    approx = {}
    for r in knn_ivf(ds, m[:8], qids, k=4, n_centroids=8,
                     nprobe=3).take_all():
        approx.setdefault(r["query_id"], set()).add(r["neighbor"])
    hits = sum(len(set(planted[q]) & approx.get(q, set())) for q in qids)
    total = sum(len(planted[q]) for q in qids)
    assert hits / total >= 0.9, (hits, total)


def test_textstats_and_langid(ray_session):
    import ray.data
    from ie_ray.stages.textstats import langid_batch, quality_batch, token_count_batch
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["The cat is on the mat.",
                          "Der Hund ist nicht mit der Katze.",
                          "Le chat est dans la maison pour le soir."],
                         type=pa.string()),
    }))
    tok = {r["doc_id"]: r["n_tokens"]
           for r in ds.map_batches(token_count_batch,
                                   batch_format="pyarrow").take_all()}
    assert tok[0] == 6
    langs = {r["doc_id"]: r["lang_pred"]
             for r in ds.map_batches(langid_batch,
                                     batch_format="pyarrow").take_all()}
    assert langs == {0: "en", 1: "de", 2: "fr"}
    q = {r["doc_id"]: r for r in ds.map_batches(
        quality_batch, batch_format="pyarrow").take_all()}
    assert q[0]["n_punct"] == 1 and q[0]["n_chars"] == 22


def test_media_plumbing(ray_session):
    import ray.data
    from ie_ray.stages.multimodal import MediaDecodeActor, synthesize_media
    ds = ray.data.from_arrow(synthesize_media(12))
    rows = ds.map_batches(MediaDecodeActor, batch_size=4,
                          concurrency=(1, 2), num_cpus=1,
                          batch_format="pyarrow").take_all()
    assert len(rows) == 12
    assert all(len(r["features"]) == 16 for r in rows)
    # determinism: same payload → same features
    again = ds.map_batches(MediaDecodeActor, batch_size=4,
                           concurrency=(1, 2), num_cpus=1,
                           batch_format="pyarrow").take_all()
    f0 = {r["media_id"]: tuple(r["features"]) for r in rows}
    f1 = {r["media_id"]: tuple(r["features"]) for r in again}
    assert f0 == f1


def test_tfidf_top3_vs_duckdb(ray_session):
    """doc_tfidf_top3 (distributed two-exchange TF-IDF) matches the SQL
    oracle row-for-row on sf0.001 — exact ids/ranks, fp-tolerant scores."""
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod

    res = (entrymod.queries()["doc_tfidf_top3"]("/root/testdata/sf0.001")
           .to_pandas().sort_values(["doc_id", "rk"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents",
                 pq.read_table("/root/testdata/sf0.001/documents.parquet"))
    orc = (con.execute(entrymod.oracle_sql()["doc_tfidf_top3"]).df()
           .sort_values(["doc_id", "rk"]).reset_index(drop=True))
    assert len(res) == len(orc) and len(res) > 0
    assert (res.doc_id == orc.doc_id).all()
    assert (res.word == orc.word).all()
    assert (res.rk == orc.rk).all()
    assert np.allclose(res.score, orc.score)


def test_dup_ngram_frac_vs_duckdb(ray_session):
    """Cross-doc duplicated-3-gram fraction matches the SQL oracle and is
    discriminating (neither all-0 nor all-1 on the fixture corpus)."""
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod

    res = (entrymod.queries()["doc_dup_ngram_frac"]("/root/testdata/sf0.001")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents",
                 pq.read_table("/root/testdata/sf0.001/documents.parquet"))
    orc = (con.execute(entrymod.oracle_sql()["doc_dup_ngram_frac"]).df()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(res) == len(orc) > 0
    assert (res.doc_id == orc.doc_id).all()
    assert np.allclose(res.dup_gram_frac, orc.dup_gram_frac)
    assert res.dup_gram_frac.min() < 1.0 or res.dup_gram_frac.max() > 0.0
    assert res.dup_gram_frac.nunique() > 1


def test_weighted_mix_vs_duckdb(ray_session):
    """Per-source weighted mixing matches the SQL oracle exactly, and the
    realized keep rates actually differ across the four weight tiers."""
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod

    res = (entrymod.queries()["docs_weighted_mix"]("/root/testdata/sf0.001")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents",
                 pq.read_table("/root/testdata/sf0.001/documents.parquet"))
    orc = (con.execute(entrymod.oracle_sql()["docs_weighted_mix"]).df()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(res) == len(orc) > 0
    assert (res.doc_id == orc.doc_id).all()
    assert (res.source == orc.source).all()
    tiers = res.source.str[3:].astype(int) % 4
    assert tiers.nunique() > 1


def test_inverted_index_vs_duckdb(ray_session):
    """Sharded posting lists match the SQL oracle exactly — same shards,
    same sorted comma-joined postings, same per-shard doc counts."""
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod

    res = (entrymod.queries()["inverted_index"]("/root/testdata/sf0.001")
           .to_pandas().sort_values(["word", "shard"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents",
                 pq.read_table("/root/testdata/sf0.001/documents.parquet"))
    orc = (con.execute(entrymod.oracle_sql()["inverted_index"]).df()
           .sort_values(["word", "shard"]).reset_index(drop=True))
    assert len(res) == len(orc) and len(res) > 30
    assert (res.word == orc.word).all()
    assert (res.shard.astype("int64") == orc.shard.astype("int64")).all()
    assert (res.n_docs.astype("int64") == orc.n_docs.astype("int64")).all()
    assert (res.postings == orc.postings).all()
    # every group the exchange produced is bounded by the shard width
    assert res.n_docs.max() <= 128


def test_repetition_metrics_exact_vs_duckdb():
    """Gopher repetition signals are value-exact against the SQL oracle,
    including a planted pathological doc (one word repeated)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ie_ray.stages.textstats import REPETITION_SQL, repetition_batch

    base = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    planted = pa.table({
        "doc_id": pa.array([900001, 900002], type=pa.int64()),
        "text": pa.array(["spam " * 49 + "spam", "one two three four"],
                         type=pa.string()),
        "lang": pa.array(["en", "en"]),
        "source": pa.array(["t", "t"]),
        "n_chars": pa.array([250, 18], type=pa.int64()),
    })
    t = pa.concat_tables([base, planted.cast(base.schema)])
    mine = (repetition_batch(t).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", t)
    orc = (con.execute(REPETITION_SQL).df()
           .sort_values("doc_id").reset_index(drop=True))
    assert mine[sorted(mine.columns)].equals(orc[sorted(orc.columns)])
    spam = mine[mine.doc_id == 900001].iloc[0]
    assert spam.dup_word_frac == 0.98 and spam.top_word_frac == 1.0
    assert spam.dup_2gram_frac == 48 / 49
    clean = mine[mine.doc_id == 900002].iloc[0]
    assert clean.dup_word_frac == 0.0 and clean.dup_2gram_frac == 0.0
