"""Approximate-nearest-neighbor search over an embedding column.

* ``knn_brute`` — baseline: queries broadcast once (``ray.put`` of a dense
  numpy matrix); each batch does one vectorized matmul against it and emits
  local top-k; a single small ``groupby(query_id)`` merges per-batch
  candidates into global top-k.  No full materialization of the corpus.
* ``knn_lsh`` — scale path: sign-LSH buckets (shared with
  dedup.embedding_dup_pairs) probe only matching buckets.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1
    return m / norms


class BruteKnnActor:
    """Per-batch top-k against a broadcast query matrix (loaded once)."""

    def __init__(self, queries, query_ids, k: int = 5):
        import ray
        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        self.q = _normalize(np.asarray(queries, dtype=np.float32))
        self.query_ids = list(query_ids)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_pylist()
        m = _normalize(np.asarray(batch.column("embedding").to_pylist(),
                                  dtype=np.float32))
        sims = self.q @ m.T                      # (nq, nbatch)
        k = min(self.k, sims.shape[1])
        out_q, out_n, out_s = [], [], []
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        for qi, row in enumerate(idx):
            for j in row:
                out_q.append(self.query_ids[qi])
                out_n.append(ids[j])
                out_s.append(round(float(sims[qi, j]), 6))
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor": pa.array(out_n, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        })


def knn_brute(ds, queries: np.ndarray, query_ids, k: int = 5,
              concurrency=(1, 4)):
    """Global top-k neighbors for each query vector.

    Per-batch local top-k (map) → groupby(query_id) global top-k (one small
    shuffle whose size is ``nq × k × nblocks`` candidates, not the corpus).
    """
    import ray
    qref = ray.put(np.asarray(queries, dtype=np.float32))
    cand = ds.map_batches(
        BruteKnnActor,
        fn_constructor_kwargs={"queries": qref, "query_ids": list(query_ids),
                               "k": k},
        batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency, num_cpus=1)

    def topk(group: pa.Table) -> pa.Table:
        t = group.sort_by([("cosine", "descending"), ("neighbor", "ascending")])
        return t.slice(0, k)

    return cand.groupby("query_id").map_groups(topk, batch_format="pyarrow")


def knn_top1(ds, queries, query_ids, concurrency=(1, 4)):
    """Deterministic nearest neighbor (ties broken by smallest vec_id)."""
    res = knn_brute(ds, queries, query_ids, k=1, concurrency=concurrency)
    return res


class LshKnnActor:
    """Scale-path ANN: random-hyperplane LSH.

    ``__init__`` draws the hyperplanes once per actor and pre-hashes the
    broadcast queries; ``__call__`` hashes each corpus batch and emits
    similarities only for corpus rows whose bucket is within hamming
    distance 1 of a query's bucket (multiprobe).  Per-batch candidate work
    is O(batch × matching queries) instead of O(batch × all queries)."""

    def __init__(self, queries, query_ids, k: int, nbits: int = 8,
                 seed: int = 13):
        import ray
        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        self.q = _normalize(np.asarray(queries, dtype=np.float64))
        self.query_ids = list(query_ids)
        self.k = k
        rng = np.random.RandomState(seed)
        self.planes = rng.randn(self.q.shape[1], nbits)
        self.nbits = nbits
        qsig = (self.q @ self.planes >= 0).astype(np.uint32)
        self.qbuckets = (qsig << np.arange(nbits, dtype=np.uint32)).sum(axis=1)
        # bucket → query indexes, expanded to hamming-1 probes
        self.probe: dict = {}
        for qi, b in enumerate(self.qbuckets):
            for alt in [int(b)] + [int(b) ^ (1 << j) for j in range(nbits)]:
                self.probe.setdefault(alt, []).append(qi)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = _normalize(np.asarray(batch.column("embedding").to_pylist(),
                                  dtype=np.float64))
        sig = (m @ self.planes >= 0).astype(np.uint32)
        buckets = (sig << np.arange(self.nbits, dtype=np.uint32)).sum(axis=1)
        out_q, out_n, out_s = [], [], []
        by_bucket: dict = {}
        for i, b in enumerate(buckets):
            by_bucket.setdefault(int(b), []).append(i)
        for b, rows in by_bucket.items():
            qis = self.probe.get(b)
            if not qis:
                continue
            sub = m[rows]
            sims = self.q[qis] @ sub.T
            for a, qi in enumerate(qis):
                for c, ri in enumerate(rows):
                    out_q.append(self.query_ids[qi])
                    out_n.append(int(ids[ri]))
                    out_s.append(round(float(sims[a, c]), 6))
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor": pa.array(out_n, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        })


def knn_lsh(ds, queries, query_ids, k: int = 5, nbits: int = 8,
            concurrency=(1, 4)):
    """Approximate top-k via hyperplane-LSH candidate generation + the same
    small global merge as knn_brute.  Recall < 1 by design; raise multiprobe
    radius or lower nbits to trade compute for recall."""
    import ray
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    cand = ds.map_batches(
        LshKnnActor,
        fn_constructor_kwargs={"queries": qref, "query_ids": list(query_ids),
                               "k": k, "nbits": nbits},
        batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency, num_cpus=1)

    def topk(group: pa.Table) -> pa.Table:
        t = group.sort_by([("cosine", "descending"), ("neighbor", "ascending")])
        return t.slice(0, k)

    return cand.groupby("query_id").map_groups(topk, batch_format="pyarrow")


def train_ivf_centroids(ds, n_centroids: int = 16, sample: int = 2048,
                        iters: int = 8, seed: int = 23) -> np.ndarray:
    """Coarse IVF codebook: k-means over a SMALL reservoir sample
    (``ds.limit(sample)`` — the sample is the only thing that reaches the
    driver; at 100 TB the codebook trains on a fraction-of-a-percent
    sample exactly like FAISS IVF training)."""
    rows = ds.select_columns(["embedding"]).limit(sample).take_all()
    m = _normalize(np.asarray([r["embedding"] for r in rows],
                              dtype=np.float64))
    rng = np.random.RandomState(seed)
    cent = m[rng.choice(len(m), size=min(n_centroids, len(m)),
                        replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            sel = m[assign == c]
            if len(sel):
                cent[c] = sel.mean(axis=0)
        cent = _normalize(cent)
    return cent


class IvfKnnActor:
    """IVF-style ANN: corpus rows are routed to their nearest coarse
    centroid; each query only scores rows whose centroid is in the query's
    ``nprobe`` nearest cells.  The codebook + queries are broadcast once per
    actor; per-batch work is a centroid matmul plus one small matmul per
    probed cell (the standard IVF-flat pattern, scale path alongside
    :class:`LshKnnActor`)."""

    def __init__(self, queries, query_ids, centroids, k: int,
                 nprobe: int = 4):
        import ray
        if isinstance(queries, ray.ObjectRef):
            queries = ray.get(queries)
        if isinstance(centroids, ray.ObjectRef):
            centroids = ray.get(centroids)
        self.q = _normalize(np.asarray(queries, dtype=np.float64))
        self.query_ids = list(query_ids)
        self.cent = np.asarray(centroids, dtype=np.float64)
        self.k = k
        nprobe = min(nprobe, len(self.cent))
        qc = self.q @ self.cent.T                       # (nq, ncent)
        probes = np.argpartition(-qc, nprobe - 1, axis=1)[:, :nprobe]
        self.cell_queries: dict = {}
        for qi, cells in enumerate(probes):
            for c in cells:
                self.cell_queries.setdefault(int(c), []).append(qi)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = _normalize(np.asarray(batch.column("embedding").to_pylist(),
                                  dtype=np.float64))
        assign = (m @ self.cent.T).argmax(axis=1)
        out_q, out_n, out_s = [], [], []
        for cell in np.unique(assign):
            qis = self.cell_queries.get(int(cell))
            if not qis:
                continue
            rows = np.nonzero(assign == cell)[0]
            sims = self.q[qis] @ m[rows].T
            for a, qi in enumerate(qis):
                for c, ri in enumerate(rows):
                    out_q.append(self.query_ids[qi])
                    out_n.append(int(ids[ri]))
                    out_s.append(round(float(sims[a, c]), 6))
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor": pa.array(out_n, type=pa.int64()),
            "cosine": pa.array(out_s, type=pa.float64()),
        })


def knn_ivf(ds, queries, query_ids, k: int = 5, n_centroids: int = 16,
            nprobe: int = 4, concurrency=(1, 4)):
    """IVF-flat approximate top-k: train a coarse codebook on a sample,
    broadcast it, probe ``nprobe`` cells per query, merge local top-k
    through the same small groupby as knn_brute.  Recall rises with
    nprobe/n_centroids ratio (nprobe == n_centroids degenerates to brute)."""
    import ray
    cent = train_ivf_centroids(ds, n_centroids=n_centroids)
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    cref = ray.put(cent)
    cand = ds.map_batches(
        IvfKnnActor,
        fn_constructor_kwargs={"queries": qref, "query_ids": list(query_ids),
                               "centroids": cref, "k": k, "nprobe": nprobe},
        batch_format="pyarrow", batch_size=4096,
        concurrency=concurrency, num_cpus=1)

    def topk(group: pa.Table) -> pa.Table:
        t = group.sort_by([("cosine", "descending"), ("neighbor", "ascending")])
        return t.slice(0, k)

    return cand.groupby("query_id").map_groups(topk, batch_format="pyarrow")


def _sim_pairs_kernel(batch: pa.Table, m: np.ndarray, ids: np.ndarray,
                      threshold: float) -> pa.Table:
    bids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
    bm = _normalize(np.asarray(batch.column("embedding").to_pylist(),
                               dtype=np.float64))
    sims = bm @ m.T
    bi, cj = np.nonzero(sims >= threshold)
    a = bids[bi]
    b = ids[cj]
    keep = a < b                # each unordered pair exactly once, no self
    return pa.table({
        "vec_a": pa.array(a[keep], type=pa.int64()),
        "vec_b": pa.array(b[keep], type=pa.int64()),
    })


def sim_pairs_exact(ds, corpus, corpus_ids, threshold: float = 0.4,
                    concurrency=None):
    """Task-pool form: the corpus matrix rides the object store
    (``ray.put`` once, zero-copy ``ray.get`` per task) and each task
    re-normalizes it — O(corpus·dim), 4096× cheaper than the matmul it
    precedes — so there is NO actor pool to spin up (actor startup was
    10× the compute for small inputs; tasks reuse warm workers)."""
    import ray
    ref = ray.put(np.asarray(corpus, dtype=np.float64))
    ids = np.asarray(list(corpus_ids), dtype=np.int64)

    def pairs(batch: pa.Table) -> pa.Table:
        return _sim_pairs_kernel(batch, _normalize(
            np.asarray(ray.get(ref), dtype=np.float64)), ids, threshold)

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=4096)
