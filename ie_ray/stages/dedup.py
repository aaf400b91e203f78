"""Document deduplication operators for training-data pipelines.

All operate over a documents Dataset ``(doc_id:int64, text:string, ...)``:

* ``exact_dedup_docs``   — md5(text) hash-partition shuffle, keep min doc_id
* ``minhash_lsh_pairs``  — shingle → minhash → band buckets → candidate pairs
* ``simhash_pairs``      — 64-bit simhash, near-dup via hamming ≤ k
* ``ngram_jaccard_pairs``— exact jaccard over n-gram sets for LSH candidates
* ``embedding_dup_pairs``— cosine ≥ τ pairs within sign-LSH blocks
* ``dup_clusters`` / ``cluster_keepers`` — duplicate clusters of any of
  the pair sets above, and the keep-list of one least id per cluster

Scale notes (the 100 TB contract):

* Band/bucket rows carry ONLY ``(bucket, doc_id)`` — never the signature or
  the payload.  Candidate pairs are deduplicated first (16-byte rows), then
  signatures / texts / embeddings are attached via
  ``relational.adaptive_join`` (a broadcast built by each worker from the
  payload's block refs while it is small, a hash exchange beyond), so each
  payload crosses the network O(1) times instead of once per band.
* Pair verification is exact and happens per joined row — vectorized where
  the payload allows.
* Hot buckets (boilerplate shingles) are capped at ``MAX_BUCKET`` docs —
  beyond that a bucket is pure boilerplate and every member pair would be
  emitted by other bands anyway.

Word tokenization is ASCII-folded (``[0-9a-z_]+`` after an A-Z→a-z
translate) so every operator here has an exactly-matching DuckDB oracle
(``regexp_extract_all(translate(...), '[0-9a-z_]+')``) on any corpus, not
just ASCII fixtures.
"""

from __future__ import annotations

import hashlib
import re
from typing import List

import numpy as np
import pyarrow as pa

MAX_BUCKET = 256

# default hash-join fan-out; callers raise this at cluster scale
NUM_JOIN_PARTITIONS = None


def _join_partitions(requested=None) -> int:
    """Hash-join fan-out sized to the cluster: each join spawns one
    aggregator actor per partition, and a plan chaining two joins on a
    small CPU count will DEADLOCK if the aggregators oversubscribe the
    cluster (observed: 2×16 aggregators on 4 CPUs).  Callers on a real
    cluster pass an explicit count sized to data volume."""
    if requested:
        return requested
    try:
        import ray
        cpus = int(ray.cluster_resources().get("CPU", 8)) \
            if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    # conservative default: a hash partition that receives ZERO keys builds
    # a schema-less empty table and arrow's join errors on the key FieldRef
    # (ray join.py finalize) — few partitions keep that probability
    # negligible at gate scale; production callers size this to data volume
    return max(2, min(4, cpus // 8))

_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                             "abcdefghijklmnopqrstuvwxyz")
_ASCII_WORD_RE = re.compile(r"[0-9a-z_]+")


def _words(text: str) -> List[str]:
    """ASCII-folded word list — byte-parity with the SQL oracle's
    regexp_extract_all(translate(text, 'A-Z', 'a-z'), '[0-9a-z_]+')."""
    return _ASCII_WORD_RE.findall(text.translate(_ASCII_LOWER))


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def add_text_hash(batch: pa.Table, col: str = "text") -> pa.Table:
    hashes = [hashlib.md5(t.encode("utf-8")).hexdigest()
              for t in batch.column(col).to_pylist()]
    return batch.append_column("text_hash", pa.array(hashes, type=pa.string()))


def exact_dedup_docs(ds):
    """One row per distinct text: (text_hash, doc_id=min).  Equivalent SQL:
    SELECT md5(text), min(doc_id) FROM documents GROUP BY 1."""
    from ie_ray.stages.relational import bucketed_aggregate
    ds = ds.map_batches(add_text_hash, batch_format="pyarrow")
    ds = ds.select_columns(["text_hash", "doc_id"])
    # text_hash is a rows-sized key domain (≈ one per distinct doc) —
    # reduce through the bucketed path
    return bucketed_aggregate(ds, "text_hash", [("doc_id", "min")]) \
        .map_batches(lambda t: pa.table({
            "text_hash": t.column("text_hash"),
            "doc_id": t.column("doc_id_min").cast(pa.int64())}),
            batch_format="pyarrow")


# ---------------------------------------------------------------------------
# minhash + LSH
# ---------------------------------------------------------------------------

def _stable_hash(s: str) -> int:
    """Process-stable 48-bit hash (python's hash() is salted per process)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:6], "little")


def _shingles(text: str, k: int = 5) -> List[int]:
    words = _words(text)
    if len(words) < k:
        return [_stable_hash(" ".join(words))] if words else []
    return [_stable_hash(" ".join(words[i:i + k]))
            for i in range(len(words) - k + 1)]


class MinHasher:
    """Stateful minhash signer — permutation parameters built once per actor
    (the T1-style pattern: heavy init in __init__, vectorized __call__).

    Signatures are emitted as a 512-byte binary blob (64 little-endian
    int64s) so they survive hash joins (arrow acero rejects list payloads)
    and ship compactly.
    """

    def __init__(self, num_perm: int = 64, seed: int = 7):
        rng = np.random.RandomState(seed)
        # Affine permutations over the Mersenne field p = 2^31-1, with the
        # 48-bit shingle hash first reduced mod p: every product stays
        # below 2^62, so the kernel is EXACT int64 numpy (no wraparound)
        # and bit-for-bit reproducible in plain BIGINT SQL
        # (see minhash_oracle_sql).  Full-range 31-bit multipliers keep
        # the permutations min-wise independent (a narrow multiplier
        # makes every permutation track the same min shingle).
        self.p = (1 << 31) - 1
        self.a = rng.randint(1, self.p, size=num_perm, dtype=np.int64)
        self.b = rng.randint(0, self.p, size=num_perm, dtype=np.int64)
        self.num_perm = num_perm

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(text)
        if not sh:
            return np.full(self.num_perm, self.p, dtype=np.int64)
        arr = np.asarray(sh, dtype=np.int64)[:, None] % self.p
        vals = (arr * self.a[None, :] + self.b[None, :]) % self.p
        return vals.min(axis=0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [self.signature(t).tobytes()
                for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "signature": pa.array(sigs, type=pa.binary()),
        })


_MINHASHERS: dict = {}


def _minhash_batch(batch: pa.Table, num_perm: int = 64,
                   seed: int = 7) -> pa.Table:
    """Task-pool form of MinHasher: the permutation table lives in a
    per-worker-process global, so signing runs as plain tasks on the warm
    worker pool with zero actor-startup latency (the actor form costs
    ~2 s of pool spawn per query at interactive scale)."""
    key = (num_perm, seed)
    h = _MINHASHERS.get(key)
    if h is None:
        h = _MINHASHERS[key] = MinHasher(num_perm, seed)
    return h(batch)


def minhash_signatures(ds, num_perm: int = 64, concurrency=None):
    """(doc_id, signature:binary) Dataset — the reusable phase-1 product."""
    return ds.map_batches(_minhash_batch, fn_kwargs={"num_perm": num_perm},
                          batch_format="pyarrow")


def lsh_candidate_pairs(sigs, num_perm: int = 64, bands: int = 16):
    """Distinct candidate pairs (doc_a < doc_b) from banded LSH buckets.

    Band rows are ``(bucket, doc_id)`` ONLY — the 512-byte signature does
    NOT ride the all-to-all (it would amplify the shuffle ×bands).  Pairs
    from multiple bands collapse through a second tiny groupby.
    """
    rows_per_band = num_perm // bands

    def to_buckets(batch: pa.Table) -> pa.Table:
        ids, keys = [], []
        for did, sig in zip(batch.column("doc_id").to_pylist(),
                            batch.column("signature").to_pylist()):
            for b in range(bands):
                seg = sig[b * rows_per_band * 8:(b + 1) * rows_per_band * 8]
                keys.append("%d:%s" % (b, hashlib.md5(seg).hexdigest()[:16]))
                ids.append(did)
        return pa.table({
            "bucket": pa.array(keys, type=pa.string()),
            "doc_id": pa.array(ids, type=pa.int64()),
        })

    def emit_pairs(group: pa.Table) -> pa.Table:
        ids_u = sorted(set(group.column("doc_id").to_pylist()))[:MAX_BUCKET]
        a_out, b_out = [], []
        for i in range(len(ids_u)):
            for j in range(i + 1, len(ids_u)):
                a_out.append(ids_u[i])
                b_out.append(ids_u[j])
        return pa.table({
            "doc_a": pa.array(a_out, type=pa.int64()),
            "doc_b": pa.array(b_out, type=pa.int64()),
        })

    pairs = (sigs.map_batches(to_buckets, batch_format="pyarrow")
             .groupby("bucket").map_groups(emit_pairs, batch_format="pyarrow"))
    return (pairs.groupby(["doc_a", "doc_b"]).count()
            .select_columns(["doc_a", "doc_b"]))


def _attach(pairs, source, key_col: str, payload_col: str, out_col: str,
            num_partitions: int = NUM_JOIN_PARTITIONS):
    """Join ``payload_col`` of ``source`` (keyed by doc_id) onto
    ``pairs`` as ``out_col`` through ``relational.adaptive_join``: a
    broadcast while the source is small, a hash exchange beyond — the
    payload crosses the network once either way."""
    from .relational import adaptive_join
    side = source.select_columns(["doc_id", payload_col]).map_batches(
        lambda t, _k=key_col, _o=out_col: t.rename_columns([_k, _o]),
        batch_format="pyarrow")
    return adaptive_join(pairs, side, key_col,
                         num_partitions=num_partitions)


def minhash_lsh_pairs(ds, num_perm: int = 64, bands: int = 16,
                      jaccard_threshold: float = 0.7,
                      concurrency=(1, 4),
                      num_partitions: int = NUM_JOIN_PARTITIONS):
    """Near-dup pairs via banded LSH, scored by signature agreement ≥
    threshold.  Returns Dataset (doc_a, doc_b, est_jaccard)."""
    sigs = minhash_signatures(ds, num_perm, concurrency).materialize()
    cands = lsh_candidate_pairs(sigs, num_perm, bands)
    withsigs = _attach(_attach(cands, sigs, "doc_a", "signature", "sig_a",
                               num_partitions),
                       sigs, "doc_b", "signature", "sig_b", num_partitions)

    def score(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"doc_a": pa.array([], type=pa.int64()),
                             "doc_b": pa.array([], type=pa.int64()),
                             "est_jaccard": pa.array([], type=pa.float64())})
        sa = np.frombuffer(b"".join(batch.column("sig_a").to_pylist()),
                           dtype=np.int64).reshape(n, num_perm)
        sb = np.frombuffer(b"".join(batch.column("sig_b").to_pylist()),
                           dtype=np.int64).reshape(n, num_perm)
        est = (sa == sb).mean(axis=1)
        keep = est >= jaccard_threshold
        return pa.table({
            "doc_a": pa.array(np.asarray(batch.column("doc_a"))[keep],
                              type=pa.int64()),
            "doc_b": pa.array(np.asarray(batch.column("doc_b"))[keep],
                              type=pa.int64()),
            "est_jaccard": pa.array(est[keep], type=pa.float64()),
        })

    return withsigs.map_batches(score, batch_format="pyarrow")


def minhash_oracle_sql(num_perm: int = 64, bands: int = 16,
                       jaccard_threshold: float = 0.7, k: int = 5,
                       seed: int = 7) -> str:
    """Generate the EXACT DuckDB SQL for :func:`minhash_lsh_pairs`.

    Reproduces every step bit-for-bit: ASCII word fold, k-word shingles,
    48-bit little-endian md5 shingle hash, the affine-mod-p signature
    (pure BIGINT math — see MinHasher.__init__ for why no wraparound),
    banded buckets with the MAX_BUCKET doc_id-rank cap, and the
    signature-agreement score.  This makes a probabilistic sketch op
    deterministically oracle-checkable: same seed → same signatures →
    same candidate pairs → same est_jaccard, in both engines.
    """
    h = MinHasher(num_perm, seed)
    rows_per_band = num_perm // bands
    p = h.p
    word_expr = ("regexp_extract_all(translate(text, "
                 "'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
                 "'abcdefghijklmnopqrstuvwxyz'), '[0-9a-z_]+')")
    # " ".join(words[i:i+k]) for i in 0..len-k  (SQL lists are 1-based)
    shingle_join = " || ' ' || ".join("words[i+%d]" % j for j in range(k))
    # md5 hex → first 6 bytes little-endian = 48-bit int
    le48 = ("('0x' || " + " || ".join(
        "substr(md5(s), %d, 2)" % (2 * j + 1) for j in (5, 4, 3, 2, 1, 0))
        + ")::BIGINT")
    sig_elems = ", ".join(
        "list_min(list_transform(hs, x -> ((x %% %d) * %d + %d) %% %d))"
        % (p, int(h.a[i]), int(h.b[i]), p) for i in range(num_perm))
    empty_sig = "[" + ", ".join([str(p)] * num_perm) + "]"
    return (
        "WITH w AS (SELECT doc_id, %(words)s AS words FROM documents), "
        "shing AS (SELECT doc_id, CASE WHEN len(words) >= %(k)d THEN "
        "list_transform(range(1, len(words) - %(km2)d), i -> %(join)s) "
        "ELSE [array_to_string(words, ' ')] END AS shingles "
        "FROM w WHERE len(words) >= 1), "
        "hr AS (SELECT doc_id, list_transform(shingles, s -> %(le48)s) "
        "AS hs FROM shing), "
        "sig AS (SELECT d.doc_id, CASE WHEN h.hs IS NULL THEN %(empty)s "
        "ELSE [%(sig)s] END AS sig FROM documents d "
        "LEFT JOIN hr h ON d.doc_id = h.doc_id), "
        "bands AS (SELECT doc_id, r.b AS band, "
        "sig[%(rpb)d * r.b + 1 : %(rpb)d * r.b + %(rpb)d] AS key "
        "FROM sig, range(0, %(nb)d) r(b)), "
        "ranked AS (SELECT doc_id, band, key, row_number() OVER "
        "(PARTITION BY band, key ORDER BY doc_id) AS rk FROM bands), "
        "cand AS (SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b "
        "FROM ranked x JOIN ranked y ON x.band = y.band AND x.key = y.key "
        "AND x.doc_id < y.doc_id WHERE x.rk <= %(cap)d AND y.rk <= %(cap)d)"
        " SELECT doc_a, doc_b, "
        "len(list_filter(range(1, %(np1)d), i -> sa.sig[i] = sb.sig[i])) "
        "/ %(np)d.0 AS est_jaccard "
        "FROM cand JOIN sig sa ON sa.doc_id = cand.doc_a "
        "JOIN sig sb ON sb.doc_id = cand.doc_b "
        "WHERE len(list_filter(range(1, %(np1)d), "
        "i -> sa.sig[i] = sb.sig[i])) / %(np)d.0 >= %(thr)r"
        % {"words": word_expr, "k": k, "km2": k - 2, "join": shingle_join,
           "le48": le48, "empty": empty_sig, "sig": sig_elems,
           "rpb": rows_per_band, "nb": bands, "cap": MAX_BUCKET,
           "np": num_perm, "np1": num_perm + 1,
           "thr": jaccard_threshold})


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """Scalar reference implementation (kept for the property test that pins
    SimHasher's vectorized kernel to these exact bit semantics)."""
    v = np.zeros(64, dtype=np.int64)
    for w in _words(text):
        h = int(hashlib.md5(w.encode()).hexdigest()[:16], 16)
        bits = np.fromiter(((h >> i) & 1 for i in range(64)), dtype=np.int64,
                           count=64)
        v += 2 * bits - 1
    return int("".join("1" if x > 0 else "0" for x in v), 2)


class SimHasher:
    """Vectorized simhash actor: per-actor word→hash cache (words repeat
    heavily across a corpus), one unpackbits + matmul per document instead of
    a per-word per-bit Python loop.  Bit-identical to :func:`simhash64`,
    which itself matches the generated DuckDB oracle.
    """

    MAX_CACHE = 1 << 18

    def __init__(self):
        self._cache: dict = {}

    def _hash_words(self, words) -> np.ndarray:
        cache = self._cache
        out = np.empty(len(words), dtype=np.uint64)
        for i, w in enumerate(words):
            h = cache.get(w)
            if h is None:
                # first 8 md5 bytes, big-endian = first 16 hex chars as int
                h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")
                if len(cache) < self.MAX_CACHE:
                    cache[w] = h
            out[i] = h
        return out

    def simhash(self, text: str) -> int:
        from collections import Counter
        counts = Counter(_words(text))
        if not counts:
            return 0
        h = self._hash_words(list(counts))
        # bits[:, i] == (h >> i) & 1  (little-endian host byte order)
        bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        c = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        v = c @ (2 * bits.astype(np.int64) - 1)
        # reference packs v[0] as the MSB of the 64-bit result
        return int.from_bytes(np.packbits(v > 0, bitorder="big").tobytes(),
                              "big")

    def __call__(self, batch: pa.Table) -> pa.Table:
        hs = [self.simhash(t) for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array(hs, type=pa.uint64()),
        })


_SIMHASHER = SimHasher()


def _simhash_batch(batch: pa.Table) -> pa.Table:
    return _SIMHASHER(batch)


def simhash_pairs(ds, max_hamming: int = 3, concurrency=None):
    """Near-dup pairs with hamming(simhash) ≤ k via 4-block bucketing.

    For the default k=3 the op is EXACT (pigeonhole: a pair within distance
    3 shares at least one of 4 16-bit blocks), so it carries a full DuckDB
    oracle.  The 8-byte simhash rides the bucket rows (it IS the payload —
    no second fetch needed).  Hashing runs as plain tasks with a
    per-process word-hash cache (see _minhash_batch)."""
    hashed = ds.map_batches(_simhash_batch, batch_format="pyarrow")

    def to_buckets(batch: pa.Table) -> pa.Table:
        ids, keys, hs_out = [], [], []
        for did, h in zip(batch.column("doc_id").to_pylist(),
                          batch.column("simhash").to_pylist()):
            for blk in range(4):
                ids.append(did)
                keys.append("%d:%04x" % (blk, (h >> (16 * blk)) & 0xFFFF))
                hs_out.append(h)
        return pa.table({
            "bucket": pa.array(keys, type=pa.string()),
            "doc_id": pa.array(ids, type=pa.int64()),
            "simhash": pa.array(hs_out, type=pa.uint64()),
        })

    def emit_pairs(group: pa.Table) -> pa.Table:
        uniq = {}
        for i, h in zip(group.column("doc_id").to_pylist(),
                        group.column("simhash").to_pylist()):
            uniq.setdefault(i, h)
        ids_u = sorted(uniq)[:MAX_BUCKET]
        a_out, b_out, d_out = [], [], []
        for i in range(len(ids_u)):
            for j in range(i + 1, len(ids_u)):
                d = bin(uniq[ids_u[i]] ^ uniq[ids_u[j]]).count("1")
                if d <= max_hamming:
                    a_out.append(ids_u[i])
                    b_out.append(ids_u[j])
                    d_out.append(d)
        return pa.table({
            "doc_a": pa.array(a_out, type=pa.int64()),
            "doc_b": pa.array(b_out, type=pa.int64()),
            "hamming": pa.array(d_out, type=pa.int32()),
        })

    pairs = hashed.map_batches(to_buckets, batch_format="pyarrow") \
        .groupby("bucket").map_groups(emit_pairs, batch_format="pyarrow")
    return (pairs.groupby(["doc_a", "doc_b"]).min("hamming")
            .map_batches(lambda t: t.rename_columns(
                ["doc_a", "doc_b", "hamming"]), batch_format="pyarrow"))


def simhash_oracle_sql(max_hamming: int = 3) -> str:
    """Generate the exact DuckDB SQL for :func:`simhash_pairs` — per-word
    64-bit md5 hash, 64 signed bit sums per doc, hamming via bit_count."""
    word_expr = ("regexp_extract_all(translate(text, "
                 "'ABCDEFGHIJKLMNOPQRSTUVWXYZ', "
                 "'abcdefghijklmnopqrstuvwxyz'), '[0-9a-z_]+')")
    vcols = ", ".join(
        "sum(CASE WHEN (h >> %d) & 1 = 1 THEN 1 ELSE -1 END) AS v%d" % (i, i)
        for i in range(64))
    pack = " + ".join(
        "CASE WHEN v%d > 0 THEN %d::HUGEINT ELSE 0 END" % (i, 1 << (63 - i))
        for i in range(64))
    return (
        "WITH wrows AS (SELECT doc_id, unnest(%s) AS w FROM documents), "
        "hrows AS (SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT "
        "AS h FROM wrows), "
        "vsum AS (SELECT doc_id, %s FROM hrows GROUP BY doc_id), "
        "sh AS (SELECT d.doc_id, COALESCE((%s)::UBIGINT, 0::UBIGINT) "
        "AS simhash FROM documents d LEFT JOIN vsum v ON d.doc_id = v.doc_id)"
        " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming "
        "FROM sh a JOIN sh b ON a.doc_id < b.doc_id "
        "WHERE bit_count(xor(a.simhash, b.simhash)) <= %d"
        % (word_expr, vcols, pack, max_hamming))


# ---------------------------------------------------------------------------
# n-gram jaccard (exact verification)
# ---------------------------------------------------------------------------

_NGRAM_SQL_GRAMS = (
    "WITH w AS (SELECT doc_id, regexp_extract_all(translate(text, "
    "'ABCDEFGHIJKLMNOPQRSTUVWXYZ', 'abcdefghijklmnopqrstuvwxyz'), "
    "'[0-9a-z_]+') AS words FROM documents), "
    "g AS (SELECT doc_id, list_distinct(list_transform(range(1, "
    "len(words)-1), i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))"
    " AS grams FROM w WHERE len(words) >= 3)")

NGRAM_PAIRS_SQL = (
    _NGRAM_SQL_GRAMS +
    " SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
    "len(list_intersect(a.grams, b.grams))::DOUBLE / "
    "len(list_distinct(list_concat(a.grams, b.grams))) AS jaccard "
    "FROM g a JOIN g b ON a.doc_id < b.doc_id "
    "WHERE len(list_intersect(a.grams, b.grams))::DOUBLE / "
    "len(list_distinct(list_concat(a.grams, b.grams))) >= 0.5")


def ngram_jaccard_pairs(ds, n: int = 3, threshold: float = 0.5,
                        num_perm: int = 64, bands: int = 32,
                        num_partitions: int = NUM_JOIN_PARTITIONS):
    """Exact word n-gram jaccard ≥ threshold, fully distributed.

    Candidates come from minhash LSH with 2-row bands (detection prob at
    j=0.5 is 1-(1-0.25)^32 ≈ 0.9999 — near-total recall at the contract
    threshold; callers chasing higher thresholds should narrow ``bands``).
    Texts are then joined onto the deduplicated candidate pairs (``_attach``)
    — the corpus never passes through the driver.  The
    default n=3/threshold=0.5 form matches ``NGRAM_PAIRS_SQL`` exactly.
    """
    sigs = minhash_signatures(ds, num_perm).materialize()
    cands = lsh_candidate_pairs(sigs, num_perm, bands)
    withtext = _attach(_attach(cands, ds, "doc_a", "text", "text_a",
                               num_partitions),
                       ds, "doc_b", "text", "text_b", num_partitions)

    def verify(batch: pa.Table) -> pa.Table:
        a_out, b_out, j_out = [], [], []
        for a, b, ta, tb in zip(batch.column("doc_a").to_pylist(),
                                batch.column("doc_b").to_pylist(),
                                batch.column("text_a").to_pylist(),
                                batch.column("text_b").to_pylist()):
            wa, wb = _words(ta), _words(tb)
            ga = {" ".join(wa[i:i + n]) for i in range(len(wa) - n + 1)}
            gb = {" ".join(wb[i:i + n]) for i in range(len(wb) - n + 1)}
            if not ga or not gb:
                continue
            j = len(ga & gb) / len(ga | gb)
            if j >= threshold:
                a_out.append(a)
                b_out.append(b)
                j_out.append(j)
        return pa.table({
            "doc_a": pa.array(a_out, type=pa.int64()),
            "doc_b": pa.array(b_out, type=pa.int64()),
            "jaccard": pa.array(j_out, type=pa.float64()),
        })

    return withtext.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# duplicate clusters
# ---------------------------------------------------------------------------

def _padded(ids) -> pa.ChunkedArray:
    """Non-negative int64 ids → strings zero-padded to 20 digits, so the
    least string of a set of ids is the numerically least id."""
    import pyarrow.compute as pc
    return pc.utf8_lpad(ids.cast(pa.string()), 20, "0")


def dup_clusters(pairs, a: str, b: str):
    """Connected components of the duplicate graph whose edges are the
    int64 id pairs in columns ``a``/``b`` → ``(node, component)`` over
    padded string ids, component = the least id of the cluster."""
    from .link import connected_components
    return connected_components(pairs.map_batches(
        lambda t: pa.table([_padded(t.column(a)), _padded(t.column(b))],
                           names=["a", "b"]),
        batch_format="pyarrow"))


def cluster_keepers(items, pairs, id_col: str, a: str, b: str):
    """Keep-list ``(id_col,)`` of ``items``: every item in no pair, plus
    the least id of each duplicate cluster of ``pairs`` (columns
    ``a``/``b``).  Each padded id is relabelled to its cluster's least id
    and an item is kept when that is its own id — no join."""
    import pyarrow.compute as pc

    from .link import canonicalize_ids_ds

    def with_node(t: pa.Table) -> pa.Table:
        node = _padded(t.column(id_col))
        return pa.table([t.column(id_col), node, node],
                        names=[id_col, "node", "comp"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("node"), t.column("comp"))) \
            .select([id_col])

    ids = items.select_columns([id_col]).map_batches(
        with_node, batch_format="pyarrow")
    return canonicalize_ids_ds(ids, dup_clusters(pairs, a, b), ("comp",)) \
        .map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embedding near-dup
# ---------------------------------------------------------------------------

def embedding_dup_pairs(ds, threshold: float = 0.4, bucket_dims: int = 4,
                        num_partitions: int = NUM_JOIN_PARTITIONS):
    """Cosine ≥ τ pairs over (vec_id, embedding:list<float>) **within
    sign-LSH blocks**.

    Blocking is part of the op contract: candidates are pairs whose sign
    patterns over the first ``bucket_dims`` dims differ in ≤ 1 position
    (hamming-1 multiprobe — every vector is inserted into its own bucket
    plus the ``bucket_dims`` one-bit-flip probes).  That makes the result
    set deterministic and SQL-expressible (see the oracle), at documented
    recall < 1 against the unblocked predicate; ``sim_pairs_exact`` /
    ``knn_*`` are the unblocked variants.  Each pair is emitted exactly
    once: only from the primary bucket of its lower-id member (a pair's
    buckets intersect there iff sign-hamming ≤ 1), so no dedup shuffle and
    the output schema is always typed.  Embeddings are verified exactly via
    a float64 dot after ``_attach`` — they do not ride the bucket rows.
    """

    def to_buckets(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_pylist()
        embs = batch.column("embedding").to_pylist()
        b_out, id_out, p_out = [], [], []
        for vid, e in zip(ids, embs):
            primary = "".join("1" if x >= 0 else "0" for x in e[:bucket_dims])
            probes = [primary]
            for d in range(bucket_dims):
                flip = primary[:d] + ("0" if primary[d] == "1" else "1") \
                    + primary[d + 1:]
                probes.append(flip)
            for pb in probes:
                b_out.append(pb)
                id_out.append(vid)
                p_out.append(primary)
        return pa.table({
            "bucket": pa.array(b_out, type=pa.string()),
            "vec_id": pa.array(id_out, type=pa.int64()),
            "primary": pa.array(p_out, type=pa.string()),
        })

    def emit(group: pa.Table) -> pa.Table:
        bucket = group.column("bucket")[0].as_py()
        rows = sorted(set(zip(group.column("vec_id").to_pylist(),
                              group.column("primary").to_pylist())))
        a_out, b_out = [], []
        for i in range(len(rows)):
            vid_a, prim_a = rows[i]
            if prim_a != bucket:
                continue  # emit only from the lower id's primary bucket
            for j in range(len(rows)):
                vid_b = rows[j][0]
                if vid_b > vid_a:
                    a_out.append(vid_a)
                    b_out.append(vid_b)
        return pa.table({
            "vec_a": pa.array(a_out, type=pa.int64()),
            "vec_b": pa.array(b_out, type=pa.int64()),
        })

    cands = (ds.map_batches(to_buckets, batch_format="pyarrow")
             .groupby("bucket").map_groups(emit, batch_format="pyarrow"))

    def pack(b: pa.Table) -> pa.Table:
        embs = [np.asarray(e, dtype=np.float64).tobytes()
                for e in b.column("embedding").to_pylist()]
        return pa.table({
            "doc_id": b.column("vec_id"),
            "emb": pa.array(embs, type=pa.binary()),
        })

    packed = ds.map_batches(pack, batch_format="pyarrow")
    withemb = _attach(_attach(cands, packed, "vec_a", "emb", "emb_a",
                              num_partitions),
                      packed, "vec_b", "emb", "emb_b", num_partitions)

    def verify(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"vec_a": pa.array([], type=pa.int64()),
                             "vec_b": pa.array([], type=pa.int64())})
        ea = np.frombuffer(b"".join(batch.column("emb_a").to_pylist()),
                           dtype=np.float64).reshape(n, -1)
        eb = np.frombuffer(b"".join(batch.column("emb_b").to_pylist()),
                           dtype=np.float64).reshape(n, -1)
        na = np.linalg.norm(ea, axis=1)
        nb = np.linalg.norm(eb, axis=1)
        denom = np.where((na == 0) | (nb == 0), 1.0, na * nb)
        cos = (ea * eb).sum(axis=1) / denom
        keep = cos >= threshold
        return pa.table({
            "vec_a": pa.array(np.asarray(batch.column("vec_a"))[keep],
                              type=pa.int64()),
            "vec_b": pa.array(np.asarray(batch.column("vec_b"))[keep],
                              type=pa.int64()),
        })

    return withemb.map_batches(verify, batch_format="pyarrow")


EMBEDDING_DUP_SQL = (
    "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4 AND "
    "((CASE WHEN (a.embedding[1]>=0) != (b.embedding[1]>=0) THEN 1 ELSE 0 END)"
    " + (CASE WHEN (a.embedding[2]>=0) != (b.embedding[2]>=0) THEN 1 ELSE 0 "
    "END) + (CASE WHEN (a.embedding[3]>=0) != (b.embedding[3]>=0) THEN 1 "
    "ELSE 0 END) + (CASE WHEN (a.embedding[4]>=0) != (b.embedding[4]>=0) "
    "THEN 1 ELSE 0 END)) <= 1")
