"""Broadcast Bloom-filter runtime filters: semi-join and new-vs-seen.

The scale problem: an exact distributed (semi/anti) join ships every
probe-side row through a key exchange, or broadcasts the full build-side
key set to every task.  When the build side is too big to broadcast raw
but the probe side is far bigger still (the 100 TB shapes: "keep only
lineitems of flagged orders", "which crawled URLs are NEW vs 10¹² seen
hashes"), the classic answer (Bloom 1970; every MPP runtime-filter
since) is a fixed-size bit array that never false-negatives: build one
bitmap from the build-side keys, broadcast it ONCE via ``ray.put``, and
decide (1 − FPR) of the probe rows locally, before any exchange.

Shapes here:

* ``build_bloom`` — each block sets its keys' bits in a LOCAL bitmap
  (one vectorized scatter), bitmaps tree-OR through bounded-fanin
  combine tasks (OR is associative/commutative/idempotent, so block
  order and retries are free); the driver pulls exactly one
  ``n_bits/8``-byte blob, never a key set.
* ``bloom_contains`` — double hashing g_i = h1 + i·h2 (Kirsch &
  Mitzenmacher 2006: two independent 64-bit splitmix mixes simulate k
  hashes with no quality loss), fully vectorized numpy probe.
* ``bloom_semi_join`` — keep probe rows whose key IS in the build set:
  bloom prefilter, then an EXACT broadcast-key verify of the survivors
  (false positives die here, so the composed operator is exact).
* ``bloom_new_rows`` — keep probe rows whose key is NOT in the seen
  set: bloom-NEGATIVE rows are definitely new and never enter any
  exchange; only the bloom-positive sliver (true hits + FP) goes
  through the exact ``relational.anti_join``.  Probe-side exchange
  volume is O(overlap + FP·probe), not O(probe).

Sizing: FPR ≈ (1 − e^{−kn/m})^k; the default m = 2²⁰ bits (128 KiB)
and k = 4 give ~0.1 % at n = 50 k keys.  Callers size m ≈ 10 bits/key.
The position mix is fixed (splitmix64) so build and probe agree
forever.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_N_BITS_DEFAULT = 1 << 20
_K_DEFAULT = 4

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _mix64(x: np.ndarray, seed: np.uint64) -> np.ndarray:
    """splitmix64 finalizer — a full-avalanche 64-bit mix."""
    with np.errstate(over="ignore"):
        z = (x + seed).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _positions(keys: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """(len(keys), k) bit positions via double hashing."""
    x = np.ascontiguousarray(keys, dtype=np.int64).view(np.uint64)
    h1 = _mix64(x, _C1)
    h2 = _mix64(x, _C2) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        g = h1[:, None] + i[None, :] * h2[:, None]
    return (g % np.uint64(n_bits)).astype(np.int64)


def _round_bits(n_bits: int) -> int:
    """Word-align the bitmap size.  Every public entry point rounds
    n_bits UP to a multiple of 64 so build and probe always agree on
    the modulus (``bloom_contains`` recomputes it as len(words)·64 —
    a misaligned build would either crash the scatter or, worse,
    silently mod by a different value and break the no-false-negative
    contract)."""
    return max(64, (int(n_bits) + 63) // 64 * 64)


def local_bitmap(keys: np.ndarray, n_bits: int, k: int) -> np.ndarray:
    """One block's bitmap: n_bits/64 uint64 words, vectorized scatter."""
    n_bits = _round_bits(n_bits)
    words = np.zeros(n_bits // 64, dtype=np.uint64)
    if len(keys):
        pos = _positions(keys, n_bits, k).ravel()
        np.bitwise_or.at(words, pos >> 6,
                         np.uint64(1) << (pos & 63).astype(np.uint64))
    return words


def bloom_contains(words: np.ndarray, keys: np.ndarray,
                   k: int) -> np.ndarray:
    """Vectorized membership probe — True may false-positive, False
    never false-negatives."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    n_bits = len(words) * 64
    pos = _positions(keys, n_bits, k)
    bit = (words[pos >> 6] >> (pos & 63).astype(np.uint64)) \
        & np.uint64(1)
    return bit.all(axis=1)


def build_bloom(ds, on: str, n_bits: int = _N_BITS_DEFAULT,
                k: int = _K_DEFAULT) -> np.ndarray:
    """Distributed bitmap build: per-block scatter, OR combine (through
    a tree level once the block bitmaps are many).
    Returns the uint64 word array (bounded driver pull: n_bits/8
    bytes, independent of key count)."""
    from ie_ray.stages.relational import lowcard_combine

    n_bits = _round_bits(n_bits)

    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(on).cast(pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        words = local_bitmap(keys, n_bits, k)
        return pa.table({"bits": pa.array([words.tobytes()],
                                          type=pa.large_binary())})

    def combine(t: pa.Table) -> pa.Table:
        acc = np.zeros(n_bits // 64, dtype=np.uint64)
        for blob in t.column("bits").to_pylist():
            acc |= np.frombuffer(blob, dtype=np.uint64)
        return pa.table({"bits": pa.array([acc.tobytes()],
                                          type=pa.large_binary())})

    out = lowcard_combine(ds.select_columns([on]), partial,
                          final_fn=combine, combine_fn=combine).take_all()
    if not out:   # zero-row build side: map_batches never ran
        return np.zeros(n_bits // 64, dtype=np.uint64)
    return np.frombuffer(out[0]["bits"], dtype=np.uint64)


def _bloom_split(ds, on: str, bits_ref, k: int, positive: bool):
    """Probe-side partition by bloom verdict, zero exchange."""
    import ray

    def fn(t: pa.Table) -> pa.Table:
        words = ray.get(bits_ref)
        keys = t.column(on).cast(pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        m = bloom_contains(words, keys, k)
        return t.filter(pa.array(m if positive else ~m))

    return ds.map_batches(fn, batch_format="pyarrow")


def bloom_semi_join(left, right, on: str,
                    n_bits: int = 1 << 23, k: int = _K_DEFAULT):
    """EXACT semi-join (left rows whose ``on`` appears in right):
    bloom prefilter + broadcast exact verify of the survivors.

    The distinct right keys are reduced distributed and pulled once;
    the bloom is built from them on the driver and broadcast once;
    every left block drops non-members with one vectorized probe,
    zero exchange.  The exact key set then kills the ≤FPR
    false-positive tail.  Verify-side contract: the DISTINCT right
    key set must fit a worker (sorted int64, 8 B/key — 10⁸ keys =
    800 MB; beyond that, replace the verify stage with the hash
    exchange of ``relational.adaptive_join`` over the already-thinned
    survivors — the ``bloom_new_rows`` composition shows the shape).

    The build side is scanned ONCE: the distinct-key pass both feeds
    the verify set and builds the bitmap driver-side (the bitmap is
    derived data — at the too-big-to-pull scale where ``build_bloom``'s
    distributed tree-OR is needed, the verify stage must be the hash
    exchange anyway).  The bloom probe stays in front of the verify
    searchsorted because it is O(1)/row vs O(log n): on a mostly-miss
    probe stream (the runtime-filter case) it removes the binary
    search for ~every non-member row.
    """
    import ray

    # exact distinct right keys for the verify pass (kills false
    # positives) — distinct-ed distributed, pulled once, broadcast once
    def key_partial(t: pa.Table) -> pa.Table:
        return pa.table({on: t.column(on).cast(pa.int64())
                         .combine_chunks().unique()})

    def key_combine(t: pa.Table) -> pa.Table:
        return pa.table({on: t.column(on).combine_chunks().unique()})

    from ie_ray.stages.relational import lowcard_combine
    keys_tbl = lowcard_combine(right.select_columns([on]), key_partial,
                               final_fn=key_combine,
                               combine_fn=key_combine)
    key_tbls = [t for t in ray.get(keys_tbl.to_arrow_refs())
                if t.num_columns > 0]
    key_set = np.sort(pa.concat_tables(key_tbls).column(on)
                      .combine_chunks()
                      .to_numpy(zero_copy_only=False)) if key_tbls \
        else np.zeros(0, dtype=np.int64)
    keys_ref = ray.put(key_set)
    bits_ref = ray.put(local_bitmap(key_set, n_bits, k))

    # plain task fn, not an actor pool: the per-task state is two
    # zero-copy ray.gets from the local object store — an actor's
    # startup latency would dominate (profiled 3.9 s → sub-second)
    def prefilter(t: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        key_arr = ray.get(keys_ref)
        keys = t.column(on).cast(pa.int64()).combine_chunks() \
            .to_numpy(zero_copy_only=False)
        m = bloom_contains(bits, keys, k)
        if not m.any() or len(key_arr) == 0:
            return t.slice(0, 0)
        t = t.filter(pa.array(m))
        surv = keys[m]
        idx = np.clip(np.searchsorted(key_arr, surv), 0,
                      len(key_arr) - 1)
        hit = key_arr[idx] == surv
        return t.filter(pa.array(hit))

    return left.map_batches(prefilter, batch_format="pyarrow")


def bloom_new_rows(probe_ds, seen_ds, key_col: str,
                   n_bits: int = _N_BITS_DEFAULT, k: int = _K_DEFAULT,
                   m_bits: int | None = None):
    """Rows of ``probe_ds`` whose key does NOT occur in ``seen_ds``.

    Exact (the bloom is only a prefilter): bloom-negative rows are
    definitely new and bypass every exchange; bloom-positive rows
    (true hits + FP sliver) are decided by the real anti-join.
    ``m_bits`` is an accepted alias for ``n_bits``.
    """
    import ray

    from ie_ray.stages.relational import anti_join

    if m_bits is not None:
        n_bits = m_bits
    words = build_bloom(seen_ds, key_col, n_bits=n_bits, k=k)
    bits_ref = ray.put(words)

    definite_new = _bloom_split(probe_ds, key_col, bits_ref, k,
                                positive=False)
    candidates = _bloom_split(probe_ds, key_col, bits_ref, k,
                              positive=True)
    verified_new = anti_join(candidates, seen_ds, key_col, key_col)
    return definite_new.union(verified_new)
