"""Online exact-dedup via sharded hash-index actors.

The flagship no longer uses this module: ``pipelines/kg.py`` dedups with a
deterministic least-url loser list (``dedup_losers``).  It is kept only for
the dedup layer of the benchmark (``kgbench/layers.py``).

An INDEX probed per article, as in the reference (hash cache + S3 listing,
``aws/__init__.py:115-136``): N index actors each own a slice of the hash
space and map each seen hash to its owning url.  The probe, ``DedupFilter``,
is a plain callable that runs inside whatever task calls it: it splits a
batch's hashes by shard, asks all owners concurrently, and keeps only the
rows each owner confirms.  First-seen wins, so WHICH of two identical pages
survives depends on arrival order, and a dead shard loses its state.
"""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa


def _make_shard_cls():
    import ray

    # num_cpus=0: a shard is a memory service doing set lookups — reserving
    # CPU for it only creates scheduling deadlocks on small clusters.  On a
    # real cluster spread shards with scheduling strategies, not CPU slots.
    @ray.remote(num_cpus=0)
    class DedupShard:
        """hash → owning url.  Keeping the OWNER (not just membership) makes
        the filter idempotent: re-executions of the same lazy plan (Ray
        Datasets re-run their lineage per consumption) keep exactly the same
        winning rows instead of dropping everything as 'already seen'."""

        def __init__(self):
            self.owner = {}

        def check_and_add(self, keys: List[str], owners: List[str]) -> List[bool]:
            out = []
            table = self.owner
            for k, o in zip(keys, owners):
                out.append(table.setdefault(k, o) == o)
            return out

        def size(self) -> int:
            return len(self.owner)

    return DedupShard


def create_dedup_index(num_shards: Optional[int] = None):
    """Spawn the shard actors, by default one per 4 cluster CPUs (at
    least one); returns their handles (pass to DedupFilter).

    Each shard is a whole worker process (~120 MB RSS), and a consumed
    Dataset's operator graph is cyclic, so its shards live on until
    Python's cyclic GC frees the plan: on a small cluster, several
    shards per run only add resident processes."""
    import ray
    if num_shards is None:
        num_shards = max(1, int(ray.cluster_resources().get("CPU", 4)) // 4)
    cls = _make_shard_cls()
    return [cls.remote() for _ in range(num_shards)]


class DedupFilter:
    """Stateless ``map_batches`` callable (pass an instance, so it runs as
    a task): keep the rows whose ``url`` owns their ``page_hash``.  The
    first url to probe a hash becomes its owner; a re-executed batch
    probes with the same urls and keeps exactly the same rows."""

    def __init__(self, shards):
        self.shards = shards
        self.n = len(shards)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray
        keys = batch.column("page_hash").to_pylist()
        owners = batch.column("url").to_pylist()
        by_shard: dict = {}
        for i, (k, o) in enumerate(zip(keys, owners)):
            by_shard.setdefault(int(k[:4], 16) % self.n, []).append((i, k, o))
        futures, order = [], []
        for s, triples_ in by_shard.items():
            futures.append(self.shards[s].check_and_add.remote(
                [k for _, k, _ in triples_], [o for _, _, o in triples_]))
            order.append([i for i, _, _ in triples_])
        keep = [False] * len(keys)
        for fresh, idxs in zip(ray.get(futures), order):
            for f, i in zip(fresh, idxs):
                keep[i] = f
        return batch.filter(pa.array(keep))
