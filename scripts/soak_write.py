"""Write-path soak with checkpoint-resume (VERDICT r4 next-round #6).

The triple-count soak (scripts/soak_spill.py) exercises the compute
path; this one drives the FULL write path at soak scale — ``kg_full`` with ``num_shards``:
sharded pages→triples with per-shard atomic landing + lineage manifests
under ``<out>/landed/``, then canonicalization and the graph through
partitioned write_parquet with per-partition manifests (write_graph) —
and proves resume: phase 1 runs in a subprocess that CRASHES after N
shards, phase 2 re-invokes with the same out_dir in a fresh Ray session
and must compute only the shards that had not landed (a landed shard's
manifest names the same input files) and finish.

Usage: python scripts/soak_write.py [n_pages] [num_cpus] [num_shards]
                                    [fail_after]

Prints one JSON line; record it as SOAK_r5 evidence.
"""

import json
import os
import shutil
import subprocess
import sys
import time

OUT_DIR = "/tmp/ie_ray_soak_write"

_PHASE_SRC = r"""
import json, sys, time
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]),
         include_dashboard=False, logging_level="ERROR")
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, ".")
from ie_ray.pipelines.kg import default_fixture_dir, kg_full
fd = default_fixture_dir(n_pages=int(sys.argv[2]))
fail_after = int(sys.argv[3]) or None
t0 = time.time()
try:
    out = kg_full(fd, out_dir=sys.argv[4], num_shards=int(sys.argv[5]),
                  _fail_after=fail_after)
    out["wall_s"] = round(time.time() - t0, 1)
    print("RESULT " + json.dumps(out))
except RuntimeError as e:
    print("CRASH " + json.dumps({"error": str(e),
                                 "wall_s": round(time.time() - t0, 1)}))
ray.shutdown()
"""


def _run_phase(cpus, n_pages, fail_after, out_dir, num_shards):
    proc = subprocess.run(
        [sys.executable, "-c", _PHASE_SRC, str(cpus), str(n_pages),
         str(fail_after), out_dir, str(num_shards)],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    for line in proc.stdout.splitlines():
        if line.startswith(("RESULT ", "CRASH ")):
            kind, payload = line.split(" ", 1)
            return kind, json.loads(payload)
    raise SystemExit("phase produced no result:\n" + proc.stdout[-2000:]
                     + proc.stderr[-2000:])


def _landed_counts():
    """(all rows, arg/aka/poss rows) of the landed triple shards."""
    import duckdb
    return duckdb.sql(
        "SELECT count(*), count(*) FILTER (WHERE kind IN "
        "('arg','aka','poss')) FROM read_parquet("
        "'%s/landed/triples/shard???/*.parquet')" % OUT_DIR).fetchone()


def main():
    n_pages = int(sys.argv[1]) if len(sys.argv) > 1 else 2_400_000
    cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    num_shards = int(sys.argv[3]) if len(sys.argv) > 3 else 8
    fail_after = int(sys.argv[4]) if len(sys.argv) > 4 else 3

    shutil.rmtree(OUT_DIR, ignore_errors=True)

    t0 = time.time()
    kind, crash = _run_phase(cpus, n_pages, fail_after, OUT_DIR, num_shards)
    assert kind == "CRASH", "phase 1 should simulate a crash: %r" % crash
    landed = os.listdir(os.path.join(OUT_DIR, "landed", "manifests"))

    kind, resumed = _run_phase(cpus, n_pages, 0, OUT_DIR, num_shards)
    assert kind == "RESULT", resumed
    wall_total = round(time.time() - t0, 1)
    triples, extracted = _landed_counts()

    assert resumed["shards_computed"] == resumed["shards"] - fail_after, \
        resumed

    # manifest accounting: every shard + every graph partition stamped
    shard_manifests = [m for m in os.listdir(
        os.path.join(OUT_DIR, "landed", "manifests"))
        if m.startswith("triples-")]
    gman = os.listdir(os.path.join(OUT_DIR, "manifests"))
    node_manifests = [m for m in gman if m.startswith("nodes-")
                      and m.endswith(".json")]
    edge_manifests = [m for m in gman if m.startswith("edges-")
                      and m.endswith(".json")]

    out = {
        "metric": "write-path soak with crash-resume",
        "n_pages": n_pages,
        "num_cpus": cpus,
        "num_shards": num_shards,
        "fail_after": fail_after,
        "phase1_wall_s": crash["wall_s"],
        "phase2_wall_s": resumed["wall_s"],
        "total_wall_s": wall_total,
        "shards_landed_before_crash": len(landed),
        "shards_skipped_on_resume": (resumed["shards"]
                                     - resumed["shards_computed"]),
        "shards_computed_on_resume": resumed["shards_computed"],
        # all landed rows, then arg/aka/poss rows only — directly
        # comparable to the compute-path soak's "triples extracted"
        # number (the full count also holds the quarantine/empty
        # records, which the write path preserves as data)
        "triples": triples,
        "triples_extracted": extracted,
        "nodes": resumed["nodes"],
        "edges": resumed["edges"],
        "shard_manifests": len(shard_manifests),
        "graph_partition_manifests": {"nodes": len(node_manifests),
                                      "edges": len(edge_manifests)},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
