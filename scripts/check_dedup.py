"""Determinism check of the flagship's page dedup.

For each seed, writes the fixture tables (``write_fixture_tables``), runs
the page stages of ``kg_triples`` (``dedup_losers`` → ``_new_pages``)
twice — the second time over the same pages in reversed row order — and
checks that:

* the kept ``(url, page_hash)`` rows are exactly the English rows whose
  url is the least url of their hash (recomputed here in plain Python,
  rows that share both url and hash included);
* both runs keep the same rows.

Usage: python scripts/check_dedup.py [n_pages] [pool_size] [seed ...]
       (defaults: 10000 1200, seeds 101-110; use 360 20000 for the cold
       shape)

Prints one JSON line per seed and exits non-zero on any mismatch.
"""

import collections
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def expected(pages_dir):
    import pyarrow.parquet as pq
    from ie_ray.stages.extract import add_page_hash, extract_text_batch
    t = add_page_hash(extract_text_batch(pq.read_table(
        pages_dir, columns=["url", "html", "lang"])))
    rows = [(u, h) for u, lang, h in zip(*(t.column(c).to_pylist()
                                           for c in ("url", "lang",
                                                     "page_hash")))
            if lang == "en"]
    least = {}
    for u, h in rows:
        least[h] = min(least.get(h, u), u)
    return collections.Counter((u, h) for u, h in rows if least[h] == u)


def kept(pages):
    import ie_ray.pipelines.kg as kg
    ds = kg._new_pages(pages, kg.dedup_losers(pages))
    return collections.Counter(
        (r["url"], r["page_hash"])
        for r in ds.select_columns(["url", "page_hash"]).take_all())


def main(argv):
    n_pages = int(argv[0]) if argv else 10000
    pool = int(argv[1]) if len(argv) > 1 else 1200
    seeds = [int(s) for s in argv[2:]] or list(range(101, 111))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = root + os.pathsep + os.environ.get(
        "PYTHONPATH", "")
    import pyarrow.parquet as pq
    import ray
    import ray.data
    import ie_ray.pipelines.kg as kg
    from ie_ray.sources.pages import write_fixture_tables
    ray.init(address="local", num_cpus=2, include_dashboard=False)
    ok = True
    for seed in seeds:
        d = tempfile.mkdtemp(prefix="check_dedup_")
        try:
            write_fixture_tables(d, n_pages=n_pages, pool_size=pool,
                                 seed=seed)
            pages_dir = os.path.join(d, "pages")
            want = expected(pages_dir)
            first = kept(kg._read_pages(pages_dir))
            t = pq.read_table(pages_dir, columns=["url", "html", "lang"])
            second = kept(ray.data.from_arrow(
                t.take(list(range(t.num_rows - 1, -1, -1)))).repartition(8))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        rep = {"seed": seed, "kept": sum(first.values()),
               "hashes": len({h for _, h in first}),
               "least_url": first == want, "deterministic": first == second}
        ok = ok and rep["least_url"] and rep["deterministic"]
        print(json.dumps(rep), flush=True)
    ray.shutdown()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
