"""CLI entrypoint — the ``ray job submit`` surface (north_rule).

Usage::

    python -m ie_ray run  [--fixture-dir DIR | --n-pages N] [--out DIR]
    python -m ie_ray bench

``run`` executes the full flagship pipeline (pages → triples → canonical
graph parquet + manifests) and prints a one-line JSON summary.  With no
``--fixture-dir`` it synthesizes the deterministic fixture tables of
``--n-pages`` pages first.  On a cluster:
``ray job submit --working-dir . -- python -m ie_ray run ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None):
    p = argparse.ArgumentParser(prog="ie_ray")
    sub = p.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="run the flagship KG pipeline")
    # (bench lives in bench.py at the repo root; kept out of the package)
    runp.add_argument("--fixture-dir", default=None,
                      help="fixture dir holding pages/ + derivations + alias "
                           "tables; default: synthesize at --n-pages")
    runp.add_argument("--n-pages", type=int, default=2000,
                      help="fixture size when --fixture-dir is not given")
    runp.add_argument("--out", default="/tmp/ie_ray_out")
    sub.add_parser("bench", help="see bench.py at the repo root")
    args = p.parse_args(argv)
    if args.cmd == "bench":
        print("use: python bench.py [--scaling] (repo root)")
        return 0

    import ray
    if not ray.is_initialized():          # driver-owned sessions skip this
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    from ie_ray.pipelines.kg import default_fixture_dir, kg_full

    t0 = time.time()
    fixture_dir = args.fixture_dir or default_fixture_dir(n_pages=args.n_pages)
    res = kg_full(fixture_dir, out_dir=args.out)
    res["wall_s"] = round(time.time() - t0, 2)
    print(json.dumps(res))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
