"""Print a sorted-row md5 for queries() entries, plus one digest of the
registry's order and one of oracle_sql(), so two checkouts can be
compared line by line.

Usage: python scripts/query_md5.py [--cpus N] <sf_dir> [name ...]

Each query line is ``name md5 rows wall_s``.  The md5 is taken over the
sorted ``repr`` of every result row: ``take_all()`` for a Dataset,
``to_pylist()`` for an Arrow table, ``to_dict("records")`` for a pandas
frame.  A query that raises prints ``ERROR`` and its exception instead.
The last two lines digest ``list(queries())`` (its order included) and
the ``oracle_sql()`` mapping (keys, order and SQL text).  Diff the output
of two checkouts to see which results moved.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def rows_of(res) -> list:
    import pandas as pd
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.take_all()
    if isinstance(res, pa.Table):
        return res.to_pylist()
    if isinstance(res, pd.DataFrame):
        return res.to_dict("records")
    return list(res)


def md5_of(lines) -> str:
    return hashlib.md5("\n".join(lines).encode()).hexdigest()


def main(argv) -> int:
    cpus = 4
    if argv[:1] == ["--cpus"]:
        cpus, argv = int(argv[1]), argv[2:]
    if not argv:
        print(__doc__)
        return 2
    sf_dir, only = argv[0], argv[1:]

    import ray
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry
    qs = entry.queries()
    failed = 0
    for name in only or list(qs):
        t0 = time.time()
        try:
            rows = rows_of(qs[name](sf_dir))
        except Exception as e:               # report and go on
            print("%-32s ERROR %r" % (name, e), flush=True)
            failed += 1
            continue
        print("%-32s %s %8d %8.2f" % (name, md5_of(sorted(map(repr, rows))),
                                      len(rows), time.time() - t0),
              flush=True)
    print("%-32s %s" % ("#queries_order", md5_of(list(qs))))
    print("%-32s %s" % ("#oracle_sql",
                        md5_of(repr(kv) for kv in entry.oracle_sql().items())))
    ray.shutdown()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
