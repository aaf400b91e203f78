"""ie_ray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the extraction semantics of the reference engine
(marbles-ai/ie: CCG derivation → DRS → (subj, pred, obj) triples) as
streaming Ray Data pipelines over Arrow batches:

    pages (url, warc_ts, html, text, lang)
      → extract_text        (html → text, byte-identical per url)
      → dedup_losers        (least url per content hash, broadcast probe)
      → segment_sentences   (flat explode page → sentences)
      → parse               (sentence → CCG derivation)
      → compose             (derivation → DRS conditions → triples)
      → entity link         (broadcast alias dict)
        (parse → compose → link run inside the same fused page task,
         with per-worker-process state for the run)
      → canonicalize        (two-pass alias components + broadcast relabel)
      → graph materialize   (nodes/edges parquet + per-partition manifests)

Everything here is a fresh implementation; reference files are cited in
docstrings (path:line into /root/reference) only to document parity.
"""

__version__ = "0.1.0"

import os as _os

# Honest per-worker thread accounting: Ray caps pyarrow/BLAS via
# OMP_NUM_THREADS=1 in every worker, but polars sizes its rayon pool
# from the HOST core count (measured: 32 threads inside a 1-CPU Ray
# actor).  A 1-CPU stage silently burning 32 host threads
# oversubscribes the node the moment several actors run — and on a
# shared measurement box it lets a small-CPU run exceed its nominal
# budget, corrupting N-vs-4N scaling numbers.  Pin the pool to the
# worker's Ray CPU share before any polars import; explicit
# POLARS_MAX_THREADS from the operator always wins.  The pin applies
# only where a thread budget exists (OMP_NUM_THREADS set — Ray workers;
# operators that export it) so importing ie_ray in a host application's
# driver process does NOT clamp that application's own polars pool
# (ADVICE r4: process-global side effect).
if "POLARS_MAX_THREADS" not in _os.environ and \
        _os.environ.get("OMP_NUM_THREADS"):
    _os.environ["POLARS_MAX_THREADS"] = _os.environ["OMP_NUM_THREADS"]
