"""Triple precision/recall against the golden fixture table.

The north-rule correctness bar is P/R ≥ 0.95 vs reference-semantics golden
triples (BASELINE.json).  Both sides are deduplicated to sets keyed by
(sent_hash, subj, pred, obj, kind) so page-level repetition of the same
sentence doesn't weight the metric.
"""

from __future__ import annotations

import os


def triple_pr(triples_ds, fixture_dir: str) -> dict:
    """Compute precision/recall of a produced triples Dataset."""
    import pyarrow.parquet as pq

    golden = pq.read_table(os.path.join(fixture_dir, "golden_triples.parquet"))
    gold = set(zip(golden.column("sent_hash").to_pylist(),
                   golden.column("subj").to_pylist(),
                   golden.column("pred").to_pylist(),
                   golden.column("obj").to_pylist()))

    produced = set()
    # seen_hashes must come from EVERY row the pipeline emitted — including
    # quarantine/empty rows — so a sentence whose composition fails entirely
    # still counts in the recall denominator (it stays in gold_seen with no
    # matching produced triples).  Restricting to produced triples would hide
    # whole-sentence extraction failures from the >=0.95 recall gate.
    seen_hashes = set()
    for batch in triples_ds.iter_batches(batch_format="pyarrow",
                                         batch_size=8192):
        for h, s, p, o, k in zip(batch.column("sent_hash").to_pylist(),
                                 batch.column("subj").to_pylist(),
                                 batch.column("pred").to_pylist(),
                                 batch.column("obj").to_pylist(),
                                 batch.column("kind").to_pylist()):
            seen_hashes.add(h)
            if k in ("arg", "aka", "poss"):
                produced.add((h, s, p, o))

    # golden covers only sentences that actually appear in the produced pages;
    # restrict to hashes the pipeline saw to keep the metric well-defined
    gold_seen = {t for t in gold if t[0] in seen_hashes}
    matched = produced & gold_seen
    precision = len(matched) / max(len(produced), 1)
    recall = len(matched) / max(len(gold_seen), 1)
    return {
        "precision": precision,
        "recall": recall,
        "produced": len(produced),
        "golden": len(gold_seen),
        "matched": len(matched),
    }
