"""In-process layer run: each flagship stage's public callable applied in
this process, in pipeline order, to the head of the workload's input.

Spans cover only the stage calls.  The counts that classify work (parse
path per sentence, cache and memo hits) are taken around the calls,
through each path's public function or by counting calls on the stage
object, never by editing the engine.
"""

from __future__ import annotations

import hashlib
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ie_ray.ccg.parser import CkyParser
from ie_ray.nlp.text import split_paragraphs
from ie_ray.sources.heuristic_parse import synthesize_derivation
from ie_ray.stages.compose_stage import ComposeActor
from ie_ray.stages.dedup_index import DedupFilter, create_dedup_index
from ie_ray.stages.extract import add_page_hash, extract_text_batch
from ie_ray.stages.link import load_alias_map
from ie_ray.stages.parse import ReplayParserActor
from ie_ray.stages.segment import MAX_SENT_WORDS, segment_batch

from tracing import Spans

DEDUP_BATCH = 8192      # kg_triples' DedupFilter batch size
PARSE_BATCH = 4096      # kg_triples' ParseComposeActor batch size


def _batches(t: pa.Table, size: int):
    for i in range(0, t.num_rows, size):
        yield t.slice(i, size)


def _counted(fn, counter: dict, key: str, timed: bool = False):
    def wrapper(*args):
        counter[key] = counter.get(key, 0) + 1
        if not timed:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            counter[key + "_s"] = counter.get(key + "_s", 0.0) + \
                time.perf_counter() - t0
    return wrapper


def run(fixture_dir: str, cold: bool, max_pages: int) -> dict:
    """Per-layer metrics over the first ``max_pages`` input rows."""
    spans = Spans()
    pages = pq.read_table(os.path.join(fixture_dir, "pages"),
                          columns=["url", "html", "lang"])
    pages = pages.slice(0, max_pages)
    n_pages = pages.num_rows
    m: dict = {}

    with spans("extract"):
        text = extract_text_batch(pages)
    en = text.filter(pc.equal(text.column("lang"), "en"))
    m["extract.us_per_page"] = spans.seconds["extract"] / n_pages * 1e6
    m["extract.pages_out_en"] = en.num_rows

    with spans("page_hash"):
        hashed = add_page_hash(en)
    m["page_hash.us_per_page"] = spans.seconds["page_hash"] / en.num_rows * 1e6

    shards = create_dedup_index(num_shards=4)
    ray.get([s.size.remote() for s in shards])     # actors up before timing
    dedup = DedupFilter(shards)
    with spans("dedup_index"):
        kept = pa.concat_tables([dedup(b) for b in
                                 _batches(hashed, DEDUP_BATCH)])
    m["dedup_index.us_per_page"] = \
        spans.seconds["dedup_index"] / hashed.num_rows * 1e6
    m["dedup_index.pages_dropped"] = hashed.num_rows - kept.num_rows
    m["dedup_index.entries"] = sum(ray.get([s.size.remote() for s in shards]))
    for s in shards:
        ray.kill(s)

    with spans("segment"):
        sents = segment_batch(kept)
    paras = [p for t in kept.column("text").to_pylist()
             for p in split_paragraphs(t)]
    m["segment.us_per_page"] = spans.seconds["segment"] / kept.num_rows * 1e6
    m["segment.sentences_out"] = sents.num_rows
    m["segment.para_repeat_ratio"] = 1 - len(set(paras)) / max(len(paras), 1)

    derivations = {}
    if not cold:
        d = pq.read_table(os.path.join(fixture_dir, "derivations.parquet"),
                          columns=["sent_hash", "ccgbank"])
        derivations = dict(zip(d.column("sent_hash").to_pylist(),
                               d.column("ccgbank").to_pylist()))
    replay = set(derivations)
    parser = ReplayParserActor(derivations, heuristic_fallback=not cold)
    with spans("parse"):
        parsed = pa.concat_tables([parser(b) for b in
                                   _batches(sents, PARSE_BATCH)])
    m["parse.us_per_sentence"] = spans.seconds["parse"] / sents.num_rows * 1e6

    # parse path of each distinct sentence, by calling each path in the
    # order ReplayParserActor tries them
    uniq = list(dict.fromkeys(sents.column("sentence").to_pylist()))
    paths = dict.fromkeys(("replay_hits", "heuristic_hits", "cky_calls",
                           "no_parse", "too_long"), 0)
    cky, cky_s = CkyParser(), 0.0
    for s in uniq:
        if s.count(" ") >= MAX_SENT_WORDS:
            paths["too_long"] += 1
        elif hashlib.md5(s.encode("utf-8")).hexdigest() in replay:
            paths["replay_hits"] += 1
        elif not cold and synthesize_derivation(s) is not None:
            paths["heuristic_hits"] += 1
        else:
            paths["cky_calls"] += 1
            t0 = time.perf_counter()
            d = cky.parse(s)
            cky_s += time.perf_counter() - t0
            if d is None:
                paths["no_parse"] += 1
    m["parse.unique_sentences"] = len(uniq)
    for k, v in paths.items():
        m["parse." + k] = v
    m["parse.cky_us_per_call"] = \
        cky_s / paths["cky_calls"] * 1e6 if paths["cky_calls"] else 0.0

    # compose + link, fused as the flagship runs them; link calls are
    # timed and counted on the stage object
    alias = load_alias_map(os.path.join(fixture_dir, "alias_table.parquet"))
    stage = ComposeActor(alias_map=alias)
    calls: dict = {}
    stage.composer.compose_ccgbank = _counted(
        stage.composer.compose_ccgbank, calls, "compose")
    stage._link = _counted(stage._link, calls, "link", timed=True)
    stage.linker._link_one = _counted(stage.linker._link_one, calls,
                                      "link_miss")
    with spans("compose_link"):
        out = pa.concat_tables([stage(b) for b in
                                _batches(parsed, PARSE_BATCH)])
    link_s = calls.get("link_s", 0.0)
    compose_s = spans.seconds["compose_link"] - link_s
    lookups = pc.sum(pc.equal(parsed.column("parse_error"), "")).as_py() or 0
    m["compose.us_per_sentence"] = compose_s / sents.num_rows * 1e6
    m["compose.us_per_unique_derivation"] = \
        compose_s / max(calls.get("compose", 0), 1) * 1e6
    m["compose.cache_hit_ratio"] = 1 - calls.get("compose", 0) / max(lookups, 1)
    m["link.us_per_mention"] = link_s / max(calls.get("link", 0), 1) * 1e6
    m["link.memo_hit_ratio"] = \
        1 - calls.get("link_miss", 0) / max(calls.get("link", 0), 1)
    good = out.filter(pc.is_in(out.column("kind"),
                               value_set=pa.array(["arg", "aka", "poss"])))
    ids = [x for c in ("subj_id", "obj_id")
           for x in good.column(c).to_pylist() if x is not None]
    m["link.linked_ratio"] = \
        sum(1 for x in ids if not x.startswith(("m:", "c:"))) / max(len(ids), 1)
    return m
