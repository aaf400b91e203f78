"""Benchmark inputs: the generated page tables and what the checks expect.

Pages come from the engine's own fixture generator,
``ie_ray.sources.pages.write_fixture_tables(out_dir, n_pages, pool_size,
seed)``, called in the benchmark process before Ray starts.  The engine is
handed only the written directory.

The expected output is derived here from the generator's side of the
contract, not from the engine's stages: a page's ``text`` is its
paragraphs joined by ``\\n`` and each paragraph is pool sentences joined by
one space, so splitting the text back and checking every piece against the
pool recovers the sentences a correct engine must emit.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

from ie_ray.sources.pages import golden_sentences, sent_key, write_fixture_tables

MAX_SENT_WORDS = 250      # parser cap the engine documents (stages/segment.py)
GOOD_KINDS = ("arg", "aka", "poss")

# cold-20k adds fixed probe pages whose content does not depend on --seed:
# the known cold-parser mismatches on them are counted as failed operations
PROBE_SEED = 20260817
PROBE_POOL = 160
PROBE_SENTS_PER_PARA = 4
PROBE_PARAS_PER_PAGE = 2
PROBE_URL = "https://probe.example.org/cold/%03d"

_SENT_SPLIT = re.compile(r"(?<=[.?!]) (?=\S)")

Triple = Tuple[Optional[str], Optional[str], Optional[str], str]


@dataclass
class Page:
    url: str
    lang: str
    text: str
    # (para_idx, sent_idx, sent_hash) in emission order
    sentences: List[Tuple[int, int, str]] = field(default_factory=list)


@dataclass
class Corpus:
    """One generated input directory plus what a correct run emits."""
    fixture_dir: str
    n_pages: int                      # every row the engine reads
    en_pages: List[Page]
    gold: Dict[str, Set[Triple]]      # sent_hash -> arg/aka/poss set
    too_long: Set[str]                # sent_hashes over the word cap
    probe_hashes: Set[str]            # cold probe sentences (may be empty)
    unique_sentence_ratio: float
    dup_share: float                  # en rows whose text repeats an earlier row

    @property
    def text_groups(self) -> Dict[Tuple[str, str], List[Page]]:
        groups: Dict[Tuple[str, str], List[Page]] = {}
        for p in self.en_pages:
            groups.setdefault((p.lang, p.text), []).append(p)
        return groups


def _probe_pages(pool: List[dict]) -> List[dict]:
    per_page = PROBE_SENTS_PER_PARA * PROBE_PARAS_PER_PAGE
    texts = []
    seen = set()
    for s in pool:
        if s["sentence"] not in seen:
            seen.add(s["sentence"])
            texts.append(s["sentence"])
    rows = []
    for k in range(0, len(texts), per_page):
        chunk = texts[k:k + per_page]
        paras = [" ".join(chunk[j:j + PROBE_SENTS_PER_PARA])
                 for j in range(0, len(chunk), PROBE_SENTS_PER_PARA)]
        body = "".join("<p>%s</p>" % p for p in paras)
        html = ("<html><head><title>probe</title></head><body>"
                "<span id=\"article-text\">%s</span></body></html>" % body)
        rows.append({"url": PROBE_URL % (k // per_page),
                     "html": html.encode("utf-8"),
                     "text": "\n".join(paras), "lang": "en"})
    return rows


def _write_probe(fixture_dir: str, pool: List[dict]) -> None:
    rows = _probe_pages(pool)
    schema = pq.read_schema(os.path.join(fixture_dir, "pages",
                                         "part-00000.parquet"))
    n = len(rows)
    table = pa.table({
        "url": [r["url"] for r in rows],
        "warc_ts": pa.array([1484000000_000000] * n, type=pa.timestamp("us")),
        "html": pa.array([r["html"] for r in rows], type=pa.binary()),
        "text": [r["text"] for r in rows],
        "lang": [r["lang"] for r in rows],
    }).cast(schema)
    pq.write_table(table, os.path.join(fixture_dir, "pages",
                                       "part-probe.parquet"))


def split_page(text: str) -> List[Tuple[int, int, str]]:
    """(para_idx, sent_idx, raw sentence) by the generator's joins."""
    out = []
    paras = [p.strip() for p in text.split("\n") if p.strip()]
    for pi, para in enumerate(paras):
        for si, s in enumerate(_SENT_SPLIT.split(para)):
            out.append((pi, si, s))
    return out


def build(fixture_dir: str, n_pages: int, pool_size: int, seed: int,
          probe: bool = False) -> Corpus:
    """Write the inputs for one workload and derive the expected output."""
    write_fixture_tables(fixture_dir, n_pages=n_pages, pool_size=pool_size,
                         seed=seed)
    known = set(pq.read_table(os.path.join(fixture_dir, "derivations.parquet"),
                              columns=["sentence"]).column("sentence")
                .to_pylist())
    probe_pool: List[dict] = []
    if probe:
        probe_pool = golden_sentences(PROBE_POOL, PROBE_SEED)
        _write_probe(fixture_dir, probe_pool)
        known |= {s["sentence"] for s in probe_pool}

    gold: Dict[str, Set[Triple]] = {}
    g = pq.read_table(os.path.join(fixture_dir, "golden_triples.parquet"))
    for h, s, p, o, k in zip(*(g.column(c).to_pylist() for c in
                               ("sent_hash", "subj", "pred", "obj", "kind"))):
        gold.setdefault(h, set()).add((s, p, o, k))
    probe_hashes: Set[str] = set()
    for s in probe_pool:
        h = sent_key(s["sentence"])
        probe_hashes.add(h)
        trip = {tuple(t) for t in s["triples"] if t[3] in GOOD_KINDS}
        if h in gold and gold[h] != trip:
            raise RuntimeError("probe sentence %r has two gold sets"
                               % s["sentence"])
        gold[h] = trip

    pages = pq.read_table(os.path.join(fixture_dir, "pages"),
                          columns=["url", "text", "lang"])
    hashes: Dict[str, str] = {}
    too_long: Set[str] = set()
    en_pages: List[Page] = []
    for url, text, lang in zip(*(pages.column(c).to_pylist()
                                 for c in ("url", "text", "lang"))):
        if lang != "en":
            continue
        page = Page(url, lang, text)
        for pi, si, s in split_page(text):
            h = hashes.get(s)
            if h is None:
                long_ = s.count(" ") >= MAX_SENT_WORDS
                if s not in known and not long_:
                    raise RuntimeError("page %s: %r is not a pool sentence"
                                       % (url, s))
                h = hashes[s] = sent_key(s)
                if long_:
                    too_long.add(h)
            page.sentences.append((pi, si, h))
        en_pages.append(page)

    all_sents = [h for p in en_pages for _, _, h in p.sentences]
    texts = [p.text for p in en_pages]
    return Corpus(
        fixture_dir=fixture_dir,
        n_pages=pages.num_rows,
        en_pages=en_pages,
        gold=gold,
        too_long=too_long,
        probe_hashes=probe_hashes,
        unique_sentence_ratio=len(set(all_sents)) / max(len(all_sents), 1),
        dup_share=1 - len(set(texts)) / max(len(texts), 1),
    )
