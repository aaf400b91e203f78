"""Stateless page-level stages: HTML→text extraction, language filter,
content hashing, exact dedup.

All operate on ``batch_format="pyarrow"`` batches.  Parity: scrape S2
(``newsfeed/reuters.py:59-77``), language filter F4
(``newsfeed/scraper.py:167,184-186``), content-hash dedup A5
(``newsfeed/scraper.py:150-192``, probe ``aws/__init__.py:115-122``).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from ..sources.html import extract_text


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """html:binary → text:string (byte-identical per url invariant)."""
    texts = [extract_text(h) for h in batch.column("html").to_pylist()]
    cols = {name: batch.column(name) for name in batch.column_names
            if name not in ("html", "text")}
    cols["text"] = pa.array(texts, type=pa.string())
    return pa.table(cols)


def verify_extraction_batch(batch: pa.Table) -> pa.Table:
    """Check the byte-identity invariant against a provided text column."""
    got = [extract_text(h) for h in batch.column("html").to_pylist()]
    want = batch.column("text").to_pylist()
    return pa.table({
        "url": batch.column("url"),
        "identical": pa.array([g == w for g, w in zip(got, want)]),
    })


def filter_lang(ds, lang: str = "en"):
    """Column-pruned language filter (runs as an Arrow-native filter)."""
    return ds.filter(expr=f"lang == '{lang}'")


def add_page_hash(batch: pa.Table) -> pa.Table:
    """MD5 over (lang, text) — the dedup key.

    The reference hashes language, domain, name and article text
    (``newsfeed/scraper.py:150-192``); here the url — domain included —
    is left out, so syndicated copies on different urls and domains
    collide.
    """
    langs = batch.column("lang").to_pylist()
    texts = batch.column("text").to_pylist()
    hashes = []
    for lang, text in zip(langs, texts):
        h = hashlib.md5()
        h.update(lang.encode("utf-8"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        hashes.append(h.hexdigest())
    return batch.append_column("page_hash", pa.array(hashes, type=pa.string()))

