"""Text-analysis operators: token counting, quality scoring, language ID,
document fingerprinting.  All vectorizable per-batch maps over the
``documents`` table; formulas chosen to be SQL-expressible where possible so
the DuckDB oracle can verify them value-for-value.
"""

from __future__ import annotations

import hashlib
import re

import pyarrow as pa

_PUNCT_RE = re.compile(r"[.,;:!?]")
_BPEISH_RE = re.compile(r"\w+|[^\w\s]")

# A-Z → a-z only (see quality_batch: parity with the ASCII SQL oracle)
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                             "abcdefghijklmnopqrstuvwxyz")

_STOPWORDS_EN = {"the", "a", "an", "and", "or", "of", "to", "in", "is", "are",
                 "was", "were", "it", "that", "this", "with", "for", "on",
                 "as", "at", "by", "be", "has", "have", "not", "but"}
_STOP_DE = {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine",
            "zu", "den", "von", "im", "auf", "für", "des", "dem", "sich"}
_STOP_FR = {"le", "la", "les", "et", "est", "pas", "avec", "un", "une", "de",
            "du", "des", "dans", "pour", "que", "qui", "sur", "au"}


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Whitespace tokens (= DuckDB regexp_split_to_array(trim(text),'\\s+'))
    and a BPE-ish regex token count (words + punctuation marks)."""
    texts = batch.column("text").to_pylist()
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens": pa.array([len(t.split()) for t in texts], type=pa.int64()),
        "n_bpeish": pa.array([len(_BPEISH_RE.findall(t)) for t in texts],
                             type=pa.int64()),
    })


_UPPER = list("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LOWER = list("abcdefghijklmnopqrstuvwxyz")


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality signals: char/punct/stopword/upper counts.

    Every column is reproducible in ANSI SQL (length/regexp) so the oracle
    check is exact.  Vectorized in polars; case folding is ASCII-only
    (replace_many A-Z→a-z, count_matches [A-Z]) because the SQL oracle
    counts [A-Z] and compares ASCII stopwords — Unicode isupper()/lower()
    (which match 'É', 'ß', KELVIN SIGN, …) would break parity on
    non-ASCII corpora."""
    import polars as pl
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    # tokens = \S+ runs, matching Python str.split() ('' → 0 tokens)
    out = df.select(
        pl.col("doc_id"),
        pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
        pl.col("text").str.count_matches(r"[.,;:!?]")
          .cast(pl.Int64).alias("n_punct"),
        pl.col("text").str.extract_all(r"\S+").alias("toks"),
        pl.col("text").str.count_matches("[A-Z]")
          .cast(pl.Int64).alias("n_upper"),
    ).with_columns(
        pl.col("toks").list.len().cast(pl.Int64).alias("n_tokens"),
        pl.col("toks").list.eval(
            pl.element().str.replace_many(_UPPER, _LOWER)
              .is_in(sorted(_STOPWORDS_EN))).list.sum()
          .fill_null(0).cast(pl.Int64).alias("n_stopwords"),
    ).select(["doc_id", "n_chars", "n_punct", "n_tokens",
              "n_stopwords", "n_upper"])
    return out.to_arrow()


def _sql_list(words) -> str:
    return "[" + ",".join("'%s'" % w for w in sorted(words)) + "]"


def langid_sql() -> str:
    """Exact SQL for langid_batch: same stopword overlaps, same
    (-count, lang) tie-break (de < en < fr), same score ratio."""
    en, de, fr = (_sql_list(_STOPWORDS_EN), _sql_list(_STOP_DE),
                  _sql_list(_STOP_FR))
    return (
        "WITH t AS (SELECT doc_id, list_distinct(list_transform("
        "CASE WHEN trim(text) = '' THEN [] ELSE "
        "regexp_split_to_array(trim(text), '\\s+') END, x -> lower(x))) "
        "AS ws FROM documents), "
        "c AS (SELECT doc_id, len(list_intersect(ws, %s)) AS en, "
        "len(list_intersect(ws, %s)) AS de, "
        "len(list_intersect(ws, %s)) AS fr FROM t) "
        "SELECT doc_id, "
        "CASE WHEN greatest(en, de, fr) = 0 THEN 'und' "
        "WHEN de >= en AND de >= fr THEN 'de' "
        "WHEN en >= fr THEN 'en' ELSE 'fr' END AS lang_pred, "
        "round(greatest(en, de, fr)::DOUBLE / "
        "greatest(en + de + fr, 1), 6) AS lang_score FROM c"
        % (en, de, fr))


def langid_batch(batch: pa.Table) -> pa.Table:
    """Stopword-overlap language ID (en/de/fr heuristic), exactly
    reproducible in SQL (langid_sql) — the rebuild's F4-adjacent
    classifier."""
    texts = batch.column("text").to_pylist()
    preds, scores = [], []
    for t in texts:
        words = set(w.lower() for w in t.split())
        cand = [("en", len(words & _STOPWORDS_EN)),
                ("de", len(words & _STOP_DE)),
                ("fr", len(words & _STOP_FR))]
        cand.sort(key=lambda x: (-x[1], x[0]))
        total = sum(c for _, c in cand) or 1
        preds.append(cand[0][0] if cand[0][1] > 0 else "und")
        scores.append(round(cand[0][1] / total, 6))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "lang_pred": pa.array(preds, type=pa.string()),
        "lang_score": pa.array(scores, type=pa.float64()),
    })


def fingerprint_batch(batch: pa.Table, w: int = 8) -> pa.Table:
    """Winnowing-style document fingerprint: min rolling hash per window of
    word 4-grams + full md5.  Deterministic; used for fuzzy provenance.

    Canonicalization is SQL-reproducible end-to-end (see
    FINGERPRINT_SQL): gram hash = first 16 md5 hex chars as a big-endian
    int, selected window minima sorted/deduped and comma-joined in
    decimal, digest = md5 of that string."""
    texts = batch.column("text").to_pylist()
    fps, md5s = [], []
    for t in texts:
        words = t.lower().split()
        grams = [" ".join(words[i:i + 4]) for i in range(max(len(words) - 3, 0))]
        hs = [int(hashlib.md5(g.encode()).hexdigest()[:16], 16)
              for g in grams]
        sel = []
        for i in range(max(len(hs) - w + 1, 0)):
            sel.append(min(hs[i:i + w]))
        if not sel and hs:
            sel = [min(hs)]
        digest = hashlib.md5(",".join(
            str(x) for x in sorted(set(sel))).encode()).hexdigest() \
            if sel else ""
        fps.append(digest)
        md5s.append(hashlib.md5(t.encode("utf-8")).hexdigest())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "fingerprint": pa.array(fps, type=pa.string()),
        "text_md5": pa.array(md5s, type=pa.string()),
    })


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals (Rae et al. 2021, Table A1 family):
    duplicate-word fraction, top-word fraction and duplicate-2-gram
    fraction per document — the standard repetition filters an LLM
    training pipeline runs before dedup.

    Vectorized end-to-end in polars (explode + per-doc window shift +
    two group_bys — Rust kernels, no Python row loop).  Every column is
    an integer ratio computed with the same IEEE double division as
    REPETITION_SQL, so the DuckDB oracle is value-exact.
    """
    import polars as pl
    df = pl.from_arrow(batch.select(["doc_id", "text"]))
    e = (df.with_columns(pl.col("text").str.split(" ").alias("w"))
           .drop("text")
           .explode("w"))
    words = e.group_by("doc_id").agg(
        pl.len().alias("n_words"),
        pl.col("w").n_unique().alias("n_uniq"))
    top = (e.group_by(["doc_id", "w"]).len()
            .group_by("doc_id").agg(pl.col("len").max().alias("top_count")))
    grams = (e.with_columns(pl.col("w").shift(-1).over("doc_id")
                            .alias("nxt"))
              .drop_nulls("nxt")
              .with_columns((pl.col("w") + " " + pl.col("nxt")).alias("g"))
              .group_by("doc_id").agg(
                  pl.len().alias("n2"),
                  pl.col("g").n_unique().alias("nu2")))
    out = (words.join(top, on="doc_id")
                .join(grams, on="doc_id", how="left")
                .with_columns(pl.col("n2").fill_null(0),
                              pl.col("nu2").fill_null(0))
                .with_columns(
        pl.col("n_words").cast(pl.Int64),
        ((pl.col("n_words") - pl.col("n_uniq")).cast(pl.Float64)
         / pl.col("n_words")).alias("dup_word_frac"),
        (pl.col("top_count").cast(pl.Float64)
         / pl.col("n_words")).alias("top_word_frac"),
        pl.when(pl.col("n2") == 0).then(0.0)
          .otherwise((pl.col("n2") - pl.col("nu2")).cast(pl.Float64)
                     / pl.col("n2")).alias("dup_2gram_frac"))
        .select(["doc_id", "n_words", "dup_word_frac", "top_word_frac",
                 "dup_2gram_frac"]))
    return out.to_arrow()


# Exact SQL mirror of repetition_batch.  `list_aggregate(l, 'mode')` is
# tie-arbitrary, but the *count* of the mode value is tie-invariant, which
# is all top_word_frac uses.  range(1, len(l)) is end-exclusive and lists
# are 1-indexed, so the transform emits exactly len(l)-1 2-grams.
REPETITION_SQL = (
    "WITH t AS (SELECT doc_id, string_split(text, ' ') AS l "
    "FROM documents), "
    "g AS (SELECT doc_id, l, CASE WHEN len(l) < 2 THEN [] ELSE "
    "list_transform(range(1, len(l)), i -> l[i] || ' ' || l[i+1]) END "
    "AS gs FROM t) "
    "SELECT doc_id, len(l)::BIGINT AS n_words, "
    "(len(l) - len(list_distinct(l)))::DOUBLE / len(l) AS dup_word_frac, "
    "len(list_filter(l, x -> x = list_aggregate(l, 'mode')))::DOUBLE "
    "/ len(l) AS top_word_frac, "
    "CASE WHEN len(gs) = 0 THEN 0.0 ELSE "
    "(len(gs) - len(list_distinct(gs)))::DOUBLE / len(gs) END "
    "AS dup_2gram_frac FROM g")


FINGERPRINT_SQL = (
    "WITH w AS (SELECT doc_id, text, regexp_split_to_array(trim(lower(text)),"
    " '\\s+') AS words FROM documents), "
    "g AS (SELECT doc_id, text, CASE WHEN trim(text) = '' THEN [] ELSE "
    "list_transform(range(1, greatest(len(words)-2, 1)), i -> "
    "array_to_string(words[i:i+3], ' ')) END AS grams FROM w), "
    "h AS (SELECT doc_id, text, list_transform(grams, g -> "
    "('0x' || substr(md5(g), 1, 16))::UBIGINT) AS hs FROM g), "
    "sel AS (SELECT doc_id, text, CASE WHEN len(hs) = 0 THEN [] "
    "WHEN len(hs) <= 7 THEN [list_min(hs)] ELSE "
    "list_transform(range(1, len(hs)-6), i -> list_min(hs[i:i+7])) END "
    "AS mins FROM h) "
    "SELECT doc_id, CASE WHEN len(mins) = 0 THEN '' ELSE "
    "md5(array_to_string(list_sort(list_distinct(mins)), ',')) END "
    "AS fingerprint, md5(text) AS text_md5 FROM sel")


def source_kl(docs):
    """Per-source word-distribution drift: ``KL(P_source || P_corpus)
    = Σ_w p_s(w)·ln(p_s(w)/p(w))`` over whitespace tokens — the
    corpus-monitoring statistic a curation pipeline tracks to catch a
    crawler source going off-distribution (spam bursts, template
    floods, language drift).

    Shape: block-local (source, word) counts → ONE bucketed exchange
    on the pair key (sources × vocabulary — the only corpus-scale
    reduce, materialized once since it feeds three consumers); word
    totals stay a Dataset and hash-join back; source totals and the
    grand total are driver-bounded scalars.  The per-term double
    formula matches the DuckDB oracle operation-for-operation and the
    per-source sum rounds to 4 dp (absorbing shuffle-order float
    association, same convention as the logprob family).
    """
    import polars as pl
    from ie_ray.stages.dedup import _join_partitions
    from ie_ray.stages.relational import (bucketed_aggregate,
                                          lowcard_aggregate)

    def partial(b: pa.Table) -> pa.Table:
        df = pl.from_arrow(b.select(["source", "text"]))
        e = (df.with_columns(pl.col("text").str.split(" ").alias("w"))
             .drop("text").explode("w").drop_nulls("w"))
        g = e.group_by(["source", "w"]).agg(
            pl.len().cast(pl.Int64).alias("c"))
        out = g.rename({"w": "word"}).to_arrow()
        return out.cast(pa.schema([
            pa.field(f.name, pa.string() if f.type == pa.large_string()
                     else f.type) for f in out.schema]))

    sw = (bucketed_aggregate(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["source", "word"], [("c", "sum")])
        .map_batches(lambda t: pa.table({
            "source": t.column("source"), "word": t.column("word"),
            "c": t.column("c_sum").cast(pa.int64())}),
            batch_format="pyarrow")).materialize()

    cw = (bucketed_aggregate(sw.select_columns(["word", "c"]), "word",
                             [("c", "sum")])
          .map_batches(lambda t: pa.table({
              "word": t.column("word"),
              "cw": t.column("c_sum").cast(pa.int64())}),
              batch_format="pyarrow"))

    ns: dict = {}
    n_total = 0
    for blk in sw.iter_batches(batch_format="pyarrow"):
        if blk.num_rows == 0 or "source" not in blk.column_names:
            continue
        g = blk.group_by("source").aggregate([("c", "sum")])
        for s, c in zip(g.column("source").to_pylist(),
                        g.column("c_sum").to_pylist()):
            ns[s] = ns.get(s, 0) + c
            n_total += c

    joined = sw.join(cw, "inner", num_partitions=_join_partitions(),
                     on=("word",))

    def contrib(t: pa.Table) -> pa.Table:
        import numpy as np
        src = t.column("source").to_pylist()
        c = np.asarray(t.column("c"), dtype=np.float64)
        cwv = np.asarray(t.column("cw"), dtype=np.float64)
        nsv = np.fromiter((ns[s] for s in src), dtype=np.float64,
                          count=len(src))
        ps = c / nsv
        term = ps * np.log(ps / (cwv / float(n_total)))
        return pa.table({"source": t.column("source"),
                         "kl": pa.array(term, type=pa.float64())})

    def finish(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "source": g.column("source"),
            "kl": pc.round(g.column("kl_sum"), 4,
                           round_mode="half_towards_infinity")})

    return lowcard_aggregate(
        joined.map_batches(contrib, batch_format="pyarrow"), "source",
        [("kl", "sum")], finish)


SOURCE_KL_SQL = (
    "WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS word "
    "FROM documents), "
    "sw AS (SELECT source, word, count(*)::DOUBLE AS c FROM tok "
    "GROUP BY 1, 2), "
    "w AS (SELECT word, count(*)::DOUBLE AS cw FROM tok GROUP BY 1), "
    "s AS (SELECT source, count(*)::DOUBLE AS ns FROM tok GROUP BY 1), "
    "t AS (SELECT count(*)::DOUBLE AS n FROM tok) "
    "SELECT sw.source, round(sum((sw.c / s.ns) * "
    "ln((sw.c / s.ns) / (w.cw / t.n))), 4) AS kl "
    "FROM sw JOIN w USING (word) JOIN s ON s.source = sw.source "
    "CROSS JOIN t GROUP BY sw.source ORDER BY sw.source")
