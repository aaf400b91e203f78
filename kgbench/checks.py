"""Output checks, computed apart from the engine.

``check_triples`` compares a triples table (the rows ``kg_triples`` emits,
or the ``triples/`` + ``quarantine/`` tables ``kg_full`` writes) with the
sentences the generator put on the pages and with its gold triples.
``check_graph`` re-derives the graph ``kg_full`` wrote: entity ids from the
alias table, a union-find over the ``aka`` pairs, and the Parquet footers
behind every manifest.

Every check returns a list of problems; an empty list means the output is
correct.  The self-tests in ``test_kgbench.py`` corrupt real outputs and
show that each check notices.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

from inputs import GOOD_KINDS, Corpus

ROW_COLS = ("url", "para_idx", "sent_idx", "sent_hash", "subj", "pred",
            "obj", "kind", "error")
_MAX_PROBLEMS = 20


@dataclass
class TripleReport:
    problems: List[str] = field(default_factory=list)
    pages_kept: int = 0
    sentences: int = 0
    good_rows: int = 0
    precision: float = 0.0
    recall: float = 0.0
    mismatched: int = 0          # distinct sentences whose set != gold
    probe_failed: int = 0        # of those, probe sentences

    def add(self, msg: str) -> None:
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(msg)
        elif len(self.problems) == _MAX_PROBLEMS:
            self.problems.append("... more problems")


def rows_by_sentence(tables: Iterable[pa.Table]):
    """(url, para_idx, sent_idx, sent_hash) -> [(subj, pred, obj, kind,
    error), ...] over every row of every table."""
    out: Dict[tuple, list] = {}
    for t in tables:
        if t.num_rows == 0:
            continue
        cols = [t.column(c).to_pylist() for c in ROW_COLS]
        for u, p, s, h, su, pr, ob, k, e in zip(*cols):
            out.setdefault((u, p, s, h), []).append((su, pr, ob, k, e))
    return out


def _unit(rows: list, m: int) -> Optional[Counter]:
    """The rows one occurrence of a sentence contributes, or None when the
    key's rows are not ``m`` whole copies of one occurrence."""
    c = Counter((su, pr, ob, k) for su, pr, ob, k, _ in rows)
    if any(v % m for v in c.values()):
        return None
    return Counter({t: v // m for t, v in c.items()})


def check_triples(corpus: Corpus, tables: Iterable[pa.Table],
                  exact_gold: bool, min_pr: float = 0.0,
                  empty_dropped: bool = False) -> TripleReport:
    """Pages kept, sentence conservation and triples against gold.

    ``exact_gold``: every sentence's arg/aka/poss set must equal gold (the
    replay path).  Otherwise only probe sentences are held to gold, each
    mismatch counted in ``probe_failed``, and precision and recall over
    distinct sentences must reach ``min_pr``.  ``empty_dropped``: the
    tables are ``kg_full``'s written outputs, which leave out ``empty``
    rows, so a sentence with no row counts as empty."""
    rep = TripleReport()
    out = rows_by_sentence(tables)
    present = any if empty_dropped else all

    # pages: each distinct (lang, text) keeps exactly one of its urls
    expected: Counter = Counter()
    for (_, _), pages in corpus.text_groups.items():
        kept = [p for p in pages
                if present((p.url, pi, si, h) in out
                           for pi, si, h in p.sentences)]
        if not kept:
            rep.add("page text of %s lost" % pages[0].url)
            continue
        if len({p.url for p in kept}) > 1:
            rep.add("duplicate pages kept: %s" % sorted({p.url for p in kept}))
        p = kept[0]
        rep.pages_kept += 1
        for pi, si, h in p.sentences:
            expected[(p.url, pi, si, h)] += 1
    extra = set(out) - set(expected)
    for key in sorted(extra)[:3]:
        rep.add("unexpected sentence row %s" % (key,))
    if extra:
        rep.add("%d unexpected sentence keys" % len(extra))

    # sentences: each occurrence once, as triples, one empty or one
    # quarantine row; repeated sentences compose identically
    units: Dict[str, Counter] = {}
    for key, m in expected.items():
        rows = out.get(key, [])
        rep.sentences += m
        h = key[3]
        kinds = {r[3] for r in rows}
        if kinds & {"empty", "quarantine"}:
            if len(kinds) > 1 or len(rows) != m:
                rep.add("sentence %s: %d rows of kinds %s for %d occurrence(s)"
                        % (key, len(rows), sorted(kinds), m))
                continue
        if h in corpus.too_long and (
                kinds != {"quarantine"} or rows[0][4] != "too_long"):
            rep.add("over-long sentence %s not quarantined as too_long"
                    % (key,))
        unit = _unit(rows, m)
        if unit is None:
            rep.add("sentence %s: rows are not %d whole copies" % (key, m))
            continue
        prev = units.setdefault(h, unit)
        if prev != unit:
            rep.add("sentence %s composed differently at %s"
                    % (h, key))
        rep.good_rows += sum(v for t, v in unit.items()
                             if t[3] in GOOD_KINDS) * m

    # triples: each distinct sentence's arg/aka/poss set against gold
    produced: Set[tuple] = set()
    gold_seen: Set[tuple] = set()
    for h, unit in units.items():
        if h in corpus.too_long:
            continue
        got = {t for t in unit if t[3] in GOOD_KINDS}
        want = corpus.gold.get(h, set())
        produced |= {(h,) + t for t in got}
        gold_seen |= {(h,) + t for t in want}
        if got != want:
            rep.mismatched += 1
            if h in corpus.probe_hashes:
                rep.probe_failed += 1
            elif exact_gold:
                rep.add("sentence %s: triples %s, gold %s"
                        % (h, sorted(got, key=str), sorted(want, key=str)))
    matched = len(produced & gold_seen)
    rep.precision = matched / max(len(produced), 1)
    rep.recall = matched / max(len(gold_seen), 1)
    if rep.precision < min_pr or rep.recall < min_pr:
        rep.add("precision %.4f / recall %.4f below %.2f"
                % (rep.precision, rep.recall, min_pr))
    return rep


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def load_alias(path: str) -> Dict[str, tuple]:
    """alias -> (entity_id, prior, title), highest prior per alias."""
    t = pq.read_table(path, columns=["alias", "entity_id", "prior", "title"])
    out: Dict[str, tuple] = {}
    for a, e, p, ti in zip(*(t.column(c).to_pylist() for c in
                             ("alias", "entity_id", "prior", "title"))):
        if a not in out or p > out[a][1]:
            out[a] = (e, p, ti)
    return out


def link_id(label: Optional[str], alias: Dict[str, tuple]) -> Optional[str]:
    """The entity id the engine's documented linking rule gives a mention:
    alias-table hit, else a surname candidate whose title shares a
    >= 0.7 prefix or the head word, else a surface id (``m:`` for proper
    mentions, ``c:`` for common ones)."""
    if not label:
        return None
    m = label.replace("-", " ").strip().lower()
    hit = alias.get(m)
    if hit is not None:
        return hit[0]
    if not label[0].isupper():
        return "c:" + m
    head = m.split()[-1] if m else ""
    cand = alias.get(head)
    if cand is not None:
        title = (cand[2] or "").lower()
        n = 0
        while n < min(len(m), len(title)) and m[n] == title[n]:
            n += 1
        if n / max(len(m), len(title), 1) >= 0.7 or \
                (title and title.split()[-1] == head):
            return cand[0]
    return "m:" + hashlib.md5(m.encode()).hexdigest()[:12]


class UnionFind:
    def __init__(self):
        self.parent: Dict[str, str] = {}

    def find(self, x: str) -> str:
        root = self.parent.setdefault(x, x)
        while root != self.parent[root]:
            root = self.parent[root]
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # the smaller id becomes the root: the component's canonical id
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def read_dir(path: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                             recursive=True))
    tables = [pq.read_table(f) for f in files]
    tables = [t for t in tables if t.num_columns]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


@dataclass
class GraphReport:
    problems: List[str] = field(default_factory=list)
    nodes: int = 0
    edges: int = 0
    components: int = 0
    bytes_written: int = 0


def check_graph(out_dir: str, alias_path: str,
                triples: Optional[pa.Table] = None,
                edges: Optional[pa.Table] = None) -> GraphReport:
    """Edges, nodes, canonical ids and manifests of a ``kg_full`` output.
    ``triples`` / ``edges`` override what is read from ``out_dir``."""
    rep = GraphReport()
    if triples is None:
        triples = read_dir(os.path.join(out_dir, "triples"))
    if edges is None:
        edges = read_dir(os.path.join(out_dir, "edges"))
    nodes = read_dir(os.path.join(out_dir, "nodes"))
    alias = load_alias(alias_path)

    cols = {c: triples.column(c).to_pylist() for c in
            ("subj", "obj", "kind", "subj_id", "obj_id")}
    uf = UnionFind()
    pre_ids: List[Tuple[Optional[str], Optional[str]]] = []
    both = 0
    for s, o, k, sid, oid in zip(*(cols[c] for c in
                                   ("subj", "obj", "kind", "subj_id",
                                    "obj_id"))):
        ps, po = link_id(s, alias), link_id(o, alias)
        pre_ids.append((ps, po))
        for x in (ps, po):
            if x is not None:
                uf.find(x)
        if k == "aka" and ps is not None and po is not None:
            uf.union(ps, po)
        if k in GOOD_KINDS and sid is not None and oid is not None:
            both += 1
    rep.components = len({uf.find(x) for x in list(uf.parent)})

    # edges: sum of n equals the good triples that have both ids
    n_sum = sum(edges.column("n").to_pylist()) if edges.num_rows else 0
    rep.edges = edges.num_rows
    if n_sum != both:
        rep.problems.append("edges: sum(n) = %d, good triples with both "
                            "ids = %d" % (n_sum, both))
    # nodes: one per union-find component
    rep.nodes = nodes.num_rows
    if rep.nodes != rep.components:
        rep.problems.append("nodes: %d rows, %d union-find components"
                            % (rep.nodes, rep.components))
    # canonical ids: component minimum; aka endpoints share it
    bad = 0
    for (ps, po), k, sid, oid in zip(pre_ids, cols["kind"], cols["subj_id"],
                                     cols["obj_id"]):
        want_s = uf.find(ps) if ps is not None else None
        want_o = uf.find(po) if po is not None else None
        if k == "aka" and sid != oid:
            rep.problems.append("aka endpoints %s / %s differ" % (sid, oid))
            bad += 1
        elif (sid, oid) != (want_s, want_o):
            rep.problems.append("canonical ids %s / %s, expected %s / %s"
                                % (sid, oid, want_s, want_o))
            bad += 1
        if bad >= 3:
            break
    # manifests: rows equal the Parquet footers they describe
    n_man = 0
    for mp in sorted(glob.glob(os.path.join(out_dir, "manifests",
                                            "*-*.json"))):
        with open(mp) as f:
            man = json.load(f)
        table, part = man["partition"].split("-", 1)
        files = glob.glob(os.path.join(out_dir, table, "part=%s" % part,
                                       "*.parquet"))
        rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        n_man += 1
        if rows != man["rows"]:
            rep.problems.append("manifest %s: rows %d, footers %d"
                                % (os.path.basename(mp), man["rows"], rows))
    if n_man == 0:
        rep.problems.append("no manifests written")
    for sub in ("nodes", "edges", "manifests"):
        for f in glob.glob(os.path.join(out_dir, sub, "**", "*"),
                           recursive=True):
            if os.path.isfile(f):
                rep.bytes_written += os.path.getsize(f)
    return rep
