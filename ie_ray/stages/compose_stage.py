"""Compose stage: CCG derivation → DRS conditions → (subj, pred, obj) rows.

``ParseComposeActor`` runs parse, compose and link as the last step of
the flagship's fused page task; each worker process keeps one
``Composer`` (inside ``ComposeActor``) per run, so the reference's
per-process MODEL/category caches (T2/T3 in SURVEY.md §2.3) become
per-process state.  Emits one row per triple with full provenance;
compose failures become quarantine rows (error column), never exceptions.

Parity: process_ccg_pt (``ie/semantics/ccg.py:1998-2024``) and the triple
distillation of FIXTURES.md §5.
"""

from __future__ import annotations

from collections import OrderedDict

import pyarrow as pa

from ..semantics.engine import Composer
from .parse import ReplayParserActor

TRIPLE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("para_idx", pa.int32()),
    ("sent_idx", pa.int32()),
    ("sent_hash", pa.string()),
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("kind", pa.string()),
    ("error", pa.string()),
])


class ComposeActor:
    """Per-instance state: the Composer plus an LRU of composed results keyed by
    the derivation string — web corpora repeat sentences heavily (titles,
    boilerplate), and composition is deterministic, so caching is exact.
    (Parity: the reference's per-process template/category caches, T2/T3.)
    """

    _CACHE_MAX = 65536

    def __init__(self, alias_map=None):
        """``alias_map`` (broadcast dict or ObjectRef) fuses entity linking
        into this stage — one less 9M-row hop through the object store;
        the standalone LinkActor remains for pipelines that link later."""
        self.composer = Composer()
        self.linker = None
        if alias_map is not None:
            from .link import LinkActor
            self.linker = LinkActor(alias_map)
            self._link_memo = {}
        self._cache = OrderedDict()

    def _link(self, label):
        hit = self._link_memo.get(label)
        if hit is None and label not in self._link_memo:
            hit = self.linker._link_one(label)
            if len(self._link_memo) > 500_000:
                self._link_memo.clear()
            self._link_memo[label] = hit
        return hit

    def _compose(self, derivation: str):
        """Composed + linked COLUMN FRAGMENTS for one derivation.

        Web corpora repeat sentences heavily and composition/linking is
        deterministic per derivation, so the cache stores the finished
        per-triple column lists — a repeated sentence costs one dict hit
        plus C-speed ``list.extend`` per column, not len(triples) Python
        appends (the warm path is ~85%% of flagship CPU; this cut its
        row-assembly term ~4×).  Returns (k, subjs, preds, objs, kinds,
        subj_ids, obj_ids, err_tag); k == 0 ⇒ empty-parse row.
        """
        hit = self._cache.get(derivation)
        if hit is not None:
            self._cache.move_to_end(derivation)
            return hit
        sem = self.composer.compose_ccgbank(derivation)
        # quarantine-tag unknown-irregular stems (lemmatizer kept the
        # surface form; VERDICT r2 item 6) — soft tag, rows still emit
        unsure = ",".join(sorted({t.word for t in sem.tokens
                                  if getattr(t, "stem_unsure", False)}))
        err_tag = ("stem_unsure:" + unsure) if unsure else ""
        triples = sem.triples()
        subjs = [t["subj"] for t in triples]
        preds = [t["pred"] for t in triples]
        objs = [t["obj"] for t in triples]
        kinds = [t["kind"] for t in triples]
        if self.linker is not None:
            subj_ids = [self._link(s) for s in subjs]
            obj_ids = [self._link(o) for o in objs]
        else:
            subj_ids = obj_ids = None
        result = (len(triples), subjs, preds, objs, kinds,
                  subj_ids, obj_ids, err_tag)
        self._cache[derivation] = result
        if len(self._cache) > self._CACHE_MAX:
            self._cache.popitem(last=False)
        return result

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        paras = batch.column("para_idx").to_pylist()
        sents = batch.column("sent_idx").to_pylist()
        hashes = batch.column("sent_hash").to_pylist()
        derivs = batch.column("ccgbank").to_pylist()
        perrs = batch.column("parse_error").to_pylist()

        link = self.linker is not None
        cols = {n: [] for n in TRIPLE_SCHEMA.names}
        if link:
            cols["subj_id"] = []
            cols["obj_id"] = []

        def emit_one(u, p, s, h, kind, err):
            cols["url"].append(u)
            cols["para_idx"].append(p)
            cols["sent_idx"].append(s)
            cols["sent_hash"].append(h)
            cols["subj"].append(None)
            cols["pred"].append(None)
            cols["obj"].append(None)
            cols["kind"].append(kind)
            cols["error"].append(err)
            if link:
                cols["subj_id"].append(None)
                cols["obj_id"].append(None)

        for u, p, s, h, d, perr in zip(urls, paras, sents, hashes, derivs,
                                       perrs):
            if perr:
                emit_one(u, p, s, h, "quarantine", perr)
                continue
            try:
                (k, subjs, preds, objs, kinds, subj_ids, obj_ids,
                 err_tag) = self._compose(d)
            except Exception as e:  # row-level failure is data, not a crash
                emit_one(u, p, s, h, "quarantine",
                         "compose: %s" % type(e).__name__)
                continue
            if k == 0:
                emit_one(u, p, s, h, "empty", "")
                continue
            cols["url"].extend([u] * k)
            cols["para_idx"].extend([p] * k)
            cols["sent_idx"].extend([s] * k)
            cols["sent_hash"].extend([h] * k)
            cols["subj"].extend(subjs)
            cols["pred"].extend(preds)
            cols["obj"].extend(objs)
            cols["kind"].extend(kinds)
            cols["error"].extend([err_tag] * k)
            if link:
                cols["subj_id"].extend(subj_ids)
                cols["obj_id"].extend(obj_ids)
        schema = TRIPLE_SCHEMA
        if link:
            schema = schema.append(pa.field("subj_id", pa.string()))
            schema = schema.append(pa.field("obj_id", pa.string()))
        return pa.table({n: pa.array(cols[n], type=schema.field(n).type)
                         for n in schema.names})


# Per-process parse/compose/link state of the fused page task, keyed by
# the run's broadcast refs: a new ``kg_triples`` call (new refs) starts
# with an empty memo, LRU and link memo, and a worker keeps the state of
# at most ``_STATE_MAX`` runs.
_STATE: OrderedDict = OrderedDict()
_STATE_MAX = 2


class ParseComposeActor:
    """Fused parse → compose → link as a stateless ``map_batches``
    callable: pass an instance, and Ray Data fuses it into the page task
    after segmentation, so the derivation strings and unlinked triples
    never enter the object store and cold parsing spreads over every
    task slot.

    ``derivations`` and ``alias_map`` are ``ray.put`` refs.  The
    instance only holds them; each worker process builds its
    ``ReplayParserActor`` + ``ComposeActor`` on the first batch of a run
    and reuses them for that run's later batches (the reference's
    per-daemon model and caches, T1–T3)."""

    def __init__(self, derivations, alias_map=None,
                 heuristic_fallback: bool = True):
        self.derivations = derivations
        self.alias_map = alias_map
        self.heuristic_fallback = heuristic_fallback

    def _state(self):
        key = (self.derivations.hex(),
               None if self.alias_map is None else self.alias_map.hex(),
               self.heuristic_fallback)
        state = _STATE.get(key)
        if state is None:
            state = (ReplayParserActor(
                         self.derivations,
                         heuristic_fallback=self.heuristic_fallback),
                     ComposeActor(alias_map=self.alias_map))
            _STATE[key] = state
            while len(_STATE) > _STATE_MAX:
                _STATE.popitem(last=False)
        return state

    def __call__(self, batch: pa.Table) -> pa.Table:
        parser, composer = self._state()
        return composer(parser(batch))
