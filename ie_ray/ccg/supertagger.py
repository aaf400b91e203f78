"""Statistical / knowledge-driven supertag refinement (T1 upgrade).

The hand lexicon in :mod:`ie_ray.ccg.parser` assigns candidates from a
closed-class table plus POS priors.  Its dominant failure mode on messy
web prose is a MIS-TAGGED open-class verb: the heuristic POS tagger
calls "reveal" JJ or "storms" NNS, the word gets no verb reading, and
the whole sentence quarantines.  The reference avoids this with
EasySRL's *learned* supertagger, which keeps every category whose
probability is within beam 0.01 of the best
(``ext/easysrl/src/main/java/.../CcgServiceHandler.java:59-74``) — one
hard POS guess never gates the chart.

This module closes most of that gap from public data shipped with the
reference, no learned model required at runtime:

1. **VerbNet lemma evidence** (SemLink vn-pb mappings,
   ``ie_ray/kb/verbnet.py`` — public VerbNet/PropBank data): any token
   whose morphological stem is a VerbNet verb lemma receives verb
   candidates appropriate to its surface form (base / 3sg / past /
   gerund), priced to lose against a complete noun/adjective parse but
   to win when no other parse exists.  ~4.4k verb lemmas — far beyond
   any hand lexicon.

2. **MLE category counts from derivation corpora** (the CCGBANK-format
   derivations the repo itself parses and replays): ``train_counts``
   walks leaf nodes and tallies (word, category) and (POS, category)
   frequencies; :class:`SupertagModel` turns them into per-word
   candidate extensions and log-prob re-weights.  Training runs as a
   Ray Data pipeline (``scripts/train_supertagger.py``): parse in an
   actor pool, extract leaves vectorized, count through
   ``relational.bucketed_aggregate`` — the same bucketed exchange every
   other rows-keyed reduce in the repo uses.

Both sources only ever ADD candidates or adjust weights inside a
bounded band — they never remove a hand-lexicon reading, so parser
coverage is monotone in this module.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# VerbNet-backed verb candidates
# ---------------------------------------------------------------------------

_VN_LEMMAS: Optional[frozenset] = None


def verbnet_lemmas() -> frozenset:
    """Lemma set from the SemLink vn-pb index (empty set when the data
    directory is absent — the parser then simply keeps its hand hedges)."""
    global _VN_LEMMAS
    if _VN_LEMMAS is None:
        try:
            from ..kb.verbnet import load_default
            db = load_default()
            _VN_LEMMAS = frozenset(db.name_index) if db else frozenset()
        except Exception:
            _VN_LEMMAS = frozenset()
    return _VN_LEMMAS


def _stem_guesses(w: str) -> List[Tuple[str, str]]:
    """(stem, form) guesses for a lowercased token.  form ∈
    {base, 3sg, past, ng}.  Purely morphological — VerbNet membership
    of the stem is the evidence filter."""
    out = [(w, "base")]
    if len(w) > 3 and w.endswith("ies"):
        out.append((w[:-3] + "y", "3sg"))
    elif len(w) > 3 and w.endswith("es"):
        out.append((w[:-2], "3sg"))
        out.append((w[:-1], "3sg"))
    elif len(w) > 2 and w.endswith("s") and not w.endswith("ss"):
        out.append((w[:-1], "3sg"))
    if len(w) > 3 and w.endswith("ied"):
        out.append((w[:-3] + "y", "past"))
    elif len(w) > 3 and w.endswith("ed"):
        out.append((w[:-2], "past"))
        out.append((w[:-1], "past"))
        if len(w) > 4 and w[-3] == w[-4]:
            out.append((w[:-3], "past"))          # stopped → stop
    if len(w) > 4 and w.endswith("ing"):
        out.append((w[:-3], "ng"))
        out.append((w[:-3] + "e", "ng"))          # making → make
        if len(w) > 5 and w[-4] == w[-5]:
            out.append((w[:-4], "ng"))            # running → run
    return out


# verb candidate templates per surface form: the high-frequency frames
# of parser._verb_cats, priced as hedges (positive VerbNet evidence ⇒
# slightly better than the blind noun→verb hedge's -0.8).  That price
# holds where both list a category: parser.supertag keeps the hand
# entries first, then the best-weighted hedge reading per category.
def _frames(feat: str, pos: str, base: float):
    return [(r"(S[%s]\NP)/NP" % feat, pos, base),
            (r"S[%s]\NP" % feat, pos, base - 0.05),
            (r"(S[%s]\NP)/PP" % feat, pos, base - 0.08),
            (r"(S[%s]\NP)/(S[to]\NP)" % feat, pos, base - 0.1),
            (r"(S[%s]\NP)/S[em]" % feat, pos, base - 0.12),
            (r"(S[%s]\NP)/S[dcl]" % feat, pos, base - 0.15),
            (r"((S[%s]\NP)/PP)/NP" % feat, pos, base - 0.15)]


_FORM_CATS: Dict[str, list] = {
    "base": _frames("b", "VB", -0.55) + _frames("dcl", "VBP", -0.6),
    "3sg": _frames("dcl", "VBZ", -0.55),
    "past": _frames("dcl", "VBD", -0.55) + [
        (r"(S[pt]\NP)/NP", "VBN", -0.62),
        (r"S[pss]\NP", "VBN", -0.65),
        (r"(S[pss]\NP)/PP", "VBN", -0.68)],
    "ng": [(r"(S[ng]\NP)/NP", "VBG", -0.55),
           (r"S[ng]\NP", "VBG", -0.6),
           (r"(S[ng]\NP)/PP", "VBG", -0.63)],
}


def verbnet_verb_cats(word_lower: str) -> list:
    """Verb (category, POS, weight) hedges for a token whose stem is a
    VerbNet lemma; [] when no stem guess is a known verb."""
    vn = verbnet_lemmas()
    if not vn:
        return []
    out, seen = [], set()
    for stem, form in _stem_guesses(word_lower):
        if stem in vn:
            for cand in _FORM_CATS[form]:
                if cand[0] not in seen:
                    seen.add(cand[0])
                    out.append(cand)
    return out


# ---------------------------------------------------------------------------
# MLE counts from derivation corpora
# ---------------------------------------------------------------------------

_LEAF_RE = re.compile(r"<L ([^ ]+) ([^ ]+) [^ ]+ ([^ ]+) [^>]*>")


def leaf_counts(derivations) -> Tuple[Dict, Dict]:
    """(word→cat→count, pos→cat→count) from CCGBANK derivation strings.
    Pure function of the strings — usable per batch, partials mergeable
    by plain addition (the Ray pipeline sums them via
    bucketed_aggregate on (word, cat) rows)."""
    wc: Dict[str, Dict[str, int]] = {}
    pc_: Dict[str, Dict[str, int]] = {}
    for drv in derivations:
        if not drv:
            continue
        for cat, pos, word in _LEAF_RE.findall(drv):
            w = word.lower()
            d = wc.setdefault(w, {})
            d[cat] = d.get(cat, 0) + 1
            d2 = pc_.setdefault(pos, {})
            d2[cat] = d2.get(cat, 0) + 1
    return wc, pc_


DEFAULT_MODEL_PATH = os.path.join(os.path.dirname(__file__), "data",
                                  "supertag_counts.json")


class SupertagModel:
    """Per-word category extensions + reweights from leaf counts.

    * a word seen ≥ ``min_count`` times contributes its observed
      categories as EXTRA candidates, weighted by scaled log relative
      frequency inside ``(-0.25, -0.75)`` — strong enough to guide the
      beam, never strong enough to beat a closed-class 0.0 reading;
    * observed (word, cat) pairs that already exist in the hand list
      are left UNTOUCHED: ``parser.supertag`` keeps the hand entry and
      drops the learned duplicate, so corpus counts only ever ADD
      readings, never re-rank the hand list (a confirmation-bonus
      re-rank was tried and rejected — it reordered closed-class
      entries on skewed corpora).  Against the other hedge sources
      (VerbNet frames, the blind noun→verb hedge) the best weight per
      category wins.
    """

    def __init__(self, word_counts: Dict[str, Dict[str, int]],
                 pos_counts: Dict[str, Dict[str, int]],
                 min_count: int = 3):
        self.word_counts = word_counts
        self.pos_counts = pos_counts
        self.min_count = min_count
        self._cache: Dict[str, list] = {}

    @classmethod
    def load(cls, path: str = DEFAULT_MODEL_PATH) -> "SupertagModel":
        with open(path) as f:
            d = json.load(f)
        return cls(d["word"], d["pos"], d.get("min_count", 3))

    def save(self, path: str = DEFAULT_MODEL_PATH) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"word": self.word_counts, "pos": self.pos_counts,
                       "min_count": self.min_count}, f)

    def word_extras(self, word_lower: str) -> list:
        """[(cat, pos, weight)] learned candidates for a word, [] when
        evidence is below ``min_count``.  Cached per word."""
        hit = self._cache.get(word_lower)
        if hit is not None:
            return hit
        counts = self.word_counts.get(word_lower)
        out = []
        if counts:
            total = sum(counts.values())
            if total >= self.min_count:
                best = max(counts.values())
                for cat, c in counts.items():
                    if c < 2:
                        continue
                    # scaled relative frequency: best→-0.25, 10×
                    # rarer→-0.75 (floor)
                    rel = math.log10(best / c) if c else 3.0
                    wt = -0.25 - min(0.5, 0.25 * rel)
                    pos = self._pos_for(cat)
                    out.append((cat, pos, wt))
        self._cache[word_lower] = out
        return out

    def _pos_for(self, cat: str) -> str:
        """Most frequent POS that emitted this category (leaf emission
        needs a POS tag; exact choice only affects the printed leaf)."""
        best_pos, best_c = "NN", -1
        for pos, cats in self.pos_counts.items():
            c = cats.get(cat, 0)
            if c > best_c:
                best_pos, best_c = pos, c
        return best_pos


_MODEL: Optional[SupertagModel] = None
_MODEL_TRIED = False


def load_default_model() -> Optional[SupertagModel]:
    global _MODEL, _MODEL_TRIED
    if not _MODEL_TRIED:
        _MODEL_TRIED = True
        try:
            _MODEL = SupertagModel.load()
        except Exception:
            _MODEL = None
    return _MODEL
