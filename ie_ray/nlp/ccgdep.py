"""CCG derivation → dependency parse bridge.

Converts a CCGBANK derivation (from the CKY parser or the replay
corpus) into the Google-NLP-style ``DepToken`` list that
:class:`ie_ray.nlp.clause.ClauseFinder` consumes — so the clause path
(SURVEY C15/T8) runs on REAL parses of arbitrary text instead of only
the synthesized fixture parses in ``sources/depparse.py``.

Head percolation follows the standard CCG convention (the functor is
the head) with the Stanford-style inversions the clause finder expects:

* auxiliaries / ``to`` / complementizers / relative pronouns are
  functors over a verbal argument but DEPEND on that argument's head
  (labels AUX/AUXPASS/MARK/NSUBJ),
* determiners depend on their noun (DET),
* modifiers (``X/X``, ``X\\X``) depend on the head of what they modify,
  labeled by their own lexical head (IN→PREP, RB→ADVMOD, JJ→AMOD,
  NN over NP\\NP→APPOS, VB→RCMOD, …).

Reference contract: ``ie/nlp/clause.py`` consumes spaCy/Google parses
(``data/clausefinder_test.json`` schema); this bridge replaces that
external dependency with the in-repo parser.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ie_ray.ccg.ccgbank import Leaf, parse_ccgbank
from ie_ray.nlp.clause import DepToken

AUX_WORDS = {
    "be", "is", "am", "are", "was", "were", "been", "being",
    "have", "has", "had", "having", "do", "does", "did",
    "will", "would", "can", "could", "may", "might", "shall",
    "should", "must", "to", "'ll", "'d", "'ve", "'re", "'m",
    "ca", "wo",
}
BE_WORDS = {"be", "is", "am", "are", "was", "were", "been", "being"}

_TAG = {
    "MD": "VERB", "DT": "DET", "WDT": "DET", "CC": "CONJ",
    "CD": "NUM", "IN": "ADP", "TO": "ADP", "POS": "PRT",
    "RP": "PRT", "EX": "NOUN", "PRP": "PRON", "PRP$": "PRON",
    "WP": "PRON",
}


def _coarse_tag(pos: str) -> str:
    if pos.startswith("VB"):
        return "VERB"
    if pos.startswith("NN"):
        return "NOUN"
    if pos.startswith("JJ"):
        return "ADJ"
    if pos.startswith("RB") or pos == "WRB":
        return "ADV"
    if pos in _TAG:
        return _TAG[pos]
    if not pos[:1].isalpha():
        return "PUNCT"
    return "X"


def _is_verbal(cat) -> bool:
    """S[x]\\NP-shaped (a VP argument)."""
    return (cat.isfunctor and cat.arg.signature == "NP"
            and cat.isarg_left and not cat.result.isfunctor
            and cat.result.base == "S")


def _sig_has(cat, feat: str) -> bool:
    return ("[%s]" % feat) in cat.signature


class _Conv:
    def __init__(self, leaves: List[Leaf]):
        self.leaves = leaves
        # per leaf idx: (head_idx, label); root fixed up at the end
        self.heads: dict = {}

    def dep(self, child_head: int, parent_head: int, label: str):
        if child_head != parent_head:
            self.heads[child_head] = (parent_head, label)

    # -- label rules --------------------------------------------------------

    def _mod_label(self, mod_cat, head_leaf: Leaf) -> str:
        pos, w = head_leaf.pos, head_leaf.word.lower()
        if w in ("not", "n't", "never"):
            return "NEG"
        if pos in ("IN", "TO"):
            return "PREP"
        if pos.startswith("RB") or pos == "WRB":
            return "ADVMOD"
        if pos.startswith("JJ"):
            return "AMOD"
        if pos == "CD":
            return "NUM"
        if pos in ("DT", "WDT"):
            return "DET"
        if pos.startswith("VB"):
            return "RCMOD"
        if pos.startswith("NN") or pos in ("PRP", "WP"):
            if mod_cat is not None and mod_cat.isfunctor \
                    and mod_cat.arg.signature == "NP" \
                    and mod_cat.result.signature == "NP":
                return "APPOS"
            return "NN"
        return "DEP"

    def _apply(self, f_cat, f_head: int, f_leaf: Optional[Leaf],
               a_cat, a_head: int) -> Tuple[int, None]:
        """Functor ``f`` consumes argument ``a``; emit the dep edge and
        return the surviving head."""
        w = (f_leaf.word.lower() if f_leaf is not None else "")
        # ---- inversions: functor becomes the dependent -------------------
        if _is_verbal(a_cat) or (a_cat.isfunctor and a_cat.base == "S"
                                 and not a_cat.isarg_left
                                 and a_cat.arg.base == "S"):
            if w in AUX_WORDS or (f_leaf is not None
                                  and f_leaf.pos in ("MD", "TO")):
                lab = "AUXPASS" if _sig_has(a_cat, "pss") else "AUX"
                self.dep(f_head, a_head, lab)
                return a_head, None
            if f_cat.result.isfunctor \
                    and f_cat.result.arg.signature == "NP" \
                    and f_cat.result.result.signature == "NP":
                # relative pronoun (NP\NP)/(S\NP): verb heads the clause
                self.dep(f_head, a_head, "NSUBJ")
                return a_head, None
        if a_cat.isatom and a_cat.base == "S" and f_cat.result.isatom \
                and f_cat.result.base == "S" and f_leaf is not None \
                and f_leaf.pos == "IN":
            # complementizer S[em]/S[dcl]: "that" marks the inner verb
            self.dep(f_head, a_head, "MARK")
            return a_head, None
        if f_cat.arg.signature == "N" and f_cat.result.signature == "NP":
            # determiner NP/N
            self.dep(f_head, a_head, "DET")
            return a_head, None
        # ---- normal: argument depends on functor -------------------------
        a = a_cat
        if a.isatom and a.base in ("NP", "N"):
            if f_cat.isarg_left and f_cat.result.base == "S":
                lab = "NSUBJ"
                if _sig_has(f_cat.result, "pss") or \
                        _sig_has(f_cat, "pss"):
                    lab = "NSUBJPASS"
            elif f_leaf is not None and f_leaf.pos in ("IN", "TO"):
                lab = "POBJ"
            elif w in BE_WORDS:
                lab = "ATTR"
            elif f_cat.result.isfunctor \
                    and f_cat.result.arg.signature == "NP" \
                    and f_cat.result.isarg_right:
                lab = "IOBJ"   # ((S\NP)/NP)/NP: inner NP of a ditransitive
            else:
                lab = "DOBJ"
        elif a.isatom and a.base == "PP":
            lab = "PREP"
        elif a.isatom and a.base == "S":
            lab = "CCOMP"
        elif _is_verbal(a):
            lab = "ACOMP" if _sig_has(a, "adj") else "XCOMP"
        else:
            lab = "DEP"
        self.dep(a_head, f_head, lab)
        return f_head, None

    # -- tree walk ----------------------------------------------------------

    def walk(self, node) -> Tuple[int, Optional[Leaf]]:
        """Returns (head leaf idx, lexical head leaf if the subtree is a
        single-leaf functor)."""
        if isinstance(node, Leaf):
            return node.idx, node
        if len(node.children) == 1:
            return self.walk(node.children[0])
        (lh, lleaf) = self.walk(node.children[0])
        (rh, rleaf) = self.walk(node.children[1])
        lc = node.children[0].cat
        rc = node.children[1].cat
        # punctuation absorbs into the other child
        if rc.ispunct or (rleaf is not None and rleaf.pos in
                          (".", ",", ":", "``", "''", "-LRB-", "-RRB-")):
            self.dep(rh, lh, "P")
            return lh, lleaf
        if lc.ispunct or (lleaf is not None and lleaf.pos in
                          (".", ",", ":", "``", "''", "-LRB-", "-RRB-")):
            self.dep(lh, rh, "P")
            return rh, rleaf
        # coordination: "and B" node, then A + (conj B)
        if lc.isconj:
            self.dep(lh, rh, "CC")
            return rh, rleaf
        if _sig_has(rc, "conj") and not _sig_has(node.cat, "conj"):
            self.dep(rh, lh, "CONJ")
            return lh, lleaf
        # forward application / composition
        if lc.isfunctor and lc.isarg_right and (
                lc.arg.base == rc.base or
                (rc.isfunctor and lc.arg.signature == rc.result.signature)):
            if lc.ismodifier:
                self.dep(lh, rh, self._mod_label(lc, self.leaves[lh]))
                return rh, rleaf
            h, _ = self._apply(lc, lh, lleaf, rc, rh)
            return h, (lleaf if h == lh else rleaf)
        # backward application / composition
        if rc.isfunctor and rc.isarg_left and (
                rc.arg.base == lc.base or
                (lc.isfunctor and rc.arg.signature == lc.result.signature)):
            if rc.ismodifier:
                self.dep(rh, lh, self._mod_label(rc, self.leaves[rh]))
                return lh, lleaf
            h, _ = self._apply(rc, rh, rleaf, lc, lh)
            return h, (rleaf if h == rh else lleaf)
        # fallback: trust the CCGBANK head marker
        if node.head == 0:
            self.dep(rh, lh, "DEP")
            return lh, lleaf
        self.dep(lh, rh, "DEP")
        return rh, rleaf


def deps_from_ccgbank(derivation: str) -> List[DepToken]:
    """Convert one CCGBANK derivation into a DepToken list."""
    from ie_ray.semantics.lexicon import Token
    tree, leaves = parse_ccgbank(derivation)
    conv = _Conv(leaves)
    root, _ = conv.walk(tree)
    out = []
    for l in leaves:
        head, label = conv.heads.get(l.idx, (l.idx, "ROOT"))
        try:
            lemma = Token(l.idx, l.word, l.pos, l.cat).stem
        except Exception:
            lemma = l.word.lower()
        out.append(DepToken(
            idx=l.idx, word=l.word, head=head, label=label,
            tag=_coarse_tag(l.pos), lemma=lemma))
    return out


def clauses_from_sentence(parser, sentence: str):
    """text → CKY parse → dependencies → clauses (None if unparseable)."""
    from ie_ray.nlp.clause import ClauseFinder
    drv = parser.parse(sentence)
    if drv is None:
        return None
    return ClauseFinder(deps_from_ccgbank(drv)).find_clauses()
