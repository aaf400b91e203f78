"""CCG derivation → DRS → triples.

This is the engine equivalent of the reference's ``Ccg2Drs``
(``src/python/marbles/ie/semantics/ccg.py``: build_execution_sequence
:1646-1709, create_drs :1199-1269 + combinator dispatchers :317-598,
resolve_proper_names :1367-1508, get_drs :1510-1533, final_rename
:1535-1601) re-expressed over union-find ref trees: every combinator is a
pairwise unification of the aligned sub-trees, conditions accumulate on the
tokens, and the final DRS is the word-ordered concatenation of token
conditions plus appositive extras.
"""

from __future__ import annotations

from typing import List, Optional

from ..ccg.category import Category
from ..ccg.ccgbank import Leaf, parse_ccgbank
from ..drt.drs import DRS, Ref, Rel
from .lexicon import (Sem, Token, build_leaf_sem, fresh_tree, mirror_tree,
                      tree_atoms, tree_final, unify_trees)
from .reftypes import (RT_ATTRIBUTE, RT_DATE, RT_EMPTY_DRS, RT_ENTITY,
                       RT_EVENT, RT_EVENT_ATTRIB, RT_EVENT_MODAL,
                       RT_NUMBER, RT_ORPHANED, RT_PROPERNAME)


class ComposeError(Exception):
    pass


from dataclasses import dataclass  # noqa: E402  (options surface below)


@dataclass(frozen=True)
class ComposeOptions:
    """The engine's "query options" — parity with the reference's CO_*
    bitmask (``ie/core/constants.py:48-66``), re-expressed as a frozen
    dataclass so it broadcasts cleanly into actor pools.

    Defaults mirror the reference test suite's configuration
    (CO_NO_VERBNET | CO_FAST_RENAME | CO_NO_WIKI_SEARCH).
    """

    remove_unary_props: bool = False        # CO_REMOVE_UNARY_PROPS
    print_derivation: bool = False          # CO_PRINT_DERIVATION
    verify_signatures: bool = False         # CO_VERIFY_SIGNATURES
    no_verbnet: bool = True                 # CO_NO_VERBNET (set_verbnet_db)
    fast_rename: bool = True                # CO_FAST_RENAME (the only path)
    no_wiki_search: bool = True             # CO_NO_WIKI_SEARCH (alias join)
    discard_adjunct_constituents: bool = False  # CO_DISCARD_ADJUCT_CONSTITUENTS
    varnames_match_word_index: bool = False     # CO_VARNAMES_MATCH_WORD_INDEX


class Constituent:
    """(vntype, word-index span, head index) — parity:
    ie/core/sentence.py:218-321; vntypes constituent_types.py:6-17."""

    __slots__ = ("vntype", "span", "head")

    def __init__(self, vntype: str, span: List[int], head: int):
        self.vntype = vntype
        self.span = span
        self.head = head

    def text(self, tokens, mark_head: bool = False) -> str:
        words = []
        for i in self.span:
            w = tokens[i].word
            words.append(("#" + w) if (mark_head and i == self.head) else w)
        return " ".join(words)


# clean category signature → constituent vntype
_VNTYPES = {
    "NP": "NP", "N": None, "PP": "PP",
    "S[dcl]": "S_DCL", "S[wq]": "S_WQ", "S[q]": "S_Q", "S[em]": "S_EM",
    "S[b]\\NP": "S_INF", "S[to]\\NP": "S_INF", "S[ng]\\NP": "VP",
    "S[adj]\\NP": "ADJP", "S[pss]\\NP": "VP", "S": "S",
}

# VP/S modifier shapes → adverbial constituents (feature-stripped;
# parity: CAT_VP_MOD → CONSTITUENT_ADVP, ccg.py:638-661)
_ADVP_SHAPES = {r"(S\NP)\(S\NP)", r"(S\NP)/(S\NP)", "S/S", "S\\S"}


class SentenceSem:
    """Result of composing one sentence."""

    def __init__(self, tokens: List[Token], extras: List[Rel], root: Optional[Sem]):
        self.tokens = tokens
        self.extras = extras
        self.root = root
        self.parse_root = None          # CCGBANK Node tree (set by Composer)
        self.constituents: List[Constituent] = []
        # parity: lexemes whose production carried an empty DRS are marked
        # RT_EMPTY_DRS (reference sets it at production-build time; here
        # "no conditions" is the same statement)
        for t in tokens:
            if not t.conds and not t.ispunct:
                t.mask |= RT_EMPTY_DRS

    def predarg_ccgbank(self) -> str:
        """CCGBANK rendering with predarg variable tags derived from the
        composed ref trees — atoms sharing a referent share a tag, e.g.
        ``(S[dcl]\\NP_2)/NP_3`` for a transitive whose subject resolved to
        variable 2 (parity: get_predarg_ccgbank,
        ie/semantics/ccg.py:1711-1820; the reference reads the tags off its
        functor templates, this engine reads them off the union-find cells
        the templates became)."""
        from ..ccg.ccgbank import Leaf as _Lf
        from .lexicon import tree_atoms
        names = self.get_drs().names()
        num = {}
        counter = [len(names)]

        def var_no(ref) -> int:
            rr = ref.find()
            got = names.get(rr)
            if got is not None:
                return int(got[1:])
            if id(rr) not in num:
                counter[0] += 1
                num[id(rr)] = counter[0]
            return num[id(rr)]

        def leaf_str(leaf: _Lf) -> str:
            tok = self.tokens[leaf.idx]
            if tok.sem is None:
                pa = leaf.cat.signature
            else:
                atoms = [a for a in tree_atoms(tok.sem.tree)]
                cat_atoms = tok.cat.atoms()
                # pair category atoms with tree atoms positionally
                tags = {}
                for i, _ in enumerate(cat_atoms):
                    if i < len(atoms):
                        tags[i] = var_no(atoms[i])
                pa = _tagged_signature(tok.cat, tags)
            return "(<L %s %s %s %s %s>)" % (leaf.cat.signature, tok.pos,
                                             tok.pos, tok.word, pa)

        def walk(node) -> str:
            if isinstance(node, _Lf):
                return leaf_str(node)
            return "(<T %s %d %d> %s )" % (
                node.cat.signature, node.head, len(node.children),
                " ".join(walk(c) for c in node.children))

        if self.parse_root is None:
            raise ValueError("no parse tree attached")
        return walk(self.parse_root)

    def constituent_string(self) -> str:
        """Head-marked constituent rendering (parity:
        compose_test.py:57-70 get_constituent_string)."""
        return " ".join("%s(%s)" % (c.vntype, c.text(self.tokens, True))
                        for c in self.constituents)

    def span_text(self, idxs: List[int]) -> str:
        return " ".join(self.tokens[i].word for i in idxs)

    def select_phrases(self, select, exclude=None,
                       contiguous: bool = True) -> dict:
        """RT-mask-driven phrase selection (parity: select_phrases,
        ie/semantics/ccg.py:1271-1338).

        Args:
            select: int RT_* mask, or a predicate over Token.
            exclude: optional mask/predicate — an unselected lexeme that
                matches and carries an n-ary condition over ≥2 referents
                knocks out any selected group keyed by those referents.
            contiguous: drop groups whose convex hull contains a
                non-empty-DRS token outside the group (after trimming
                trailing conjoins/brackets, as the reference does).

        Returns ref → sorted list of token indices.
        """
        if isinstance(select, int):
            mask = select
            select = lambda t: 0 != (t.mask & mask)   # noqa: E731
        groups: dict = {}
        for t in self.tokens:
            if t.refs and select(t):
                groups.setdefault(t.refs[0].find(), []).append(t.idx)

        def isconjlike(i: int) -> bool:
            t = self.tokens[i]
            return t.cat.isconj or t.word == ","

        # trim leading/trailing conjoins and commas
        for sp in groups.values():
            while sp and isconjlike(sp[0]):
                sp.pop(0)
            while sp and isconjlike(sp[-1]):
                sp.pop()

        if exclude is not None:
            if isinstance(exclude, int):
                emask = exclude
                exclude = lambda t: 0 != (t.mask & emask)   # noqa: E731
            for t in self.tokens:
                if not t.refs or select(t) or not exclude(t):
                    continue
                refs = {r.find() for c in t.conds for r in c.refs}
                if len(refs) < 2:
                    continue
                for r in refs:
                    groups.pop(r, None)

        # remove solo empty entries
        for t in self.tokens:
            if t.mask & RT_EMPTY_DRS and t.refs:
                sp = groups.get(t.refs[0].find())
                if sp is not None and (
                        not sp or (len(sp) == 1
                                   and self.tokens[sp[0]].mask & RT_EMPTY_DRS)):
                    del groups[t.refs[0].find()]

        if contiguous:
            _CONJ_STEMS = {"or", "and", "neither", "nor",
                           "-LRB-", "-RRB-", "-LQU-", "-RQU-"}
            doomed = []
            for r, sp in groups.items():
                if not sp:
                    doomed.append(r)
                    continue
                gap = [i for i in range(sp[0], sp[-1] + 1) if i not in sp]
                while gap and self.tokens[sp[-1]].stem in _CONJ_STEMS:
                    sp.pop()
                    if not sp:
                        break
                    gap = [i for i in range(sp[0], sp[-1] + 1)
                           if i not in sp]
                if not sp or (gap and not all(
                        (not self.tokens[i].conds) for i in gap)):
                    doomed.append(r)
            for r in doomed:
                del groups[r]
        return {r: sp for r, sp in groups.items() if sp}

    def get_np_nominals(self):
        """(ref, span) noun phrases over the logical model (parity:
        ccg.py:1340-1347)."""
        return sorted(self.select_phrases(
            RT_ENTITY | RT_PROPERNAME | RT_ATTRIBUTE | RT_DATE
            | RT_NUMBER | RT_EMPTY_DRS).items(),
            key=lambda kv: kv[1][0])

    def get_vp_nominals(self):
        """(ref, span) verb phrases over the logical model (parity:
        ccg.py:1349-1356)."""
        return sorted(self.select_phrases(
            RT_EVENT_ATTRIB | RT_EVENT_MODAL | RT_EVENT).items(),
            key=lambda kv: kv[1][0])

    def get_orphaned_np_nominals(self):
        """Orphaned NPs/anaphora, or None when there are none (parity:
        ccg.py:1358-1365)."""
        nps = self.select_phrases(RT_ORPHANED)
        return sorted(nps.items(), key=lambda kv: kv[1][0]) if nps else None

    def verbnet_chunks(self) -> List[Constituent]:
        """SRL chunk view (parity: get_verbnet_sentence,
        ie/core/sentence.py:569-675; golden compose_test.py:126-127:
        ``NP(#The boy) VP(#wants) S_INF(#to believe) NP(#the girl)``)."""
        minimal_nps = []
        nps = [c for c in self.constituents if c.vntype == "NP"]
        for c in nps:
            inner = [o for o in nps if o is not c
                     and set(o.span) < set(c.span)]
            if not inner:
                minimal_nps.append(c)
        covered = {i for c in minimal_nps for i in c.span}
        chunks = list(minimal_nps)
        i = 0
        n = len(self.tokens)
        while i < n:
            t = self.tokens[i]
            if i in covered or t.ispunct:
                i += 1
                continue
            if t.isverb or t.pos == "TO":
                run = [i]
                j = i + 1
                # a TO starts a new (infinitival) chunk
                while j < n and j not in covered \
                        and self.tokens[j].pos != "TO" \
                        and (self.tokens[j].isverb):
                    run.append(j)
                    j += 1
                vntype = "S_INF" if any(self.tokens[k].pos == "TO"
                                        for k in run) else "VP"
                chunks.append(Constituent(vntype, run, run[0]))
                i = j
            else:
                i += 1
        chunks.sort(key=lambda c: c.span[0])
        return chunks

    def verbnet_string(self) -> str:
        return " ".join("%s(%s)" % (c.vntype, c.text(self.tokens, True))
                        for c in self.verbnet_chunks())

    def disjoint_spans(self) -> List[List[int]]:
        """Token-index groups whose DRS graphs are disjoint (parity:
        get_disjoint_drs_spans, ccg.py:1822-1861): tokens are connected
        when any of their conditions (or the sentence extras) share a
        representative referent."""
        parent: dict = {}

        def find(k):
            while parent.setdefault(k, k) != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        tok_key = {}
        for t in self.tokens:
            refs = {id(r.find()) for c in t.conds for r in c.refs}
            if not refs:
                continue
            tok_key[t.idx] = ("t", t.idx)
            for rid in refs:
                union(("t", t.idx), ("r", rid))
        for c in self.extras:
            rids = [id(r.find()) for r in c.refs]
            for a, b in zip(rids, rids[1:]):
                union(("r", a), ("r", b))
        groups: dict = {}
        for idx, key in tok_key.items():
            groups.setdefault(find(key), []).append(idx)
        return sorted(sorted(g) for g in groups.values())

    def mark_orphans(self) -> None:
        """Append ``_ORPHANED(r)`` extras for referent graphs disconnected
        from the main (root/event-bearing) component (parity:
        ccg.py:1185-1197).  Idempotent; _AKA-aliased components count as
        connected because the alias condition itself joins the graphs."""
        spans = self.disjoint_spans()
        if len(spans) <= 1:
            return
        # an orphan is an ENTITY graph: a component with no event-bearing
        # token at all (coordinated full clauses are each their own legit
        # graph — "the door opened and I stepped up" has two)
        already = {id(r.find()) for c in self.extras
                   if isinstance(c, Rel) and c.pred == "_ORPHANED"
                   for r in c.refs}
        main = max(spans, key=len)
        for sp in spans:
            if sp is main or any(self.tokens[i].isverb for i in sp):
                continue
            head = None
            for i in sp:
                for c in self.tokens[i].conds:
                    if isinstance(c, Rel) and len(c.refs) == 1 \
                            and not c.pred.startswith("_"):
                        head = c.refs[0].find()
                        break
                if head is not None:
                    break
            if head is not None and id(head) not in already:
                for i in sp:
                    self.tokens[i].mask |= RT_ORPHANED
                self.extras.append(Rel("_ORPHANED", [head]))

    def get_drs(self, nodups: bool = True) -> DRS:
        conds: List[Rel] = []
        for t in self.tokens:
            conds.extend(t.conds)
        conds.extend(self.extras)
        d = DRS(conds)
        opts = getattr(self, "options", None)
        if opts is not None and opts.remove_unary_props:
            d = d.remove_unary_props()
        return d.dedup() if nodups else d

    def show_drs(self) -> str:
        """Linear DRS rendering honoring the compose options
        (CO_VARNAMES_MATCH_WORD_INDEX)."""
        opts = getattr(self, "options", None)
        return self.get_drs().show(
            bool(opts and opts.varnames_match_word_index))

    # -- triple projection (parity: FIXTURES.md §5; conditions read off as in
    # ie/test/conj_test.py:43-47, appos_test.py:40-46) ----------------------

    def triples(self) -> List[dict]:
        drs = self.get_drs()
        # index: ref → unary predicate labels; event → arg map
        label: dict = {}
        rank: dict = {}
        events: dict = {}
        args: dict = {}
        for c in drs.conditions:
            if not isinstance(c, Rel):
                continue            # Imp/Or/Neg don't project to triples
            pred, refs = c.resolved()
            if len(refs) == 1:
                r = refs[0]
                if pred == "_EVENT":
                    events.setdefault(r, None)
                elif not pred.startswith("_"):
                    # prefer entity-naming conditions (nouns, proper nouns,
                    # pronouns) over attached prepositions/adjectives
                    cr = 2 if (c.src is None or c.src.isproper
                               or (c.src.pos in ("NN", "NNS", "PRP", "PRP$", "WP", "CD")
                                   and not c.src.cat.ismodifier)) else 1
                    if rank.get(r, 0) < cr:
                        label[r] = pred
                        rank[r] = cr
            elif len(refs) == 2 and pred.startswith("_ARG"):
                args.setdefault(refs[0], {})[pred] = refs[1]
        # event verb labels — prefer conditions emitted by main verb tokens
        # (modals share the event ref but the content verb names it;
        # complementizers like "that" also name the shared event ref)
        for pass_ in range(3):
            for c in drs.conditions:
                if not isinstance(c, Rel):
                    continue
                pred, refs = c.resolved()
                if len(refs) == 1 and refs[0] in events \
                        and not pred.startswith("_") \
                        and events[refs[0]] is None \
                        and (pass_ >= 2
                             or (c.src is not None and c.src.isverb
                                 and (pass_ == 1 or c.src.pos != "MD"))):
                    events[refs[0]] = pred
        out = []
        for e, verb in events.items():
            if verb is None:
                continue
            am = args.get(e, {})
            subj = label.get(am.get("_ARG0"))
            objr = am.get("_ARG1", am.get("_ARG2"))
            # an event-valued object is named by its verb (control, that-
            # complements), not by incidental unary conds like "that"
            obj = events.get(objr) if objr in events else label.get(objr)
            if obj is None and objr is not None:
                obj = label.get(objr)
            out.append({"subj": subj, "pred": verb, "obj": obj, "kind": "arg"})
        for c in drs.conditions:
            if not isinstance(c, Rel):
                continue
            pred, refs = c.resolved()
            if pred == "_AKA" and len(refs) == 2:
                out.append({"subj": label.get(refs[0]), "pred": "aka",
                            "obj": label.get(refs[1]), "kind": "aka"})
            elif pred == "_POSS" and len(refs) == 2:
                out.append({"subj": label.get(refs[0]), "pred": "poss",
                            "obj": label.get(refs[1]), "kind": "poss"})
        return out


class Composer:
    """Stateless per-sentence composer (safe to share per worker)."""

    def __init__(self, options: Optional[ComposeOptions] = None):
        self.missing_rules = set()
        self.options = options or ComposeOptions()
        if not self.options.no_verbnet:
            # CO_NO_VERBNET off: install the SemLink DB (idempotent)
            from ..kb.verbnet import load_default
            from .lexicon import set_verbnet_db
            db = load_default()
            if db is not None:
                set_verbnet_db(db)

    # -- public -------------------------------------------------------------

    def compose_ccgbank(self, derivation: str,
                        resolve_names: bool = True) -> SentenceSem:
        if self.options.print_derivation:
            print(derivation)
        root, leaves = parse_ccgbank(derivation)
        tokens = [Token(l.idx, l.word, l.pos, l.cat) for l in leaves]
        extras: List[Rel] = []
        sem = self._walk(root, tokens, extras)
        sent = SentenceSem(tokens, extras, sem)
        sent.parse_root = root
        sent.options = self.options
        sent.constituents = self._collect_constituents(root)
        if self.options.discard_adjunct_constituents:
            sent.constituents = [c for c in sent.constituents
                                 if c.vntype not in ("ADVP", "ADJP")]
        if resolve_names:
            self.resolve_proper_names(sent)
        sent.mark_orphans()
        return sent

    # -- constituents (C6-lite: spans + CCGBANK heads) -----------------------

    def _collect_constituents(self, root):
        """Pre-order constituent list with spans and CCGBANK heads."""
        out = []

        def span_head(node):
            if isinstance(node, Leaf):
                return [node.idx], node.idx
            spans, heads = [], []
            for ch in node.children:
                s, h = span_head(ch)
                spans.append(s)
                heads.append(h)
            return (sorted(x for s in spans for x in s),
                    heads[min(node.head, len(heads) - 1)])

        def walk_pre(node):
            if isinstance(node, Leaf):
                return
            vntype = _VNTYPES.get(node.cat.signature) or \
                ("S_DCL" if node is root and node.cat.base == "S" else None)
            if vntype is None and node.cat.ismodifier \
                    and node.cat.strip_features() in _ADVP_SHAPES:
                vntype = "ADVP"
            if vntype:
                span, head = span_head(node)
                out.append(Constituent(vntype, span, head))
            for ch in node.children:
                walk_pre(ch)

        walk_pre(root)
        # drop exact duplicates (NP directly over N etc.)
        seen = set()
        uniq = []
        for c in out:
            key = (c.vntype, tuple(c.span))
            if key not in seen:
                seen.add(key)
                uniq.append(c)
        return self._refine_constituents(uniq)

    @staticmethod
    def _refine_constituents(consts):
        """C6 refinement (parity: _refine_constituents, ccg.py:783-960):
        merge adjacent same-type ADVP/ADJP adjuncts, drop single-token
        ADVPs (a bare adverb is not a phrase), and enforce one constituent
        per head token for identical spans (NP/PP preferred)."""
        # merge adjacent same-type adjuncts (span-contiguous)
        consts = sorted(consts, key=lambda c: (c.span[0], -len(c.span)))
        merged: List[Constituent] = []
        for c in consts:
            if merged and c.vntype in ("ADVP", "ADJP") \
                    and merged[-1].vntype == c.vntype \
                    and merged[-1].span[-1] + 1 == c.span[0]:
                prev = merged[-1]
                prev.span = sorted(set(prev.span) | set(c.span))
                continue
            merged.append(c)
        # drop singleton ADVPs
        merged = [c for c in merged
                  if not (c.vntype == "ADVP" and len(c.span) == 1)]
        # one constituent per (head, span): NP/PP win over other projections
        by_key: dict = {}
        order = []
        pri = {"NP": 2, "PP": 1}
        for c in merged:
            key = (c.head, tuple(c.span))
            cur = by_key.get(key)
            if cur is None:
                by_key[key] = c
                order.append(key)
            elif pri.get(c.vntype, 0) > pri.get(cur.vntype, 0):
                by_key[key] = c
        return [by_key[k] for k in order]

    # -- tree walk ----------------------------------------------------------

    def _walk(self, node, tokens: List[Token], extras: List[Rel]) -> Sem:
        if isinstance(node, Leaf):
            tok = tokens[node.idx]
            tok.sem = build_leaf_sem(tok)
            for c in tok.conds:
                c.src = tok
            return tok.sem
        kids = [self._walk(c, tokens, extras) for c in node.children]
        if len(kids) == 1:
            return self._unary(kids[0], node.cat, extras)
        if len(kids) == 2:
            return self._binary(kids[0], kids[1], node.cat, extras)
        raise ComposeError("node with %d children" % len(kids))

    # -- binary rules (parity: get_rule ccg/__init__.py:1427-1667 and the
    # VectorMap dispatchers in semantics/ccg.py:317-598) ---------------------

    def _binary(self, l: Sem, r: Sem, res: Category, extras) -> Sem:
        # punctuation pass-through (LP/RP)
        if l.cat.ispunct:
            return self._coerce(r, res, extras)
        if r.cat.ispunct:
            return self._coerce(l, res, extras)
        # conj attach: conj + X → X[conj]
        if l.cat.isconj and not r.cat.isconj:
            return Sem(res, r.tree, conj=True)
        if r.cat.isconj and not l.cat.isconj:
            return Sem(res, l.tree, conj=True)
        # coordination: X + X[conj] → X
        if r.conj:
            return self._coordinate(l, r, res)
        if l.conj:
            return self._coordinate(r, l, res)

        # Two passes over the combinator inventory (parity: get_rule keys
        # on (left, right, RESULT), ccg/__init__.py:1427-1667): the strict
        # pass only accepts a rule whose computed result unifies with the
        # node's declared result — without it, FA can shadow a crossed
        # composition when both match the children (free-relative "what"
        # NP/(S[dcl]\NP) + S[dcl]\NP declared as S[dcl]/(S[dcl]\NP)).
        # The lenient pass keeps the historical first-match behavior for
        # corpus derivations whose declared result is feature-shifted.
        out = self._try_combinators(l, r, res, strict=True)
        if out is None:
            out = self._try_combinators(l, r, res, strict=False)
        if out is not None:
            return out

        return self._binary_fallback(l, r, res, extras)

    @staticmethod
    def _mk_functor(result: Category, slash: str, arg: Category) -> Category:
        rs = "(%s)" % result.signature if result.isfunctor \
            else result.signature
        As = "(%s)" % arg.signature if arg.isfunctor else arg.signature
        return Category.parse(rs + slash + As)

    def _try_combinators(self, l: Sem, r: Sem, res: Category,
                         strict: bool):
        def fits(exp: Category) -> bool:
            return not strict or exp.can_unify(res) or res.can_unify(exp)

        # forward application: X/Y Y → X
        if l.cat.isfunctor and l.cat.isarg_right and l.cat.arg.can_unify(r.cat) \
                and fits(r.cat if l.cat.ismodifier else l.cat.result):
            if isinstance(l.tree, tuple):
                unify_trees(l.tree[1], r.tree)
                return Sem(res, l.tree[0])
        # backward application: Y X\Y → X
        if r.cat.isfunctor and r.cat.isarg_left and r.cat.arg.can_unify(l.cat) \
                and fits(l.cat if r.cat.ismodifier else r.cat.result):
            if isinstance(r.tree, tuple):
                unify_trees(r.tree[1], l.tree)
                return Sem(res, r.tree[0])
        # forward composition / crossed: X/Y Y|Z → X|Z
        if l.cat.isfunctor and l.cat.isarg_right and r.cat.isfunctor \
                and l.cat.arg.can_unify(r.cat.result) \
                and fits(r.cat if l.cat.ismodifier else
                         self._mk_functor(l.cat.result, r.cat.slash,
                                          r.cat.arg)):
            if isinstance(l.tree, tuple) and isinstance(r.tree, tuple):
                unify_trees(l.tree[1], r.tree[0])
                return Sem(res, (l.tree[0], r.tree[1]))
        # backward composition / crossed: Y|Z X\Y → X|Z
        if r.cat.isfunctor and r.cat.isarg_left and l.cat.isfunctor \
                and r.cat.arg.can_unify(l.cat.result) \
                and fits(l.cat if r.cat.ismodifier else
                         self._mk_functor(r.cat.result, l.cat.slash,
                                          l.cat.arg)):
            if isinstance(r.tree, tuple) and isinstance(l.tree, tuple):
                unify_trees(r.tree[1], l.tree[0])
                return Sem(res, (r.tree[0], l.tree[1]))
        # generalized forward composition: X/Y (Y|Z)|W → (X|Z)|W
        if l.cat.isfunctor and l.cat.isarg_right and r.cat.isfunctor \
                and r.cat.result.isfunctor \
                and l.cat.arg.can_unify(r.cat.result.result) \
                and fits(r.cat if l.cat.ismodifier else
                         self._mk_functor(
                             self._mk_functor(l.cat.result,
                                              r.cat.result.slash,
                                              r.cat.result.arg),
                             r.cat.slash, r.cat.arg)):
            if isinstance(l.tree, tuple) and isinstance(r.tree, tuple) \
                    and isinstance(r.tree[0], tuple):
                unify_trees(l.tree[1], r.tree[0][0])
                return Sem(res, ((l.tree[0], r.tree[0][1]), r.tree[1]))
        # generalized backward
        if r.cat.isfunctor and r.cat.isarg_left and l.cat.isfunctor \
                and l.cat.result.isfunctor \
                and r.cat.arg.can_unify(l.cat.result.result) \
                and fits(l.cat if r.cat.ismodifier else
                         self._mk_functor(
                             self._mk_functor(r.cat.result,
                                              l.cat.result.slash,
                                              l.cat.result.arg),
                             l.cat.slash, l.cat.arg)):
            if isinstance(r.tree, tuple) and isinstance(l.tree, tuple) \
                    and isinstance(l.tree[0], tuple):
                unify_trees(r.tree[1], l.tree[0][0])
                return Sem(res, ((r.tree[0], l.tree[0][1]), l.tree[1]))
        # substitution (rare): (X/Y)/Z Y/Z → X/Z
        if l.cat.isfunctor and l.cat.result.isfunctor and r.cat.isfunctor \
                and l.cat.result.arg.can_unify(r.cat.result) \
                and l.cat.arg.can_unify(r.cat.arg) \
                and fits(self._mk_functor(l.cat.result.result,
                                          r.cat.slash, r.cat.arg)):
            if isinstance(l.tree, tuple) and isinstance(l.tree[0], tuple) \
                    and isinstance(r.tree, tuple):
                unify_trees(l.tree[0][1], r.tree[0])
                unify_trees(l.tree[1], r.tree[1])
                return Sem(res, (l.tree[0][0], l.tree[1]))
        return None

    def _binary_fallback(self, l: Sem, r: Sem, res: Category,
                         extras) -> Sem:
        # NP NP juxtaposition: the appositive pattern the reference finds by
        # disjoint-DRS-graph analysis ("Name , a NP" / "a NP , Name" after
        # comma absorption; ccg.py:1078-1197).  A right side that introduced
        # a real referent is an alias; one that didn't is orphaned.
        if l.cat.isnp and r.cat.isnp:
            lr, rr = l.final_ref().find(), r.final_ref().find()
            if rr.bound or rr.binder is not None:
                extras.append(Rel("_AKA", [lr, rr]))
            else:
                extras.append(Rel("_ORPHANED", [rr]))
            return Sem(res, l.tree)

        # last resort: unify final refs, keep left result shape
        self.missing_rules.add((l.cat.signature, r.cat.signature, res.signature))
        if self.options.verify_signatures:
            raise ComposeError(
                "signature verification failed: no rule for %s %s -> %s"
                % (l.cat.signature, r.cat.signature, res.signature))
        t = fresh_tree(res)
        tree_final(t).union(l.final_ref())
        tree_final(t).union(r.final_ref())
        return Sem(res, t)

    def _coordinate(self, operand: Sem, conjsem: Sem, res: Category) -> Sem:
        """Coordination (parity: semantics/ccg.py:571-585).

        Functor operands (verbs, modifiers) unify fully — "makes and
        distributes" share one event (conj_test.py:104-123).  Atomic NPs keep
        separate referents; the phrase denotes the left conjunct's ref
        (conj_test.py:23-47: _ARG0(E, John) with Paul separate).
        """
        if operand.cat.isfunctor:
            unify_trees(operand.tree, conjsem.tree)
            return Sem(res, operand.tree)
        return Sem(res, operand.tree)

    # -- unary rules (parity: unary type-change dispatch semantics/ccg.py:
    # 317-468; UnaryRule model.py:269-332) -----------------------------------

    def _unary(self, child: Sem, res: Category, extras) -> Sem:
        return self._coerce(child, res, extras)

    def _coerce(self, child: Sem, res: Category, extras) -> Sem:
        c = child.cat
        # comma-coordination: ", NP → NP[conj]" arrives via the punctuation
        # pass-through; the [conj] feature marks the right conjunct
        conj = child.conj or "conj" in res.features
        if res == c or res.can_unify(c):
            return Sem(res, child.tree, conj=conj)
        # N → NP / NP → N coercion: same referent
        if (res.isnp and c.isn) or (res.isn and c.isnp):
            return Sem(res, child.tree, conj=conj)
        # gerund nominalization: S[ng]\NP → NP denotes the event itself
        if (res.isnp or res.isn) and c.isfunctor and c.final_atom().is_sy:
            return Sem(res, child.final_ref(), conj=conj)
        # type raising: X → T/(T\X) or T\(T/X)
        if res.isfunctor and res.arg.isfunctor and res.arg.arg.can_unify(c) \
                and res.result.strip_features() == res.arg.result.strip_features():
            t_tree = fresh_tree(res.result)
            return Sem(res, (t_tree, (mirror_tree(t_tree, res.arg.result), child.tree)))
        # S|NP → NP\NP / N\N (relative clause, reduced relative): the missing
        # NP of the clause modifies the head
        if res.isfunctor and res.ismodifier and (res.arg.isnp or res.arg.isn) \
                and c.isfunctor and (c.arg.isnp or c.arg.isn):
            npref = tree_final(child.tree[1]) if isinstance(child.tree, tuple) else child.final_ref()
            return Sem(res, (npref, npref))
        # NP → NP\NP (apposition): alias edge _AKA(head, appositive)
        # (parity: post_create_fixup, semantics/ccg.py:1037-1197)
        if res.isfunctor and res.ismodifier and res.arg.isnp and c.isnp:
            head = Ref("x")
            extras.append(Rel("_AKA", [head, child.final_ref()]))
            return Sem(res, (head, head))
        # S → S modifiers and other adverbializations: share child's head ref
        if res.isfunctor and res.ismodifier:
            t = fresh_tree(res.arg)
            tree_final(t)  # head ref of the modified phrase
            # attach the clause's event to the modified head via its own ref
            return Sem(res, (t, t))
        # generic fallback: fresh shape, share final ref
        self.missing_rules.add((c.signature, "->", res.signature))
        if self.options.verify_signatures:
            raise ComposeError(
                "signature verification failed: no unary rule %s -> %s"
                % (c.signature, res.signature))
        t = fresh_tree(res)
        tree_final(t).union(child.final_ref())
        return Sem(res, t, conj=child.conj)

    # -- post-processing ----------------------------------------------------

    def resolve_proper_names(self, sent: SentenceSem):
        """Merge adjacent proper-noun tokens sharing a referent into one
        hyphenated name (parity: semantics/ccg.py:1367-1508; golden:
        Merryweather + High → Merryweather-High, compose_test.py:135-140)."""
        toks = sent.tokens
        i = 0
        while i < len(toks):
            if not toks[i].isproper or not toks[i].conds:
                i += 1
                continue
            run = [i]
            j = i + 1
            while j < len(toks):
                t = toks[j]
                if t.isproper and t.conds and _same_ref(toks[i], t):
                    run.append(j)
                    j += 1
                elif t.word.lower() in ("&",) and j + 1 < len(toks) \
                        and toks[j + 1].isproper and _same_ref(toks[i], toks[j + 1]):
                    j += 1  # bridge
                else:
                    break
            if len(run) > 1:
                merged = "-".join(toks[k].stem for k in run)
                first = toks[run[0]]
                # rewrite the first token's name condition; drop the others'
                for c in first.conds:
                    if c.pred == first.stem:
                        c.pred = merged
                        break
                for k in run[1:]:
                    t = toks[k]
                    t.conds = [c for c in t.conds
                               if not (c.pred == t.stem and len(c.refs) == 1)]
                first.stem = merged
            i = j if j > i + 1 else i + 1


def _tagged_signature(cat: Category, tags: dict) -> str:
    """Category signature with ``_<n>`` predarg tags on atoms, numbered by
    flattened atom position (result atoms first — Category.atoms order)."""
    idx = [0]

    def rec(c: Category) -> str:
        if c.isatom:
            i = idx[0]
            idx[0] += 1
            t = tags.get(i)
            return c.signature + ("_%d" % t if t is not None else "")
        r = rec(c.result)
        a = rec(c.arg)
        if c.result.isfunctor:
            r = "(%s)" % r
        if c.arg.isfunctor:
            a = "(%s)" % a
        return r + c.slash + a

    return rec(cat)


def _same_ref(a: Token, b: Token) -> bool:
    ra = _name_ref(a)
    rb = _name_ref(b)
    return ra is not None and rb is not None and ra.find() is rb.find()


def _name_ref(tok: Token) -> Optional[Ref]:
    for c in tok.conds:
        if len(c.refs) == 1 and not c.pred.startswith("_"):
            return c.refs[0]
    return None
