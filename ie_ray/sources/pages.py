"""Deterministic synthesis of the Common-Crawl-style ``pages`` table.

Schema (BASELINE.json input_hint): ``url:string, warc_ts:timestamp[us],
html:binary, text:string, lang:string``.  Bodies are drawn from a seeded pool
of golden sentences with known CCG derivations and expected triples, so the
whole pipeline — extraction, segmentation, parsing, composition, linking —
has a computable ground truth at any scale.  Layout mirrors FIXTURES.md §1-§5.

The HTML wrapper matches the extraction contract of
``/root/reference/src/python/marbles/newsfeed/reuters.py:69-77`` (``<span
id="article-text">`` with ``<p>`` children) plus boilerplate that extraction
must drop.  Duplicate pages (same text, new url), non-English rows, empty
paragraphs and an over-long sentence exercise dedup, the language filter and
the 250-word cap (``CcgServiceHandler.java:57``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from ..nlp.text import preprocess_sentence

SEED = 20260817

# ---------------------------------------------------------------------------
# vocabulary (verb surface forms chosen so lemmatize_verb is exact)
# ---------------------------------------------------------------------------

NOUNS = ["farmer", "mayor", "worker", "driver", "teacher", "officer",
         "senator", "judge", "banker", "editor", "council", "union",
         "committee", "company", "ministry", "agency", "court", "bank",
         "school", "factory", "airport", "bridge", "railway", "hospital",
         "budget", "tax", "law", "plan", "deal", "vote", "strike",
         "merger", "contract", "tariff", "pipeline", "reform", "treaty",
         "election", "project", "report"]

ADJS = ["new", "big", "local", "federal", "foreign", "controversial",
        "regional", "annual"]

# (3sg, base)
TV = [("supports", "support"), ("opposes", "oppose"), ("approves", "approve"),
      ("rejects", "reject"), ("announces", "announce"), ("visits", "visit"),
      ("joins", "join"), ("opens", "open"), ("backs", "back"),
      ("blocks", "block"), ("reviews", "review"), ("praises", "praise"),
      ("funds", "fund"), ("signs", "sign"), ("delays", "delay"),
      ("criticizes", "criticize"), ("defends", "defend"),
      ("endorses", "endorse"), ("suspends", "suspend"), ("leads", "lead")]

# control verbs taking S[to]\NP
CV = [("wants", "want"), ("plans", "plan"), ("tries", "try"),
      ("decides", "decide"), ("hopes", "hope"), ("needs", "need")]

# base-form transitive verbs for the infinitival complement
TVB = ["support", "oppose", "approve", "reject", "block", "fund", "join",
       "review", "delay", "sign"]

# intransitive + preposition
IVP = [("protests", "protest", "against"), ("votes", "vote", "against"),
       ("argues", "argue", "with"), ("competes", "compete", "with")]

# speech verbs taking a that-complement
SAYV = [("says", "say"), ("claims", "claim"), ("reports", "report"),
        ("notes", "note"), ("adds", "add")]

# regular transitives usable as passives (pp = base + d/ed)
TV_REG = [v for v in TV if v[1] not in ("lead",)]

FIRST = ["Anna", "Marcus", "Elena", "Viktor", "Sofia", "Daniel", "Clara",
         "Oscar", "Nadia", "Peter", "Laura", "Ivan"]
LAST = ["Marbury", "Okonkwo", "Petrova", "Lindqvist", "Tanaka", "Moreau",
        "Castellano", "Brandt", "Novak", "Reyes"]
ORGS = [("Acme", "Corp"), ("Zenith", "Industries"), ("Borealis", "Group"),
        ("Meridian", "Holdings"), ("Cascade", "Partners")]

DOMAINS = ["news0.example.com", "news1.example.com", "news2.example.com",
           "news3.example.com"]

# one container contract per synthetic domain (ie_ray/sources/html.py rules)
_LAYOUTS = ["reuters", "nytimes", "washingtonpost", "foxnews"]

# the deliberately hot entity (skew test per north_star)
HOT_ENTITY = ("Global", "Assembly")


# ---------------------------------------------------------------------------
# derivation builders (CCGBANK s-expressions)
# ---------------------------------------------------------------------------

def _L(cat: str, pos: str, word: str, predarg: str = None) -> str:
    return "(<L %s %s %s %s %s>)" % (cat, pos, pos, word, predarg or cat)


def _T(cat: str, head: int, *children: str) -> str:
    return "(<T %s %d %d> %s )" % (cat, head, len(children), " ".join(children))


def _np_det(noun: str, det: str = "the", adj: str = None) -> str:
    n = _L("N", "NN", noun)
    if adj:
        n = _T("N", 1, _L("N/N", "JJ", adj), n)
    return _T("NP", 0, _L("NP/N", "DT", det), n)


def _np_name(*words: str) -> str:
    if len(words) == 1:
        return _T("NP", 0, _L("N", "NNP", words[0]))
    n = _L("N", "NNP", words[-1])
    for w in reversed(words[:-1]):
        n = _T("N", 1, _L("N/N", "NNP", w), n)
    return _T("NP", 0, n)


def _vp_tv(verb3: str, obj_np: str, feat: str = "dcl", pos: str = "VBZ") -> str:
    cat = r"(S[%s]\NP)/NP" % feat
    return _T(r"S[%s]\NP" % feat, 0, _L(cat, pos, verb3), obj_np)


def _sent(subj_np: str, vp: str, feat: str = "dcl") -> str:
    return _T("S[%s]" % feat, 1, subj_np, vp)


def _vp_control(cv3: str, base_tv: str, obj_np: str) -> str:
    inner = _vp_tv(base_tv, obj_np, feat="b", pos="VB")
    to = _T(r"S[to]\NP", 0,
            _L(r"(S[to]\NP)/(S[b]\NP)", "TO", "to"), inner)
    return _T(r"S[dcl]\NP", 0,
              _L(r"(S[dcl]\NP)/(S[to]\NP)", "VBZ", cv3), to)


def _vp_ivp(iv3: str, prep: str, obj_np: str) -> str:
    pp = _T("PP", 0, _L("PP/NP", "IN", prep), obj_np)
    return _T(r"S[dcl]\NP", 0, _L(r"(S[dcl]\NP)/PP", "VBZ", iv3), pp)


def _np_conj(np1: str, np2: str) -> str:
    return _T("NP", 0, np1, _T(r"NP[conj]", 1, _L("conj", "CC", "and"), np2))


def _np_poss(owner_np: str, noun: str) -> str:
    detp = _T(r"NP[nb]/N", 0, owner_np, _L(r"(NP[nb]/N)\NP", "POS", "'s"))
    return _T("NP", 0, detp, _L("N", "NN", noun))


def _vp_copular_adj(adj: str) -> str:
    return _T(r"S[dcl]\NP", 0,
              _L(r"(S[dcl]\NP)/(S[adj]\NP)", "VBZ", "is"),
              _T(r"S[adj]\NP", 0, _L(r"S[adj]\NP", "JJ", adj)))


def _np_relative(noun: str, verb3: str, obj_np: str) -> str:
    vp = _vp_tv(verb3, obj_np)
    rel = _T(r"NP\NP", 0,
             _L(r"(NP\NP)/(S[dcl]\NP)", "WDT", "that"), vp)
    return _T("NP", 0, _np_det(noun, "The"), rel)


def _vp_passive(pp_form: str, agent_np: str = None) -> str:
    core = _T(r"S[pss]\NP", 0, _L(r"S[pss]\NP", "VBN", pp_form))
    if agent_np is not None:
        by = _T(r"(S\NP)\(S\NP)", 0,
                _L(r"((S\NP)\(S\NP))/NP", "IN", "by"), agent_np)
        core = _T(r"S[pss]\NP", 0, core, by)
    return _T(r"S[dcl]\NP", 0,
              _L(r"(S[dcl]\NP)/(S[pss]\NP)", "VBZ", "is"), core)


def _vp_that_comp(say3: str, emb_sent: str) -> str:
    em = _T(r"S[em]", 0, _L(r"S[em]/S[dcl]", "IN", "that"), emb_sent)
    return _T(r"S[dcl]\NP", 0,
              _L(r"(S[dcl]\NP)/S[em]", "VBZ", say3), em)


def _np_appos(name_np: str, desc_np: str) -> str:
    mod = _T(r"NP\NP", 1, _L(",", ",", ","),
             _T(r"NP\NP", 0, desc_np, _L(",", ",", ",")))
    return _T("NP", 0, name_np, mod)


# ---------------------------------------------------------------------------
# golden sentence pool
# ---------------------------------------------------------------------------

def golden_sentences(n: int = 1200, seed: int = SEED) -> List[dict]:
    """Generate ``n`` sentences with text, derivation and expected triples.

    Returns dicts: {sentence, ccgbank, triples: [(subj,pred,obj,kind), ...]}.
    Deterministic in (n, seed).
    """
    rng = random.Random(seed)
    out = []
    ents: Dict[str, str] = {}

    def name_pair(hot_bias=0.15):
        if rng.random() < hot_bias:
            return HOT_ENTITY
        if rng.random() < 0.4:
            return (rng.choice(FIRST), rng.choice(LAST))
        if rng.random() < 0.5:
            return rng.choice(ORGS)
        return (rng.choice(FIRST),)

    for i in range(n):
        kind = rng.randrange(16)
        if kind == 0:       # The N1 V the N2
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            v3, vb = rng.choice(TV)
            adj = rng.choice(ADJS) if rng.random() < 0.4 else None
            text = "The %s %s the %s." % ((adj + " " + n1) if adj else n1, v3, n2)
            drv = _sent(_np_det(n1, "The", adj), _vp_tv(v3, _np_det(n2)))
            triples = [(n1, vb, n2, "arg")]
        elif kind == 1:     # Name V the N
            nm = name_pair()
            n2 = rng.choice(NOUNS)
            v3, vb = rng.choice(TV)
            text = "%s %s the %s." % (" ".join(nm), v3, n2)
            drv = _sent(_np_name(*nm), _vp_tv(v3, _np_det(n2)))
            triples = [("-".join(nm), vb, n2, "arg")]
        elif kind == 2:     # The N1 CV to V the N2  (control)
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            cv3, cvb = rng.choice(CV)
            vb = rng.choice(TVB)
            text = "The %s %s to %s the %s." % (n1, cv3, vb, n2)
            drv = _sent(_np_det(n1, "The"), _vp_control(cv3, vb, _np_det(n2)))
            triples = [(n1, cvb, vb, "arg"), (n1, vb, n2, "arg")]
        elif kind == 3:     # A and B V the N (coordination: left conjunct)
            a, b = name_pair(0.05), name_pair(0.05)
            if a == b:
                b = (rng.choice(FIRST),)
            n2 = rng.choice(NOUNS)
            v3, vb = rng.choice(TV)
            text = "%s and %s %s the %s." % (" ".join(a), " ".join(b), v3, n2)
            drv = _sent(_np_conj(_np_name(*a), _np_name(*b)),
                        _vp_tv(v3, _np_det(n2)))
            triples = [("-".join(a), vb, n2, "arg")]
        elif kind == 4:     # The N1 IV prep the N2
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            iv3, ivb, prep = rng.choice(IVP)
            text = "The %s %s %s the %s." % (n1, iv3, prep, n2)
            drv = _sent(_np_det(n1, "The"), _vp_ivp(iv3, prep, _np_det(n2)))
            triples = [(n1, ivb, n2, "arg")]
        elif kind == 5:     # Name 's N1 V the N2  (possessive)
            nm = name_pair()
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            v3, vb = rng.choice(TV)
            text = "%s 's %s %s the %s." % (" ".join(nm), n1, v3, n2)
            drv = _sent(_np_poss(_np_name(*nm), n1), _vp_tv(v3, _np_det(n2)))
            triples = [("-".join(nm), "poss", n1, "poss"),
                       (n1, vb, n2, "arg")]
        elif kind == 6:     # The N1 is ADJ  (copular attribute)
            n1 = rng.choice(NOUNS)
            adj = rng.choice(ADJS)
            text = "The %s is %s." % (n1, adj)
            drv = _sent(_np_det(n1, "The"), _vp_copular_adj(adj))
            triples = [(n1, "be", adj, "arg")]
        elif kind == 7:     # The N1 that V1 the N2 V2 the N3 (relative)
            n1, n2, n3 = (rng.choice(NOUNS) for _ in range(3))
            v1, vb1 = rng.choice(TV)
            v2, vb2 = rng.choice(TV)
            text = "The %s that %s the %s %s the %s." % (n1, v1, n2, v2, n3)
            drv = _sent(_np_relative(n1, v1, _np_det(n2)),
                        _vp_tv(v2, _np_det(n3)))
            triples = [(n1, vb1, n2, "arg"), (n1, vb2, n3, "arg")]
        elif kind == 8:     # The N2 is V-ed by the N1 (passive + agent)
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            _, vb = rng.choice(TV_REG)
            pp = vb + ("d" if vb.endswith("e") else "ed")
            text = "The %s is %s by the %s." % (n2, pp, n1)
            drv = _sent(_np_det(n2, "The"),
                        _vp_passive(pp, _np_det(n1)))
            triples = [(n2, vb, None, "arg")]
        elif kind == 9:     # The N1 SAYS that the N2 V the N3
            n1, n2, n3 = (rng.choice(NOUNS) for _ in range(3))
            s3, sb = rng.choice(SAYV)
            v3, vb = rng.choice(TV)
            text = "The %s %s that the %s %s the %s." % (n1, s3, n2, v3, n3)
            emb = _sent(_np_det(n2, "the"), _vp_tv(v3, _np_det(n3)))
            drv = _sent(_np_det(n1, "The"), _vp_that_comp(s3, emb))
            triples = [(n1, sb, vb, "arg"), (n2, vb, n3, "arg")]
        elif kind == 10:    # The N1 V the N2 on WEEKDAY (date modifier)
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            v3, vb = rng.choice(TV)
            day = rng.choice(["Monday", "Tuesday", "Wednesday", "Thursday",
                              "Friday"])
            text = "The %s %s the %s on %s." % (n1, v3, n2, day)
            onp = _T(r"(S\NP)\(S\NP)", 0,
                     _L(r"((S\NP)\(S\NP))/NP", "IN", "on"),
                     _np_name(day))
            vp = _T(r"S[dcl]\NP", 0, _vp_tv(v3, _np_det(n2)), onp)
            drv = _sent(_np_det(n1, "The"), vp)
            triples = [(n1, vb, n2, "arg")]
        elif kind == 11:    # The N1 V NUM N2 (numeric object)
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS) + "s"
            v3, vb = rng.choice(TV)
            num = str(rng.choice([12, 40, 200, 500, 3000]))
            text = "The %s %s %s %s." % (n1, v3, num, n2)
            obj = _T("NP", 0, _T("N", 1, _L("N/N", "CD", num),
                                 _L("N", "NNS", n2)))
            drv = _sent(_np_det(n1, "The"), _vp_tv(v3, obj))
            triples = [(n1, vb, n2, "arg")]
        elif kind == 12:    # The N1 does not V the N2 (negation)
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            _, vb = rng.choice(TV)
            text = "The %s does not %s the %s." % (n1, vb, n2)
            inner = _vp_tv(vb, _np_det(n2), feat="b", pos="VB")
            negd = _T(r"S[b]\NP", 0,
                      _L(r"(S[b]\NP)/(S[b]\NP)", "RB", "not"), inner)
            vp = _T(r"S[dcl]\NP", 0,
                    _L(r"(S[dcl]\NP)/(S[b]\NP)", "VBZ", "does"), negd)
            drv = _sent(_np_det(n1, "The"), vp)
            triples = [(n1, vb, n2, "arg")]
        elif kind == 13:    # The N1 and the N2 V the N3 (noun coordination)
            n1, n2, n3 = (rng.choice(NOUNS) for _ in range(3))
            v3, vb = rng.choice(TV)
            text = "The %s and the %s %s the %s." % (n1, n2, v3, n3)
            subj = _T("NP", 0, _np_det(n1, "The"),
                      _T("NP[conj]", 1, _L("conj", "CC", "and"),
                         _np_det(n2)))
            drv = _sent(subj, _vp_tv(v3, _np_det(n3)))
            triples = [(n1, vb, n3, "arg")]
        elif kind == 14:    # What does the N1 V ?  (wh-question, object gap)
            n1 = rng.choice(NOUNS)
            _, vb = rng.choice(TV)
            text = "What does the %s %s ?" % (n1, vb)
            body = _T(r"S[q]/NP", 0,
                      _T(r"S[q]/(S[b]\NP)", 0,
                         _L(r"(S[q]/(S[b]\NP))/NP", "VBZ", "does"),
                         _np_det(n1, "the")),
                      _L(r"(S[b]\NP)/NP", "VB", vb))
            drv = _T(r"S[wq]", 1,
                     _L(r"S[wq]/(S[q]/NP)", "WP", "What"), body)
            triples = [(n1, vb, "what", "arg")]
        else:               # Name , the N1 , V the N2 (appositive → _AKA)
            nm = name_pair()
            n1, n2 = rng.choice(NOUNS), rng.choice(NOUNS)
            v3, vb = rng.choice(TV)
            text = "%s , the %s , %s the %s." % (" ".join(nm), n1, v3, n2)
            drv = _sent(_np_appos(_np_name(*nm), _np_det(n1)),
                        _vp_tv(v3, _np_det(n2)))
            triples = [("-".join(nm), vb, n2, "arg"),
                       ("-".join(nm), "aka", n1, "aka")]
        for t in triples:
            if t[3] in ("arg", "aka", "poss") and t[0] and "-" in t[0]:
                ents.setdefault(t[0], "E%04d" % len(ents))
        out.append({"sentence": text, "ccgbank": drv, "triples": triples})
    return out


def sent_key(sentence: str) -> str:
    """Lookup key for the replay parser: md5 of the preprocessed sentence."""
    return hashlib.md5(preprocess_sentence(sentence).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# page synthesis
# ---------------------------------------------------------------------------

_BOILERPLATE = ("<nav><ul><li>Home</li><li>World</li><li>Markets</li></ul>"
                "</nav><div class=\"ad\">Subscribe today!</div>")

# external hosts pages may link to (nav/footer chrome) — the link-graph
# operator (ie_ray/stages/linkgraph.py) consumes these; they live OUTSIDE
# every article container so extraction output is unaffected
_LINK_HOSTS = ["social.example.net", "video.example.org",
               "archive.example.org", "cdn.example.net"]


def _page_html(title: str, paragraphs: List[str],
               layout: str = "reuters", links: List[str] = ()) -> str:
    """Wrap paragraphs in one of the four reference container contracts
    (newsfeed/{reuters,nytimes,washingtonpost,foxnews}.py) so the
    extraction cascade is exercised across heterogeneous layouts.  The
    boilerplate <p> outside the container / without the NYT classes must
    be dropped by every rule; <a href> chrome links sit outside the
    containers too (no <p>, no container markers) so both the cascade
    and the fast path ignore them byte-identically."""
    nav_links = "".join("<li><a href=\"%s\">more</a></li>" % u
                        for u in links)
    noise = (_BOILERPLATE.replace("</ul>", nav_links + "</ul>")
             + "<p class=\"promo\">Subscribe today!</p>")
    if layout == "nytimes":
        body = "".join(
            "<p class=\"story-body-text story-content\">%s</p>" % p
            for p in paragraphs)
        mid = "<div id=\"story\">%s</div>" % body
    elif layout == "washingtonpost":
        body = "".join("<p>%s</p>" % p for p in paragraphs)
        mid = ("<article itemprop=\"articleBody\">"
               "<p class=\"interstitial\">AD</p>%s</article>" % body)
    elif layout == "foxnews":
        body = "".join("<p>%s</p>" % p for p in paragraphs)
        mid = "<div class=\"article-body main\">%s</div>" % body
    else:  # reuters
        body = "".join("<p>%s</p>" % p for p in paragraphs)
        mid = "<span id=\"article-text\">%s</span>" % body
    return ("<html><head><title>%s</title></head><body>%s%s"
            "<footer>© example</footer></body></html>"
            % (title, noise, mid))


def synthesize_pages(n_pages: int, pool: List[dict] = None, seed: int = SEED,
                     start: int = 0) -> List[dict]:
    """Rows ``start..start+n_pages`` of the deterministic pages table.

    Row content depends only on (row index, seed, pool) so generation can be
    sharded across Ray tasks.
    """
    if pool is None:
        pool = golden_sentences()
    rows = []
    for i in range(start, start + n_pages):
        rng = random.Random((seed << 20) ^ i)
        lang = "en" if rng.random() > 0.04 else rng.choice(["de", "fr"])
        npara = rng.randint(2, 5)
        paras = []
        for _ in range(npara):
            nsent = rng.randint(1, 4)
            paras.append(" ".join(
                pool[rng.randrange(len(pool))]["sentence"] for _ in range(nsent)))
        title_src = pool[rng.randrange(len(pool))]["sentence"].rstrip(".")
        slug = "-".join(title_src.lower().split()[:6])
        domain = DOMAINS[i % len(DOMAINS)]
        layout = _LAYOUTS[i % len(_LAYOUTS)]
        dup_of = None
        if i % 37 == 1 and i > start:          # exact duplicate of previous row
            prev = rows[-1]
            paras = prev["text"].split("\n")
            dup_of = prev["url"]
            slug = slug + "-syndicated"
        if i % 211 == 3:                        # over-long sentence (cap test)
            paras.append("The committee notes that " +
                         "the plan requires review and " * 60 + "approval.")
        text = "\n".join(paras)
        url = "https://%s/2017/%02d/%02d/%s" % (
            domain, 1 + (i // 28) % 12, 1 + i % 28, slug)
        # chrome links: a SEPARATE rng stream so adding them never
        # perturbs the text/layout draws above (fixture stability)
        lrng = random.Random((seed << 21) ^ i)
        links = ["https://%s/2017/%02d/p%d" %
                 (DOMAINS[lrng.randrange(len(DOMAINS))],
                  1 + lrng.randrange(12), lrng.randrange(10000))
                 for _ in range(lrng.randint(1, 3))]
        links += ["https://%s/x/%d" %
                  (_LINK_HOSTS[lrng.randrange(len(_LINK_HOSTS))],
                   lrng.randrange(10000))
                  for _ in range(lrng.randint(0, 2))]
        rows.append({
            "url": url,
            "warc_ts": 1484000000_000000 + i * 60_000_000,  # epoch-us sequence
            "html": _page_html(title_src, paras, layout,
                               links=links).encode("utf-8"),
            "text": text,
            "lang": lang,
            "_dup_of": dup_of,
        })
    return rows


def _pages_table(rows) -> "pa.Table":
    import pyarrow as pa
    return pa.table({
        "url": [r["url"] for r in rows],
        "warc_ts": pa.array([r["warc_ts"] for r in rows],
                            type=pa.timestamp("us")),
        "html": pa.array([r["html"] for r in rows], type=pa.binary()),
        "text": [r["text"] for r in rows],
        "lang": [r["lang"] for r in rows],
    })


def write_fixture_tables(out_dir: str, n_pages: int = 200,
                         pool_size: int = 1200, seed: int = SEED) -> dict:
    """Write pages/derivations/golden_triples/alias parquet under out_dir.

    Pages land as a sharded parquet DIRECTORY (`pages/`): big sizes are
    synthesized in parallel Ray tasks (row content depends only on the row
    index, so sharding is deterministic); small sizes are written inline.
    Multiple files also give ``read_parquet`` natural block parallelism.
    """
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    pool = golden_sentences(pool_size, seed)

    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    shard = 500
    n_shards = (n_pages + shard - 1) // shard
    import ray
    if n_pages >= 2000 and ray.is_initialized():
        pool_ref = ray.put(pool)

        @ray.remote
        def gen_shard(i):
            p = ray.get(pool_ref) if not isinstance(pool_ref, list) else pool_ref
            start = i * shard
            rows = synthesize_pages(min(shard, n_pages - start), p, seed,
                                    start=start)
            pq.write_table(_pages_table(rows),
                           os.path.join(pages_dir, "part-%05d.parquet" % i))
            return len(rows)

        ray.get([gen_shard.remote(i) for i in range(n_shards)])
    else:
        for i in range(n_shards):
            start = i * shard
            rows = synthesize_pages(min(shard, n_pages - start), pool, seed,
                                    start=start)
            pq.write_table(_pages_table(rows),
                           os.path.join(pages_dir, "part-%05d.parquet" % i))

    pq.write_table(pa.table({
        "sent_hash": [sent_key(s["sentence"]) for s in pool],
        "sentence": [s["sentence"] for s in pool],
        "ccgbank": [s["ccgbank"] for s in pool],
    }), os.path.join(out_dir, "derivations.parquet"))

    rows = [(sent_key(s["sentence"]),) + t for s in pool for t in s["triples"]]
    pq.write_table(pa.table({
        "sent_hash": [r[0] for r in rows],
        "subj": [r[1] for r in rows],
        "pred": [r[2] for r in rows],
        "obj": [r[3] for r in rows],
        "kind": [r[4] for r in rows],
    }), os.path.join(out_dir, "golden_triples.parquet"))

    # alias table: canonical entity ids for every multi-word proper name
    names = sorted({t[0] for s in pool for t in s["triples"]
                    if t[0] and t[0][0].isupper()} |
                   {t[2] for s in pool for t in s["triples"]
                    if t[2] and t[2][0].isupper()})
    alias, entity_id, title, prior = [], [], [], []
    for k, nm in enumerate(names):
        eid = "E%05d" % k
        variants = {nm.lower(), nm.replace("-", " ").lower()}
        if "-" in nm:
            variants.add(nm.split("-")[-1].lower())   # surname-only alias
        for v in sorted(variants):
            alias.append(v)
            entity_id.append(eid)
            title.append(nm.replace("-", " "))
            prior.append(1.0 if v == nm.lower() else 0.6)
    pq.write_table(pa.table({
        "alias": alias, "entity_id": entity_id, "title": title,
        "prior": prior,
    }), os.path.join(out_dir, "alias_table.parquet"))

    return {"pages": n_pages, "pool": pool_size, "dir": out_dir}
