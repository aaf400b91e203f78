"""Statistical/VerbNet supertag refinement (T1 upgrade, round 4).

The hand lexicon's dominant failure mode was a mis-tagged open-class
verb gating the chart (POS tagger reads "reveal" as JJ, "storms" as
NNS → no verb candidates → quarantine).  These tests pin the two
public-data extensions: VerbNet-lemma-gated verb frames and MLE counts
learned from derivation corpora (``scripts/train_supertagger.py``).
"""

import os

import pytest

from ie_ray.ccg.supertagger import (DEFAULT_MODEL_PATH, SupertagModel,
                                    _stem_guesses, leaf_counts,
                                    verbnet_verb_cats, verbnet_lemmas)


def test_stem_guesses_forms():
    d = dict(_stem_guesses("storms"))
    assert d.get("storm") == "3sg"
    d = dict(_stem_guesses("stopped"))
    assert d.get("stop") == "past"
    d = dict(_stem_guesses("making"))
    assert d.get("make") == "ng"
    d = dict(_stem_guesses("studies"))
    assert d.get("study") == "3sg"
    assert dict(_stem_guesses("reveal")) == {"reveal": "base"}


@pytest.mark.skipif(not verbnet_lemmas(), reason="SemLink data absent")
def test_verbnet_hedge_covers_mistagged_verbs():
    # "reveal" (tagger: JJ) and "storms" (tagger: NNS) must receive verb
    # candidates from VerbNet lemma evidence
    cats = {c for c, _p, _w in verbnet_verb_cats("reveal")}
    assert r"(S[b]\NP)/NP" in cats
    assert r"(S[dcl]\NP)/NP" in cats
    cats = {c for c, _p, _w in verbnet_verb_cats("storms")}
    assert r"(S[dcl]\NP)/NP" in cats        # 3sg form → dcl frames
    # non-verbs contribute nothing
    assert verbnet_verb_cats("zzzqx") == []


def test_leaf_counts_walks_ccgbank_leaves():
    drv = (r"(<T S[dcl] 1 2> (<L NP PRP PRP She NP>) "
           r"(<L S[dcl]\NP VBZ VBZ runs S[dcl]\NP>) )")
    wc, pc = leaf_counts([drv, drv, None])
    assert wc["she"]["NP"] == 2
    assert wc["runs"][r"S[dcl]\NP"] == 2
    assert pc["VBZ"][r"S[dcl]\NP"] == 2


@pytest.mark.skipif(not os.path.exists(DEFAULT_MODEL_PATH),
                    reason="model not trained")
def test_model_extras_bounded_and_additive():
    m = SupertagModel.load()
    # every learned weight sits in the hedge band: never strong enough
    # to outrank a closed-class 0.0 reading
    for w in ("said", "now", "face", "storms"):
        for cat, pos, wt in m.word_extras(w):
            assert -0.76 <= wt <= -0.24, (w, cat, wt)
    # below-evidence words contribute nothing
    assert m.word_extras("zzzqx") == []


@pytest.mark.skipif(not verbnet_lemmas(), reason="SemLink data absent")
def test_mistagged_verb_sentences_parse():
    """End-to-end: the sentences the JJ/NNS mis-tags used to quarantine."""
    from ie_ray.ccg.parser import CkyParser
    from ie_ray.semantics.engine import Composer
    p = CkyParser()
    c = Composer()
    for s in ("Anderson doesn't reveal the secret.",
              "Mr. Neck storms into history class one day.",
              "he gets a job because of immigrants.",
              "For now, she waits.",
              "she has no one on whom to depend."):
        d = p.parse(s)
        assert d is not None, s
        c.compose_ccgbank(d).get_drs()
    assert not c.missing_rules


def _cands(cands):
    """{category: weight} of one token's supertag candidates."""
    return {c: wt for c, _p, wt in cands}


def test_supertag_merge_keeps_best_hedge_per_category(monkeypatch):
    """Hand entries win outright; among the hedge sources (blind
    noun→verb hedge, VerbNet frames, corpus counts, imperative hedge)
    the best-weighted reading of each category wins."""
    from ie_ray.ccg import supertagger
    from ie_ray.ccg.parser import pos_tag, supertag
    monkeypatch.setattr(supertagger, "_VN_LEMMAS", frozenset({"fall"}))
    model = SupertagModel({"fall": {"N/N": 8}}, {"NN": {"N/N": 8}})
    monkeypatch.setattr(supertagger, "_MODEL", model)
    monkeypatch.setattr(supertagger, "_MODEL_TRIED", True)
    assert model.word_extras("fall") == [("N/N", "NN", -0.25)]

    words = "stocks fall as investors panic .".split()
    assert pos_tag(words)[1] == "NN"
    fall = _cands(supertag(words)[1])
    # VerbNet's -0.65 beats the blind noun→verb hedge's -0.85
    assert fall[r"S[dcl]\NP"] == pytest.approx(-0.65)
    # the hand-list N/N keeps its -0.4 against the model's -0.25
    assert fall["N/N"] == pytest.approx(-0.4)

    words = "panic spreads .".split()
    assert pos_tag(words)[0] == "NN"
    first = _cands(supertag(words)[0])
    # the imperative hedge's -0.65 beats the blind hedge's -0.8
    assert first[r"(S[b]\NP)/NP"] == pytest.approx(-0.65)


@pytest.mark.parametrize("lemmas", [frozenset(),
                                    frozenset({"fall"}),
                                    frozenset({"fall", "panic", "stock",
                                               "invest"})])
def test_present_tense_headline_verb_any_verbnet_data(monkeypatch, lemmas):
    """The headline "Stocks fall as investors panic." keeps `fall` as a
    predicate whether the VerbNet lemma set is absent or loaded."""
    from ie_ray.ccg import supertagger
    from ie_ray.ccg.parser import CkyParser
    from ie_ray.semantics.engine import Composer
    monkeypatch.setattr(supertagger, "_VN_LEMMAS", lemmas)
    d = CkyParser().parse("Stocks fall as investors panic.")
    assert d is not None
    got = {t["pred"] for t in Composer().compose_ccgbank(d).triples()
           if t["kind"] == "arg"}
    assert "fall" in got
