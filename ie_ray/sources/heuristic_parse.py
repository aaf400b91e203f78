"""Heuristic CCG derivation synthesis for out-of-corpus sentences.

The replay parser covers the fixture corpus; this fallback parses simple
English clause patterns with ANY vocabulary into CCGBANK derivations, so
unseen-but-regular sentences flow through composition instead of the
quarantine sink.  (A production deployment slots a learned supertagger/A*
parser here — T1 in SURVEY.md §2.3; the actor-pool plumbing is identical.)

Patterns (mirroring sources/depparse.parse_simple_sentence):
    [The|A] [adj]* N+ V [the N+ | prep the N+ | to V the N+]
    Name+ V the N+
"""

from __future__ import annotations

import re
from typing import Optional

from .pages import _np_det, _np_name, _sent, _vp_control, _vp_ivp, _vp_tv

_WORD = re.compile(r"^[A-Za-z][A-Za-z\-]*$")
_PREPS = {"against", "with", "on", "in", "at", "for", "from"}


def synthesize_derivation(sentence: str) -> Optional[str]:
    """Best-effort CCGBANK derivation for a simple clause; None if the
    sentence doesn't match a recognized pattern."""
    words = sentence.strip().rstrip(".?!").split()
    if not 3 <= len(words) <= 12 or not all(_WORD.match(w) for w in words):
        return None
    lower = [w.lower() for w in words]
    # find the finite verb: first lowercase token followed by a det/prep/'to'
    try:
        vi = next(i for i in range(1, len(words) - 1)
                  if lower[i + 1] in ({"the", "a", "an", "to"} | _PREPS)
                  and lower[i] not in ("the", "a", "an", "and")
                  and not words[i][0].isupper())
    except StopIteration:
        return None
    subj_words = words[:vi]
    verb = words[vi]
    rest = words[vi + 1:]
    # subject NP
    if all(w[0].isupper() for w in subj_words):
        subj = _np_name(*subj_words)
    elif subj_words[0].lower() in ("the", "a", "an") and len(subj_words) >= 2:
        if len(subj_words) == 2:
            subj = _np_det(subj_words[1], subj_words[0])
        elif len(subj_words) == 3:
            subj = _np_det(subj_words[2], subj_words[0], adj=subj_words[1])
        else:
            return None
    else:
        return None

    def obj_np(ws):
        if len(ws) == 2 and ws[0].lower() in ("the", "a", "an"):
            return _np_det(ws[1], ws[0])
        if len(ws) == 3 and ws[0].lower() in ("the", "a", "an"):
            return _np_det(ws[2], ws[0], adj=ws[1])
        if ws and all(w[0].isupper() for w in ws):
            return _np_name(*ws)
        return None

    if rest and rest[0].lower() in _PREPS:
        o = obj_np(rest[1:])
        if o is None:
            return None
        return _sent(subj, _vp_ivp(verb, rest[0], o))
    if rest and rest[0].lower() == "to" and len(rest) >= 4:
        o = obj_np(rest[2:])
        if o is None:
            return None
        return _sent(subj, _vp_control(verb, rest[1], o))
    o = obj_np(rest)
    if o is None:
        return None
    return _sent(subj, _vp_tv(verb, o))
