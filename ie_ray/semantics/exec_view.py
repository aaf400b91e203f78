"""Execution-sequence view of a derivation (C1 parity).

Renders the post-order push/exec queue in the reference's repr format
(``<PushOp>:(stem, cat, pos)`` / ``<ExecOp>:(nargs, RULE result)``,
``ie/semantics/ccg.py:241-280, build_execution_sequence :1646-1709``;
asserted verbatim in ``ie/test/exec_test.py:66-98``).  The engine itself
composes directly on the tree — this queue is a diagnostic/parity view, not
the execution mechanism.
"""

from __future__ import annotations

from typing import List

from ..ccg.category import Category
from ..ccg.ccgbank import Leaf, parse_ccgbank
from .lexicon import Token


def _rule_name(l: Category, r: Category, res: Category) -> str:
    # LP/RP name which operand PASSES THROUGH (reference RL_LPASS/RL_RPASS):
    # a left comma means the right operand survives → RP, and vice versa
    if l.ispunct or l.isconj:
        return "RP"
    if r.ispunct:
        return "LP"
    if "conj" in r.features:
        return "RCONJ"
    if l.isfunctor and l.isarg_right and l.arg.can_unify(r):
        return "FA"
    if r.isfunctor and r.isarg_left and r.arg.can_unify(l):
        return "BA"
    if l.isfunctor and l.isarg_right and r.isfunctor \
            and l.arg.can_unify(r.result):
        return "FC" if r.isarg_right else "FX"
    if r.isfunctor and r.isarg_left and l.isfunctor \
            and r.arg.can_unify(l.result):
        return "BC" if l.isarg_left else "BX"
    if l.isfunctor and l.isarg_right and r.isfunctor and r.result.isfunctor \
            and l.arg.can_unify(r.result.result):
        return "GFC"
    if r.isfunctor and r.isarg_left and l.isfunctor and l.result.isfunctor \
            and r.arg.can_unify(l.result.result):
        return "GBC"
    return "SPECIAL"


def execution_sequence(derivation: str) -> List[str]:
    root, leaves = parse_ccgbank(derivation)
    out: List[str] = []

    def walk(node):
        if isinstance(node, Leaf):
            tok = Token(node.idx, node.word, node.pos, node.cat)
            out.append("<PushOp>:(%s, %s, %s)" %
                       (tok.stem, node.cat.signature, node.pos))
            return node.cat
        cats = [walk(c) for c in node.children]
        if len(cats) == 1:
            out.append("<ExecOp>:(1, LP %s)" % node.cat.signature)
        else:
            # conj-feature on the right operand is visible on the child cat
            rname = _rule_name(cats[0], cats[1], node.cat)
            out.append("<ExecOp>:(2, %s %s)" % (rname, node.cat.signature))
        return node.cat

    walk(root)
    return out
