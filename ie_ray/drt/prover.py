"""Resolution theorem prover for the DRS-discharged FOL fragment.

Parity: the reference hands ``to_mfol`` output to pysmt/z3 for
validity/satisfiability queries (``ie/drt/fol.py``).  No SMT solver
ships in this sandbox, so this module completes the discharge with the
classical public recipe instead of only finite-model checking
(``fol.Model``/``evaluate``): NNF → standardize apart → Skolemize →
CNF → binary resolution with unification + factoring (Robinson 1965),
set-of-support from the negated goal.

Modal formulas discharge by the standard relational translation
threaded through the conversion: ``◇w′.φ`` ⇒ ``∃w′(R(w,w′) ∧ φ)`` and
``◻w′.φ`` ⇒ ``∀w′(R(w,w′) → φ)`` where ``w`` is the world current at
that point — exactly the semantics :func:`ie_ray.drt.fol.evaluate`
gives the Kripke model, so the two discharge paths agree.

Resource-bounded: resolution is only semi-decidable, so the search
carries a clause budget; :func:`entails` returns ``True`` (refutation
found — entailment PROVED), ``False`` (saturated without refutation —
NOT entailed, complete answer), or ``None`` (budget exhausted —
unknown, the honest analogue of an SMT timeout).

Terms are tuples: ``("v", n)`` variable, ``("c", name)`` constant,
``("f", name, (args…))`` Skolem function.  Literals are
``(sign, pred, (args…))``; clauses are frozensets of literals.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, FrozenSet, List, Optional, Tuple

from .fol import (TOP, And, Exists, FImp, ForAll, FOr, Necessarily, Not,
                  Possibly, Pred)

Term = Tuple
Literal = Tuple[bool, str, Tuple[Term, ...]]
Clause = FrozenSet[Literal]

ACCESS = "R"   # accessibility-relation predicate of the modal translation


# ---------------------------------------------------------------------------
# formula → clauses
# ---------------------------------------------------------------------------

def _nnf(f, pos: bool, world: str):
    """Negation normal form; eliminates FImp and rewrites the modal
    operators relationally (threading the current world, which the AST
    nodes themselves don't carry — see module docstring)."""
    if f is TOP:
        return TOP if pos else Not(TOP)
    if isinstance(f, Pred):
        return f if pos else Not(f)
    if isinstance(f, Not):
        return _nnf(f.body, not pos, world)
    if isinstance(f, And):
        parts = [_nnf(p, pos, world) for p in f.parts]
        if pos:
            return And(parts)
        out = parts[0]
        for p in parts[1:]:
            out = FOr(out, p)
        return out
    if isinstance(f, FOr):
        l, r = _nnf(f.left, pos, world), _nnf(f.right, pos, world)
        return FOr(l, r) if pos else And([l, r])
    if isinstance(f, FImp):
        if pos:
            return FOr(_nnf(f.left, False, world),
                       _nnf(f.right, True, world))
        return And([_nnf(f.left, True, world),
                    _nnf(f.right, False, world)])
    if isinstance(f, Exists):
        body = _nnf(f.body, pos, world)
        return Exists(f.var, body) if pos else ForAll(f.var, body)
    if isinstance(f, ForAll):
        body = _nnf(f.body, pos, world)
        return ForAll(f.var, body) if pos else Exists(f.var, body)
    if isinstance(f, Possibly):
        # ◇w′.φ @ w  ≡  ∃w′(R(w,w′) ∧ φ@w′);  ¬◇ ≡ ∀w′(R → ¬φ)
        acc = Pred(ACCESS, [world, f.world])
        body = _nnf(f.body, pos, f.world)
        if pos:
            return Exists(f.world, And([acc, body]))
        return ForAll(f.world, FOr(Not(acc), body))
    if isinstance(f, Necessarily):
        acc = Pred(ACCESS, [world, f.world])
        body = _nnf(f.body, pos, f.world)
        if pos:
            return ForAll(f.world, FOr(Not(acc), body))
        return Exists(f.world, And([acc, body]))
    raise TypeError("cannot clausify %r" % (f,))


class _Skolemizer:
    def __init__(self):
        self._var = count(1)
        self._sk = count(1)

    def fresh_var(self) -> Term:
        return ("v", next(self._var))

    def skolem(self, univ: List[Term]) -> Term:
        name = "sk%d" % next(self._sk)
        return ("c", name) if not univ else ("f", name, tuple(univ))


def _term(a, env: Dict, world_env: Dict) -> Term:
    """Map an AST argument (Ref or world string) to a prover term."""
    if isinstance(a, str):
        return world_env.get(a, ("c", a))
    r = a.find()
    if r in env:
        return env[r]
    # free individual ref = named constant
    return ("c", "ref:%s" % (r.name or id(r)))


def _cnf(f, env: Dict, world_env: Dict, univ: List[Term],
         sk: _Skolemizer) -> List[List[Literal]]:
    """NNF formula → CNF clause list (Skolemizing on the way down).
    ``env`` binds Refs, ``world_env`` binds world-variable strings."""
    if f is TOP:
        return []
    if isinstance(f, Not):
        if f.body is TOP:
            return [[]]        # ⊥: the empty clause
        assert isinstance(f.body, Pred)
        p = f.body
        return [[(False, p.name,
                  tuple(_term(a, env, world_env) for a in p.args))]]
    if isinstance(f, Pred):
        return [[(True, f.name,
                  tuple(_term(a, env, world_env) for a in f.args))]]
    if isinstance(f, And):
        out: List[List[Literal]] = []
        for p in f.parts:
            out.extend(_cnf(p, env, world_env, univ, sk))
        return out
    if isinstance(f, FOr):
        left = _cnf(f.left, env, world_env, univ, sk)
        right = _cnf(f.right, env, world_env, univ, sk)
        # distribute: size guard keeps pathological inputs bounded
        if len(left) * len(right) > 512:
            raise ResourceWarning("CNF blow-up")
        return [lc + rc for lc in left for rc in right]
    if isinstance(f, Exists):
        t = sk.skolem(univ)
        if isinstance(f.var, str):
            return _cnf(f.body, env, {**world_env, f.var: t}, univ, sk)
        return _cnf(f.body, {**env, f.var.find(): t}, world_env,
                    univ, sk)
    if isinstance(f, ForAll):
        v = sk.fresh_var()
        if isinstance(f.var, str):
            return _cnf(f.body, env, {**world_env, f.var: v},
                        univ + [v], sk)
        return _cnf(f.body, {**env, f.var.find(): v}, world_env,
                    univ + [v], sk)
    raise TypeError("not in NNF: %r" % (f,))


def clausify(f, world: str = "w", negate: bool = False,
             sk: Optional[_Skolemizer] = None) -> List[Clause]:
    """Formula (the :mod:`ie_ray.drt.fol` AST) → clause set."""
    sk = sk or _Skolemizer()
    nnf = _nnf(f, not negate, world)
    return [frozenset(c) for c in _cnf(nnf, {}, {}, [], sk)]


# ---------------------------------------------------------------------------
# unification + resolution
# ---------------------------------------------------------------------------

def _walk(t: Term, s: Dict[Term, Term]) -> Term:
    while t[0] == "v" and t in s:
        t = s[t]
    return t


def _occurs(v: Term, t: Term, s: Dict[Term, Term]) -> bool:
    t = _walk(t, s)
    if t == v:
        return True
    if t[0] == "f":
        return any(_occurs(v, a, s) for a in t[2])
    return False


def unify(a: Term, b: Term,
          s: Optional[Dict[Term, Term]]) -> Optional[Dict[Term, Term]]:
    if s is None:
        return None
    a, b = _walk(a, s), _walk(b, s)
    if a == b:
        return s
    if a[0] == "v":
        if _occurs(a, b, s):
            return None
        return {**s, a: b}
    if b[0] == "v":
        return unify(b, a, s)
    if a[0] == "f" and b[0] == "f" and a[1] == b[1] \
            and len(a[2]) == len(b[2]):
        for x, y in zip(a[2], b[2]):
            s = unify(x, y, s)
            if s is None:
                return None
        return s
    return None


def _subst(t: Term, s: Dict[Term, Term]) -> Term:
    t = _walk(t, s)
    if t[0] == "f":
        return ("f", t[1], tuple(_subst(a, s) for a in t[2]))
    return t


def _apply(c: Clause, s: Dict[Term, Term]) -> Clause:
    return frozenset((sg, p, tuple(_subst(a, s) for a in args))
                     for (sg, p, args) in c)


def _rename(c: Clause, sk: _Skolemizer) -> Clause:
    ren: Dict[Term, Term] = {}
    out = set()
    for (sg, p, args) in c:
        new = []
        for a in args:
            new.append(_rename_term(a, ren, sk))
        out.add((sg, p, tuple(new)))
    return frozenset(out)


def _rename_term(t: Term, ren: Dict[Term, Term], sk: _Skolemizer) -> Term:
    if t[0] == "v":
        if t not in ren:
            ren[t] = sk.fresh_var()
        return ren[t]
    if t[0] == "f":
        return ("f", t[1], tuple(_rename_term(a, ren, sk) for a in t[2]))
    return t


def _resolvents(c1: Clause, c2: Clause,
                sk: _Skolemizer) -> List[Clause]:
    """All binary resolvents of c1 × c2 (c2 renamed apart); the caller
    adds each resolvent's factors (see :func:`_factors`)."""
    c2 = _rename(c2, sk)
    out = []
    for (sg1, p1, a1) in c1:
        for (sg2, p2, a2) in c2:
            if p1 != p2 or sg1 == sg2 or len(a1) != len(a2):
                continue
            s: Optional[Dict[Term, Term]] = {}
            for x, y in zip(a1, a2):
                s = unify(x, y, s)
                if s is None:
                    break
            if s is None:
                continue
            rest = (c1 - {(sg1, p1, a1)}) | (c2 - {(sg2, p2, a2)})
            out.append(_apply(rest, s))
    return out


def _factors(c: Clause) -> List[Clause]:
    """All binary factors of ``c`` (unify two same-sign literals and
    merge them).  Binary resolution alone is incomplete — the classic
    counterexample needs a factor of p(x)∨p(y) — so every derived
    clause contributes its factors too."""
    lits = list(c)
    out = []
    for i in range(len(lits)):
        sg1, p1, a1 = lits[i]
        for j in range(i + 1, len(lits)):
            sg2, p2, a2 = lits[j]
            if sg1 != sg2 or p1 != p2 or len(a1) != len(a2):
                continue
            s: Optional[Dict[Term, Term]] = {}
            for x, y in zip(a1, a2):
                s = unify(x, y, s)
                if s is None:
                    break
            if s is not None:
                f = _apply(c, s)
                if f != c:
                    out.append(f)
    return out


# equality predicates of the discharged DRS fragment: alias identity
# from appositives/proper-name merge (_AKA) plus conventional spellings
EQ_PREDS = frozenset(("_EQ", "_AKA", "="))


def _equality_axioms(clauses: List[Clause],
                     sk: "_Skolemizer") -> List[Clause]:
    """Equality-theory axioms generated per SIGNATURE: reflexivity,
    symmetry, transitivity, and congruence (substitution) over every
    predicate and function symbol occurring in the clause set.  The
    equality predicate may be world-threaded (``eq(w, x, y)`` from the
    modal translation) — the leading context args are shared variables
    inside each axiom, so equality never crosses worlds."""
    eq_sigs: Dict[Tuple[str, int], bool] = {}
    preds: Dict[Tuple[str, int], bool] = {}
    funcs: Dict[Tuple[str, int], bool] = {}

    def scan_term(t: Term) -> None:
        if t[0] == "f":
            funcs[(t[1], len(t[2]))] = True
            for a in t[2]:
                scan_term(a)

    for c in clauses:
        for (_sg, p, args) in c:
            if p in EQ_PREDS and len(args) >= 2:
                eq_sigs[(p, len(args))] = True
            else:
                preds[(p, len(args))] = True
            for a in args:
                scan_term(a)

    out: List[Clause] = []
    for (eq, ar) in eq_sigs:
        def eqlit(sign, ctx, a, b, _eq=eq):
            return (sign, _eq, tuple(ctx) + (a, b))

        nctx = ar - 2
        ctx = [sk.fresh_var() for _ in range(nctx)]
        x, y, z = sk.fresh_var(), sk.fresh_var(), sk.fresh_var()
        out.append(frozenset([eqlit(True, ctx, x, x)]))
        out.append(frozenset([eqlit(False, ctx, x, y),
                              eqlit(True, ctx, y, x)]))
        out.append(frozenset([eqlit(False, ctx, x, y),
                              eqlit(False, ctx, y, z),
                              eqlit(True, ctx, x, z)]))
        for (p, n) in preds:
            for i in range(n):
                ctx2 = [sk.fresh_var() for _ in range(nctx)]
                a1 = tuple(sk.fresh_var() for _ in range(n))
                yv = sk.fresh_var()
                a2 = list(a1)
                a2[i] = yv
                out.append(frozenset([
                    eqlit(False, ctx2, a1[i], yv),
                    (False, p, a1),
                    (True, p, tuple(a2))]))
        for (fname, n) in funcs:
            for i in range(n):
                ctx2 = [sk.fresh_var() for _ in range(nctx)]
                a1 = tuple(sk.fresh_var() for _ in range(n))
                yv = sk.fresh_var()
                a2 = list(a1)
                a2[i] = yv
                out.append(frozenset([
                    eqlit(False, ctx2, a1[i], yv),
                    eqlit(True, ctx2, ("f", fname, a1),
                          ("f", fname, tuple(a2)))]))
    return out


def refute(clauses: List[Clause], support: List[Clause],
           max_clauses: int = 4000,
           max_literals: int = 12) -> Optional[bool]:
    """Set-of-support resolution with factoring.  ``True`` = empty
    clause derived (unsatisfiable), ``False`` = saturated without any
    clause having been pruned (a COMPLETE 'satisfiable w.r.t. this
    strategy' answer), ``None`` = unknown — clause budget exhausted OR
    saturation was reached only because the ``max_literals`` bound
    discarded resolvents (a pruned search must not claim a definitive
    non-entailment)."""
    sk = _Skolemizer()
    # bump the variable counter past every input variable so renaming
    # can never collide
    for c in clauses + support:
        for (_, _, args) in c:
            for a in args:
                _bump(a, sk)
    usable = list(clauses)
    sos = list(support)
    if any(p in EQ_PREDS for cl in usable + sos for (_s, p, _a) in cl):
        # equality theory per signature (Brand-style axiomatization):
        # the DRS fragment discharges alias identity (_AKA / _EQ) that
        # the prover previously treated as an opaque predicate
        usable.extend(_equality_axioms(usable + sos, sk))
    for c in list(sos):
        sos.extend(_factors(c))
    seen = set(usable) | set(sos)
    if frozenset() in seen:
        return True
    pruned = False
    i = 0
    while i < len(sos):
        given = sos[i]
        i += 1
        for other in usable + sos[:i]:
            for r in _resolvents(given, other, sk):
                for cand in [r] + _factors(r):
                    if cand in seen:
                        continue
                    if len(cand) > max_literals:
                        pruned = True
                        continue
                    if not cand:
                        return True
                    # forward subsumption by unit clauses (cheap,
                    # effective)
                    if any(len(u) == 1 and next(iter(u)) in cand
                           for u in usable if len(u) == 1):
                        continue
                    seen.add(cand)
                    sos.append(cand)
                    if len(seen) > max_clauses:
                        return None
    return None if pruned else False


def _bump(t: Term, sk: _Skolemizer) -> None:
    if t[0] == "v":
        while next(sk._var) < t[1] + 1:
            pass
    elif t[0] == "f":
        for a in t[2]:
            _bump(a, sk)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def entails(premises: List, goal, world: str = "w",
            max_clauses: int = 4000) -> Optional[bool]:
    """``premises ⊨ goal``?  Refutation of premises ∧ ¬goal with the
    negated goal as set-of-support.  ``None`` = budget exhausted.

    SoS resolution is refutation-complete only when the usable set (the
    premises) is satisfiable; with INCONSISTENT premises the refutation
    lies entirely inside the usable set and the goal-supported search
    never finds it (ex falso: inconsistent premises entail everything).
    So a saturated ``False`` is only trusted after a second refutation
    pass over the premise clauses alone establishes their consistency;
    if that pass refutes them the answer is ``True``, and if it runs out
    of budget the ``False`` is downgraded to ``None``.  (ADVICE r4.)
    """
    sk = _Skolemizer()
    axioms: List[Clause] = []
    for p in premises:
        axioms.extend(clausify(p, world=world, sk=sk))
    support = clausify(goal, world=world, negate=True, sk=sk)
    r = refute(axioms, support, max_clauses=max_clauses)
    if r is not False or not axioms:
        return r
    consistent = refute([], axioms, max_clauses=max_clauses)
    if consistent is True:      # premises themselves unsatisfiable
        return True
    if consistent is None:      # consistency not established in budget
        return None
    return False


def valid(goal, world: str = "w",
          max_clauses: int = 4000) -> Optional[bool]:
    """Is ``goal`` a theorem?  (entailment from no premises)"""
    return entails([], goal, world=world, max_clauses=max_clauses)


def satisfiable(f, world: str = "w",
                max_clauses: int = 4000) -> Optional[bool]:
    """``False`` = refuted (unsatisfiable), ``True`` = saturated
    without refutation, ``None`` = unknown (budget)."""
    clauses = clausify(f, world=world)
    r = refute([], clauses, max_clauses=max_clauses)
    if r is None:
        return None
    return not r
