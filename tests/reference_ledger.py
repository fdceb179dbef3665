"""Reference oracle for the falsity ledger: the substitution-based ledger
with its own copy of the tame-matrix analysis, kept as it was before the
ledger evaluated formulas under an assignment.  Every quantifier instance is
built as a new sentence with ``substitute`` and memoized once per stage, so
it is slow; tests compare its verdicts with ``asrt.semantics.FalsityLedger``
on small bounds."""

from __future__ import annotations

from typing import Optional

from asrt.kernel import UnknownTheoryError, code_relation_holds, preset_theory
from asrt.semantics import Verdict
from asrt.syntax import (
    And, Box, Eq, Exists, Forall, Formula, Imp, Or, Rel, Succ, Term, Var,
    Add, Mul,
    EvalError, NotAFormula, decode_code, eval_term, numeral_of, substitute,
)

IN, OUT, INDET = Verdict.IN, Verdict.OUT, Verdict.INDETERMINATE

_TAME_THRESHOLD_CAP = 4096


class FalsityLedger:
    """Memoized tri-state membership evaluator for the stratified falsity
    sets, with stage count ``stages`` and quantifier scan bound ``bound``."""

    def __init__(self, stages: int = 8, bound: int = 64):
        if stages < 0 or bound < 0:
            raise ValueError("stages and bound must be naturals")
        self.stages = stages
        self.bound = bound
        self._memo: dict[tuple[Formula, int], Verdict] = {}

    def member(self, a: Formula, stage: int) -> Verdict:
        """Membership verdict for sentence ``a`` at the given stage."""
        if a.free:
            raise ValueError("the falsity sets contain sentences only")
        if a.has_kappa:
            raise ValueError("kappa constants are outside the ledger domain")
        if not 0 <= stage <= self.stages:
            raise ValueError(f"stage must lie in 0..{self.stages}")
        return self._member(a, stage)

    def _member(self, a: Formula, i: int) -> Verdict:
        key = (a, i)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        v = self._compute(a, i)
        self._memo[key] = v
        return v

    def _compute(self, a: Formula, i: int) -> Verdict:
        if isinstance(a, Eq):
            try:
                return IN if eval_term(a.left) != eval_term(a.right) else OUT
            except EvalError:
                return INDET
        if isinstance(a, Box):
            if i == 0:
                return OUT
            try:
                g = eval_term(a.arg)
            except EvalError:
                return INDET
            content = decode_code(g)
            if (isinstance(content, NotAFormula) or content.free
                    or content.has_kappa):
                return OUT   # t does not code a sentence in the domain
            return self._member(content, i - 1)
        if isinstance(a, Rel):
            return self._rel_verdict(a)
        if isinstance(a, And):
            l, r = self._member(a.left, i), self._member(a.right, i)
            if IN in (l, r):
                return IN
            if l is OUT and r is OUT:
                return OUT
            return INDET
        if isinstance(a, Or):
            l, r = self._member(a.left, i), self._member(a.right, i)
            if l is IN and r is IN:
                return IN
            if OUT in (l, r):
                return OUT
            return INDET
        if isinstance(a, Imp):
            definite_out = True
            for j in range(i + 1):
                l, r = self._member(a.left, j), self._member(a.right, j)
                if l is OUT and r is IN:
                    return IN
                if not (l is IN or r is OUT):
                    definite_out = False
            return OUT if definite_out else INDET
        if isinstance(a, (Forall, Exists)):
            return self._quantifier(a, i)
        raise AssertionError("unreachable")

    def _rel_verdict(self, a: Rel) -> Verdict:
        """ax and proofof atoms are decidable arithmetic, so their falsity
        status is their classical falsity; other relation atoms are opaque."""
        try:
            holds = code_relation_holds(a, preset_theory(a.name.partition(":")[2]))
        except (EvalError, UnknownTheoryError):
            return INDET
        if holds is None:
            return INDET
        return OUT if holds else IN

    def _quantifier(self, a: Formula, i: int) -> Verdict:
        var, body = a.var, a.body
        threshold = _tame_threshold(body, var)
        limit = self.bound
        if threshold is not None and threshold <= _TAME_THRESHOLD_CAP:
            limit = max(limit, threshold + 1)
            tame = True
        else:
            tame = False
        verdicts = set()
        for n in range(limit + 1):
            v = self._member(substitute(body, var, numeral_of(n)), i)
            verdicts.add(v)
            if isinstance(a, Forall) and v is IN:
                return IN
            if isinstance(a, Exists) and v is OUT:
                return OUT
        if isinstance(a, Forall):
            # no scanned instance is in; definitive only with a certificate
            return OUT if tame and verdicts <= {OUT} else INDET
        return IN if tame and verdicts <= {IN} else INDET


# ---------------------------------------------------------------------------
# Tame-matrix analysis: polynomial atoms in one variable
# ---------------------------------------------------------------------------

def _poly_of(t: Term, var: str) -> Optional[list[int]]:
    """Dense integer polynomial in ``var``, constant coefficient first, or
    None when the term is not polynomial in that variable."""
    if t.canon is not None:
        return [t.canon]
    if isinstance(t, Var):
        return [0, 1] if t.name == var else None
    if isinstance(t, Succ):
        p = _poly_of(t.arg, var)
        if p is None:
            return None
        q = list(p)
        q[0] += 1
        return q
    if isinstance(t, Add):
        p, q = _poly_of(t.left, var), _poly_of(t.right, var)
        if p is None or q is None:
            return None
        out = [0] * max(len(p), len(q))
        for k, c in enumerate(p):
            out[k] += c
        for k, c in enumerate(q):
            out[k] += c
        return out
    if isinstance(t, Mul):
        p, q = _poly_of(t.left, var), _poly_of(t.right, var)
        if p is None or q is None:
            return None
        out = [0] * (len(p) + len(q) - 1)
        for k, c in enumerate(p):
            if c:
                for m, d in enumerate(q):
                    out[k + m] += c * d
        return out
    return None   # Fn, Kappa, foreign variables


def _atom_threshold(left: Term, right: Term, var: str) -> Optional[int]:
    p, q = _poly_of(left, var), _poly_of(right, var)
    if p is None or q is None:
        return None
    d = [0] * max(len(p), len(q))
    for k, c in enumerate(p):
        d[k] += c
    for k, c in enumerate(q):
        d[k] -= c
    while d and d[-1] == 0:
        d.pop()
    if not d or len(d) == 1:
        return 0                      # identically zero or a nonzero constant
    deg = len(d) - 1
    lead = abs(d[-1])
    radius = 0.0
    try:
        for k in range(1, deg + 1):
            c = abs(d[deg - k])
            if c:
                radius = max(radius, (c / lead) ** (1.0 / k))
        return int(2 * radius) + 2    # Fujiwara root bound, with margin
    except OverflowError:
        return None


def _tame_threshold(body: Formula, var: str) -> Optional[int]:
    """A bound N such that for n > N every atom's truth value is constant,
    when the matrix is quantifier-free arithmetic with polynomial atoms in
    the single variable; None otherwise."""
    if isinstance(body, Eq):
        return _atom_threshold(body.left, body.right, var)
    if isinstance(body, (And, Or, Imp)):
        l = _tame_threshold(body.left, var)
        r = _tame_threshold(body.right, var)
        if l is None or r is None:
            return None
        return max(l, r)
    return None   # quantifiers, box, relations
