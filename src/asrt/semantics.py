"""Stratified falsity sets as an executable, bounded-domain auditor.

Stage by stage, a sentence is judged *in* the falsity set, *out* of it, or
*indeterminate*:

* t = t' is in at every stage when the two sides evaluate differently;
* box(t) is never in at stage 0, and is in at stage i+1 when the value of t
  codes a sentence in at stage i;
* a conjunction is in when either conjunct is, a disjunction when both are;
* a universal sentence is in when some instance is, an existential sentence
  when every instance is;
* A -> B is in at stage i when for some j <= i, A is out at j and B is in
  at j.

The sets quantify over all naturals; a faithful decision procedure is
impossible, so quantifiers are scanned over 0..bound and the third verdict
records bound exhaustion.  Definitive universal/existential verdicts are
still issued for recognized tame matrices: quantifier-free arithmetic whose
atoms are polynomial equalities in the quantified variable, where a root
bound makes every atom's truth eventually constant.  Verdicts are monotone
across stages, and raising the bound only resolves indeterminates.

Only the box clause reads the stage, so a box-free formula has the same
verdict at every stage and is judged at stage 0.  Formulas are judged under
an assignment of naturals to their free variables: a quantifier instance
binds its variable to a value instead of substituting a numeral, and atoms
evaluate their terms under the assignment.

Sentences mentioning kappa constants are outside the ledger's domain.

A corpus-level auditor checks that no accepted theorem lands in the set and
spot-checks stability under quantified modus ponens.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .syntax import (
    And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Or, Rel, Succ, Term, Var,
    Add, Mul,
    EvalError, NotAFormula, decode_code, eval_term, fmt, numeral_of,
    substitute,
)
from .kernel import MPStep, ProofObject, code_relation_holds, get_theory

__all__ = ["Verdict", "FalsityLedger", "AuditReport", "audit_corpus"]


class Verdict(enum.Enum):
    IN = "in"
    OUT = "out"
    INDETERMINATE = "indeterminate"


IN, OUT, INDET = Verdict.IN, Verdict.OUT, Verdict.INDETERMINATE

_TAME_THRESHOLD_CAP = 4096


class FalsityLedger:
    """Memoized tri-state membership evaluator for the stratified falsity
    sets, with stage count ``stages`` and quantifier scan bound ``bound``.

    Formulas are judged under an assignment ``env`` of naturals to their
    free variables, so a quantifier instance is the body with one more
    binding, not a new sentence.  The memo holds sentences and box-bearing
    formulas, keyed by formula, stage and the values of the free variables;
    box-free open formulas are cheap to recompute and are not cached."""

    def __init__(self, stages: int = 8, bound: int = 64):
        if stages < 0 or bound < 0:
            raise ValueError("stages and bound must be naturals")
        self.stages = stages
        self.bound = bound
        self._memo: dict[tuple[Formula, int, tuple[int, ...]], Verdict] = {}

    def member(self, a: Formula, stage: int) -> Verdict:
        """Membership verdict for sentence ``a`` at the given stage."""
        if a.free:
            raise ValueError("the falsity sets contain sentences only")
        if a.has_kappa:
            raise ValueError("kappa constants are outside the ledger domain")
        if not 0 <= stage <= self.stages:
            raise ValueError(f"stage must lie in 0..{self.stages}")
        return self._member(a, stage, {})

    def _member(self, a: Formula, i: int, env: dict[str, int]) -> Verdict:
        if not a.has_box:
            # only the box clause reads the stage
            if a.free:
                return self._compute(a, 0, env)
            i = 0
        key = (a, i, tuple(env[v] for v in sorted(a.free)))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        v = self._compute(a, i, env)
        self._memo[key] = v
        return v

    def _compute(self, a: Formula, i: int, env: dict[str, int]) -> Verdict:
        if isinstance(a, Eq):
            try:
                return (IN if _value(a.left, env) != _value(a.right, env)
                        else OUT)
            except EvalError:
                return INDET
        if isinstance(a, Box):
            if i == 0:
                return OUT
            try:
                g = _value(a.arg, env)
            except EvalError:
                return INDET
            content = decode_code(g)
            if (isinstance(content, NotAFormula) or content.free
                    or content.has_kappa):
                return OUT   # t does not code a sentence in the domain
            return self._member(content, i - 1, {})
        if isinstance(a, Rel):
            closed = a
            for v in a.free:
                closed = substitute(closed, v, numeral_of(env[v]))
            return self._rel_verdict(closed)
        if isinstance(a, And):
            l, r = self._member(a.left, i, env), self._member(a.right, i, env)
            if IN in (l, r):
                return IN
            if l is OUT and r is OUT:
                return OUT
            return INDET
        if isinstance(a, Or):
            l, r = self._member(a.left, i, env), self._member(a.right, i, env)
            if l is IN and r is IN:
                return IN
            if OUT in (l, r):
                return OUT
            return INDET
        if isinstance(a, Imp):
            definite_out = True
            for j in range(i + 1):
                l = self._member(a.left, j, env)
                r = self._member(a.right, j, env)
                if l is OUT and r is IN:
                    return IN
                if not (l is IN or r is OUT):
                    definite_out = False
            return OUT if definite_out else INDET
        if isinstance(a, (Forall, Exists)):
            return self._quantifier(a, i, env)
        raise AssertionError("unreachable")

    def _rel_verdict(self, a: Rel) -> Verdict:
        """ax and proofof atoms are decidable arithmetic, so their falsity
        status is their classical falsity; other relation atoms are opaque."""
        qual = a.name.partition(":")[2]
        theory = get_theory(qual) if qual else None
        try:
            holds = code_relation_holds(a, theory) if theory is not None else None
        except EvalError:
            return INDET
        if holds is None:
            return INDET
        return OUT if holds else IN

    def _quantifier(self, a: Formula, i: int, env: dict[str, int]) -> Verdict:
        var, body = a.var, a.body
        threshold = _tame_threshold(body, var, env)
        limit = self.bound
        if threshold is not None and threshold <= _TAME_THRESHOLD_CAP:
            limit = max(limit, threshold + 1)
            tame = True
        else:
            tame = False
        env = dict(env)
        verdicts = set()
        for n in range(limit + 1):
            env[var] = n
            v = self._member(body, i, env)
            verdicts.add(v)
            if isinstance(a, Forall) and v is IN:
                return IN
            if isinstance(a, Exists) and v is OUT:
                return OUT
        if isinstance(a, Forall):
            # no scanned instance is in; definitive only with a certificate
            return OUT if tame and verdicts <= {OUT} else INDET
        return IN if tame and verdicts <= {IN} else INDET


def _value(t: Term, env: dict[str, int]) -> int:
    """Value of term ``t`` under ``env``, which assigns its free variables.
    Closed subterms go to the trusted evaluator and keep its memo; a
    definitional symbol over a bound variable is applied to the numerals of
    its arguments' values, so it too keeps one implementation and budget."""
    if not t.free:
        return eval_term(t)
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Succ):
        return _value(t.arg, env) + 1
    if isinstance(t, Add):
        return _value(t.left, env) + _value(t.right, env)
    if isinstance(t, Mul):
        return _value(t.left, env) * _value(t.right, env)
    if isinstance(t, Fn):
        return eval_term(Fn(t.name, [numeral_of(_value(u, env)) for u in t.args]))
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Tame-matrix analysis: polynomial atoms in one variable
# ---------------------------------------------------------------------------

def _poly_of(t: Term, var: str, env: dict[str, int]) -> Optional[list[int]]:
    """Dense integer polynomial in ``var``, constant coefficient first, or
    None when the term is not polynomial in that variable; the other
    variables take their values from ``env``."""
    if t.canon is not None:
        return [t.canon]
    if isinstance(t, Var):
        return [0, 1] if t.name == var else [env[t.name]]
    if isinstance(t, Succ):
        p = _poly_of(t.arg, var, env)
        if p is None:
            return None
        q = list(p)
        q[0] += 1
        return q
    if isinstance(t, Add):
        p, q = _poly_of(t.left, var, env), _poly_of(t.right, var, env)
        if p is None or q is None:
            return None
        out = [0] * max(len(p), len(q))
        for k, c in enumerate(p):
            out[k] += c
        for k, c in enumerate(q):
            out[k] += c
        return out
    if isinstance(t, Mul):
        p, q = _poly_of(t.left, var, env), _poly_of(t.right, var, env)
        if p is None or q is None:
            return None
        out = [0] * (len(p) + len(q) - 1)
        for k, c in enumerate(p):
            if c:
                for m, d in enumerate(q):
                    out[k + m] += c * d
        return out
    return None   # Fn, Kappa


def _atom_threshold(left: Term, right: Term, var: str,
                    env: dict[str, int]) -> Optional[int]:
    p, q = _poly_of(left, var, env), _poly_of(right, var, env)
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
    except OverflowError:
        return None
    return int(2 * radius) + 2        # Fujiwara root bound, with margin


def _tame_threshold(body: Formula, var: str,
                    env: dict[str, int]) -> Optional[int]:
    """A bound N such that for n > N every atom's truth value is constant,
    when the matrix is quantifier-free arithmetic with polynomial atoms in
    the single variable, the others valued by ``env``; None otherwise."""
    if isinstance(body, Eq):
        return _atom_threshold(body.left, body.right, var, env)
    if isinstance(body, (And, Or, Imp)):
        l = _tame_threshold(body.left, var, env)
        r = _tame_threshold(body.right, var, env)
        if l is None or r is None:
            return None
        return max(l, r)
    return None   # quantifiers, box, relations


# ---------------------------------------------------------------------------
# Corpus auditing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    stage: int
    bound: int
    flagged: tuple[tuple[Formula, Verdict], ...]   # theorems judged in: failures
    out_count: int
    indeterminate_count: int
    skipped: int                                   # kappa sentences, out of domain
    mp_checked: int
    mp_violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.flagged and not self.mp_violations

    def json_lines(self) -> str:
        rows = []
        for sentence, verdict in self.flagged:
            rows.append(json.dumps({"kind": "failure", "verdict": verdict.value,
                                    "sentence": fmt(sentence)}))
        rows.append(json.dumps({
            "kind": "audit", "ok": self.ok, "stage": self.stage,
            "bound": self.bound, "flagged": len(self.flagged),
            "out": self.out_count, "indeterminate": self.indeterminate_count,
            "skipped": self.skipped, "mp_checked": self.mp_checked,
            "mp_violations": list(self.mp_violations)}))
        return "\n".join(rows)


def audit_corpus(ledger: FalsityLedger, proofs: Sequence[ProofObject],
                 stage: int, mp_samples: int = 200) -> AuditReport:
    """Judge every proof's conclusion; any *in* verdict is a failure.  Also
    spot-check stability under quantified modus ponens: whenever both
    premises of a sampled inference are out, the conclusion must not be in.
    Kappa-mentioning conclusions are outside the ledger domain and are
    counted as skipped."""
    flagged = []
    out_count = indet_count = skipped = 0
    for proof in proofs:
        if proof.conclusion.has_kappa:
            skipped += 1
            continue
        v = ledger.member(proof.conclusion, stage)
        if v is IN:
            flagged.append((proof.conclusion, v))
        elif v is OUT:
            out_count += 1
        else:
            indet_count += 1
    checked = 0
    violations = []
    for pi, proof in enumerate(proofs):
        for line in proof.lines:
            if checked >= mp_samples:
                break
            if not isinstance(line.step, MPStep) or line.sentence.has_kappa:
                continue
            minor = proof.lines[line.step.minor].sentence
            major = proof.lines[line.step.major].sentence
            if minor.has_kappa or major.has_kappa:
                continue
            checked += 1
            if (ledger.member(minor, stage) is OUT
                    and ledger.member(major, stage) is OUT
                    and ledger.member(line.sentence, stage) is IN):
                violations.append(pi)
    return AuditReport(stage, ledger.bound, tuple(flagged), out_count,
                       indet_count, skipped, checked, tuple(violations))
