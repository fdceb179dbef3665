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
records bound exhaustion.  Verdicts are monotone across stages, and raising
the bound only resolves indeterminates.  Sentences mentioning kappa
constants are outside the ledger's domain.

A ledger compiles each formula once, into one table entry built from the
entries of its parts: its judge, a closure ``(stage, env) -> Verdict`` under
an assignment ``env`` of naturals to its free variables, and its reach set,
the definite verdicts the judge can return at some stage under some
assignment (an abstract interpretation on the subsets of {in, out};
indeterminate is always possible).

Judges.  A quantifier instance binds its variable to a value instead of
substituting a numeral.  Only the box clause reads the stage, so a box-free
formula has the same verdict at every stage and its implications need no
scan over earlier stages.  Connectives judge their left side first and stop
at the deciding verdict (a conjunction at a side in, a disjunction at one
out, an implication stage at a left side in); both sides are pure functions
of formula, stage and assignment, so this changes no verdict.  The verdicts
of sentences and box-bearing formulas are memoized by stage and the values
of the free variables; a box atom's content (the judge of the sentence its
term codes, OUT or INDET) does not depend on the stage, so it is found once
per assignment.  An ax atom of one argument or a proofof atom of two,
qualified by a preset theory (ax pa, proofof sbox-pa), is decided against
that preset, resolved when the atom is compiled; any other relation atom
(prov, act<i>, gamma, or one naming another theory) is opaque: a constant
indeterminate, its arguments unvalued.

Reach sets.  An equation, a box atom and a decided relation atom can give
both verdicts, an opaque atom neither; a conjunction can be in when either
side can, and out when both can; a disjunction dually; A -> B can be in when
A can be out and B in, and out when A can be in or B out; a quantifier as its
body, unless it is pruned.

Quantifiers.  A universal stops at an instance in, an existential at one
out.  The other definite verdict needs every instance to give it, so it is
issued only with a certificate: a tame body (quantifier-free arithmetic
whose atoms are polynomial equalities in the variable) has a root bound n,
compiled with the quantifier, past which every atom's truth is constant.  A
tame body is box-free and cannot fail to evaluate, so every instance past n
judges as instance n + 1, and a certified scan stops there whatever the
bound.  Two cases need no scan at all:

* The invariant part: the part of the body that does not read the variable
  (the whole body, or the left side of an and, or or box-free ->) is judged
  once per entry.  When its verdict fixes every instance's (any verdict of
  the whole body; a left side in for and or ->, out for or), the quantifier
  gives what a scan whose instances all give that verdict would.
* Pruning: a quantifier whose body cannot give its stopping verdict is a
  constant indeterminate, and its entry reaches nothing.  This changes no
  verdict: the stopping verdict needs an instance, or the invariant part,
  to give it, and the other one a certificate, which such a body never has,
  since a tame body's atoms are all equations and so it can give both.
  These are the indeterminates that an opaque relation atom causes.

A corpus-level auditor checks that no accepted theorem lands in the set and
spot-checks stability under quantified modus ponens.
"""

from __future__ import annotations

import enum
from itertools import zip_longest
from typing import Callable, Optional, Sequence

from .syntax import (
    And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Or, Rel, Succ, Term, Var,
    Add, Mul, ONE, ZERO,
    EvalError, NotAFormula, decode_code, eval_term, fmt, numeral_of,
    substitute,
)
from .kernel import (
    MPStep, ProofObject, TheoryConfig, Record, UnknownTheoryError,
    code_relation_holds, decidable_relation, preset_theory,
)

__all__ = ["Verdict", "FalsityLedger", "AuditReport", "audit_corpus"]


class Verdict(enum.Enum):
    IN = "in"
    OUT = "out"
    INDETERMINATE = "indeterminate"


IN, OUT, INDET = Verdict.IN, Verdict.OUT, Verdict.INDETERMINATE

_TAME_THRESHOLD_CAP = 4096
# a verdict of a quantifier body's invariant part -> the verdict it fixes for
# every instance: the left side of an and, or or box-free ->, or the whole body
_FIXING = {And: {IN: IN}, Or: {OUT: OUT}, Imp: {IN: OUT}}
_WHOLE = {v: v for v in Verdict}
# (can be in, can be out) -> the set of definite verdicts a judge can return
_REACHABLE = {(True, True): frozenset({IN, OUT}), (True, False): frozenset({IN}),
              (False, True): frozenset({OUT}), (False, False): frozenset()}
BOTH, NEITHER = _REACHABLE[True, True], _REACHABLE[False, False]

Env = dict[str, int]
Judge = Callable[[int, Env], Verdict]      # compiled formula: (stage, env)
Entry = tuple[Judge, frozenset[Verdict]]   # a judge and its reach set
Value = Callable[[Env], int]               # compiled term


class FalsityLedger:
    """Memoized tri-state membership evaluator for the stratified falsity
    sets, with stage count ``stages`` and quantifier scan bound ``bound``;
    its table holds each formula's judge and reach set (see the module
    docstring)."""

    def __init__(self, stages: int = 8, bound: int = 64):
        if stages < 0 or bound < 0:
            raise ValueError("stages and bound must be naturals")
        self.stages = stages
        self.bound = bound
        # formula -> its entry, compiled once
        self._table: dict[Formula, Entry] = {}
        # (formula, stage, values) -> verdict; (box atom, values) -> content
        self._memo: dict[tuple, Verdict | Judge] = {}

    def member(self, a: Formula, stage: int) -> Verdict:
        """Membership verdict for sentence ``a`` at the given stage."""
        if a.free:
            raise ValueError("the falsity sets contain sentences only")
        if a.has_kappa:
            raise ValueError("kappa constants are outside the ledger domain")
        if not 0 <= stage <= self.stages:
            raise ValueError(f"stage must lie in 0..{self.stages}")
        return self._entry(a)[0](stage, {})

    def _entry(self, a: Formula) -> Entry:
        """``a``'s judge and reach set, compiled on first use; the judge of
        a sentence or a box-bearing formula other than a box atom (which
        keeps its content) goes through the memo."""
        entry = self._table.get(a)
        if entry is None:
            judge, reach = self._compile(a)
            if (a.has_box or not a.free) and not isinstance(a, Box):
                judge = _memoized(a, judge, self._memo)
            entry = self._table[a] = judge, reach
        return entry

    def _compile(self, a: Formula) -> Entry:
        if isinstance(a, Eq):
            left, right = _compile_term(a.left), _compile_term(a.right)

            def eq(i: int, env: Env) -> Verdict:
                try:
                    return IN if left(env) != right(env) else OUT
                except EvalError:
                    return INDET
            return eq, BOTH
        if isinstance(a, Box):
            arg, names = _compile_term(a.arg), sorted(a.free)
            memo, entry = self._memo, self._entry

            def box(i: int, env: Env) -> Verdict:
                if i == 0:
                    return OUT
                # the content is stage-free: found once per assignment
                key = (a, tuple([env[v] for v in names]))
                content = memo.get(key)
                if content is None:
                    try:
                        g = arg(env)
                    except EvalError:
                        content = INDET
                    else:
                        b = decode_code(g)
                        if isinstance(b, NotAFormula) or b.free or b.has_kappa:
                            content = OUT   # t codes no sentence in the domain
                        else:
                            content = entry(b)[0]
                    memo[key] = content
                if content is OUT or content is INDET:
                    return content
                return content(i - 1, {})
            return box, BOTH
        if isinstance(a, Rel):
            theory = _deciding_preset(a)
            if theory is None:
                return _indeterminate, NEITHER   # opaque: no preset decides it

            def rel(i: int, env: Env) -> Verdict:
                closed = a
                for v in a.free:
                    closed = substitute(closed, v, numeral_of(env[v]))
                return _rel_verdict(closed, theory)
            return rel, BOTH
        if isinstance(a, (Forall, Exists)):
            return self._quantifier(a)
        (left, l), (right, r) = self._entry(a.left), self._entry(a.right)
        if isinstance(a, (And, Or)):
            # a conjunction stops at a side in, a disjunction at one out
            stop, rest = (IN, OUT) if isinstance(a, And) else (OUT, IN)

            def junction(i: int, env: Env) -> Verdict:
                l = left(i, env)
                if l is stop:
                    return stop
                r = right(i, env)
                if r is stop:
                    return stop
                return rest if l is rest and r is rest else INDET
            # it can stop when either side can, and give rest when both can
            return junction, frozenset({stop} & (l | r) | {rest} & l & r)
        if not isinstance(a, Imp):
            raise AssertionError("unreachable")
        reach = _REACHABLE[OUT in l and IN in r, IN in l or OUT in r]
        if not a.has_box:
            def imp(i: int, env: Env) -> Verdict:
                l = left(0, env)
                if l is IN:
                    return OUT
                r = right(0, env)
                if r is OUT:
                    return OUT
                return IN if l is OUT and r is IN else INDET
            return imp, reach

        def staged_imp(i: int, env: Env) -> Verdict:
            definite_out = True
            for j in range(i + 1):
                l = left(j, env)
                if l is IN:
                    continue
                r = right(j, env)
                if l is OUT and r is IN:
                    return IN
                if r is not OUT:
                    definite_out = False
            return OUT if definite_out else INDET
        return staged_imp, reach

    def _quantifier(self, a: Formula) -> Entry:
        var, body, bound = a.var, a.body, self.bound
        # a universal stops at an instance in, an existential at one out
        stop, rest = (IN, OUT) if isinstance(a, Forall) else (OUT, IN)
        judge, reach = self._entry(body)
        if stop not in reach:
            # no instance can stop, and a body whose atoms are not all
            # equations has no certificate, so nothing is definitive
            return _indeterminate, NEITHER
        threshold = _threshold(body, var)

        def tame(env: Env) -> Optional[int]:   # the certifying root bound
            n = threshold(env) if threshold else None
            return n if n is not None and n <= _TAME_THRESHOLD_CAP else None

        # the invariant part, judged once per entry, and the verdicts of it
        # that fix every instance's
        part, fixing = None, _WHOLE
        if var not in body.free:
            part = judge
        elif (isinstance(body, (And, Or, Imp)) and var not in body.left.free
                and not (isinstance(body, Imp) and body.has_box)):
            part, fixing = self._entry(body.left)[0], _FIXING[type(body)]

        def quantifier(i: int, env: Env) -> Verdict:
            if part is not None:
                fixed = fixing.get(part(i, env))
                if fixed is stop:
                    return stop
                if fixed is not None:
                    # as a scan whose instances all judge fixed
                    return rest if fixed is rest and tame(env) is not None else INDET
            n = tame(env)
            # past n + 1 every instance judges as instance n + 1
            limit = bound if n is None else n + 1
            env = dict(env)
            uniform = True
            for k in range(limit + 1):
                env[var] = k
                v = judge(i, env)
                if v is stop:
                    return stop
                if v is not rest:
                    uniform = False
            # definitive only with a certificate
            return rest if n is not None and uniform else INDET
        return quantifier, reach


def _memoized(a: Formula, judge: Judge, memo: dict) -> Judge:
    """``judge`` with its verdicts kept in ``memo``, keyed by formula, stage
    (0 for a box-free formula) and the values of the free variables."""
    names, staged = sorted(a.free), a.has_box

    def memoized(i: int, env: Env) -> Verdict:
        key = (a, i if staged else 0, tuple([env[v] for v in names]))
        v = memo.get(key)
        if v is None:
            v = memo[key] = judge(i, env)
        return v
    return memoized


def _indeterminate(i: int, env: Env) -> Verdict:
    return INDET


def _deciding_preset(a: Rel) -> Optional[TheoryConfig]:
    """The preset that decides relation atom ``a``: an ax atom of one
    argument or a proofof atom of two, qualified by a preset's name; None
    for an opaque atom."""
    if not decidable_relation(a):
        return None
    try:
        return preset_theory(a.name.partition(":")[2])
    except UnknownTheoryError:
        return None


def _rel_verdict(a: Rel, theory: TheoryConfig) -> Verdict:
    """ax and proofof atoms about ``theory`` are decidable arithmetic, so
    their falsity status is their classical falsity; other relation atoms
    are opaque."""
    try:
        holds = code_relation_holds(a, theory)
    except EvalError:
        return INDET
    if holds is None:
        return INDET
    return OUT if holds else IN


def _compile_term(t: Term) -> Value:
    """Closure giving the value of ``t`` under an assignment of its free
    variables.  Closed subterms go to the trusted evaluator and keep its
    memo; a definitional symbol over a bound variable is applied to the
    numerals of its arguments' values, so it too keeps one implementation
    and budget."""
    if t.canon is not None:
        value = t.canon
        return lambda env: value
    if not t.free:
        return lambda env: eval_term(t)
    if isinstance(t, Var):
        name = t.name
        return lambda env: env[name]
    if isinstance(t, Succ):
        arg = _compile_term(t.arg)
        return lambda env: arg(env) + 1
    if isinstance(t, Add):
        left, right = _compile_term(t.left), _compile_term(t.right)
        return lambda env: left(env) + right(env)
    if isinstance(t, Mul):
        left, right = _compile_term(t.left), _compile_term(t.right)
        return lambda env: left(env) * right(env)
    if isinstance(t, Fn):
        name, args = t.name, [_compile_term(u) for u in t.args]
        return lambda env: eval_term(Fn(name, [numeral_of(u(env)) for u in args]))
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Tame-matrix analysis: polynomial atoms in one variable
# ---------------------------------------------------------------------------

def _threshold(body: Formula, var: str) -> Optional[Callable[[Env], Optional[int]]]:
    """None unless the body is quantifier-free arithmetic with polynomial
    atoms in ``var``; else a closure giving, under the other variables'
    values, a bound N such that for n > N every atom's truth value is
    constant (None if a root bound overflows).  Atoms not reading ``var``
    are constant: bound 0.

    The analysis is compiled once, with the quantifier: a coefficient
    difference whose sides are closed is evaluated now, an atom whose
    differences are all constant gets its bound now, and a degree-one atom
    with a constant leading coefficient gets a closure for its one root;
    each gives the value that the generic computation would."""
    atoms: list[list[tuple[Term, Term]]] = []

    def tame_shaped(a: Formula) -> bool:
        if isinstance(a, (And, Or, Imp)):
            return tame_shaped(a.left) and tame_shaped(a.right)
        if not isinstance(a, Eq):
            return False                  # quantifiers, box, relations
        p, q = _coefficients(a.left, var), _coefficients(a.right, var)
        if p is None or q is None:
            return False
        if var in a.free:
            atoms.append(list(zip_longest(p, q, fillvalue=ZERO)))
        return True

    if not tame_shaped(body):
        return None
    fixed, bounds = 0, []
    for pairs in atoms:
        # each coefficient difference: an int when both sides are closed
        d: list = [eval_term(l) - eval_term(r) if not (l.free or r.free)
                   else (_compile_term(l), _compile_term(r)) for l, r in pairs]
        while d and d[-1] == 0:
            d.pop()
        if len(d) <= 1:
            continue                      # identically zero or a nonzero constant
        if all(type(c) is int for c in d):
            n = _root_bound(d)
            if n is None:
                return lambda env: None   # overflows under every assignment
            fixed = max(fixed, n)
        elif len(d) == 2 and type(d[1]) is int:
            bounds.append(_linear_bound(*d[0], abs(d[1])))
        else:
            bounds.append(_generic_bound(d))
    if not bounds:
        return lambda env: fixed

    def threshold(env: Env) -> Optional[int]:
        n = fixed
        for bound in bounds:
            m = bound(env)
            if m is None:
                return None
            if m > n:
                n = m
        return n
    return threshold


def _root_bound(d: list[int]) -> Optional[int]:
    """Fujiwara's bound on the roots of the polynomial with coefficients
    ``d`` (constant first), doubled and with a margin, so that no root lies
    at or past it; 0 when the polynomial is constant, None when the bound
    overflows a float."""
    while d and d[-1] == 0:
        d.pop()
    if len(d) <= 1:
        return 0                          # identically zero or a nonzero constant
    deg = len(d) - 1
    lead = abs(d[-1])
    radius = 0.0
    try:
        for k in range(1, deg + 1):
            c = abs(d[deg - k])
            if c:
                radius = max(radius, (c / lead) ** (1.0 / k))
        return int(2 * radius) + 2        # Fujiwara root bound, with margin
    except OverflowError:
        return None


def _generic_bound(d: list) -> Callable[[Env], Optional[int]]:
    """The root bound of an atom whose differences are ints or pairs of
    compiled sides, under an assignment."""
    def bound(env: Env) -> Optional[int]:
        return _root_bound([c if type(c) is int else c[0](env) - c[1](env)
                            for c in d])
    return bound


def _linear_bound(left: Value, right: Value, lead: int) -> Callable[[Env], Optional[int]]:
    """The root bound of ``(left - right) + lead * var``, ``lead`` a nonzero
    constant, with the float operations of ``_root_bound``."""
    def bound(env: Env) -> Optional[int]:
        c = abs(left(env) - right(env))
        if not c:
            return 2
        try:
            return int(2 * (c / lead) ** 1.0) + 2
        except OverflowError:
            return None
    return bound


def _coefficients(t: Term, var: str) -> Optional[list[Term]]:
    """Coefficients of ``t`` as a polynomial in ``var``, constant first, as
    terms in the other variables; None when ``t`` applies a definitional
    symbol or mentions a kappa."""
    if t.canon is not None or (isinstance(t, Var) and t.name != var):
        return [t]
    if isinstance(t, Var):
        return [ZERO, ONE]
    if isinstance(t, Succ):
        p = _coefficients(t.arg, var)
        return None if p is None else [Succ(p[0]), *p[1:]]
    if not isinstance(t, (Add, Mul)):
        return None                       # Fn, Kappa
    p, q = _coefficients(t.left, var), _coefficients(t.right, var)
    if p is None or q is None:
        return None
    if isinstance(t, Add):
        return [Add(l, r) for l, r in zip_longest(p, q, fillvalue=ZERO)]
    out: list[Term] = [ZERO] * (len(p) + len(q) - 1)
    for k, l in enumerate(p):
        for m, r in enumerate(q):
            out[k + m] = Add(out[k + m], Mul(l, r))
    return out


# ---------------------------------------------------------------------------
# Corpus auditing
# ---------------------------------------------------------------------------

class AuditReport(Record):
    __slots__ = ("stage", "bound",
                 "flagged",     # theorems judged in: failures, with their verdicts
                 "out_count", "indeterminate_count",
                 "skipped",     # kappa sentences, out of domain
                 "mp_checked", "mp_violations")

    def __init__(self, stage: int, bound: int,
                 flagged: tuple[tuple[Formula, Verdict], ...], out_count: int,
                 indeterminate_count: int, skipped: int, mp_checked: int,
                 mp_violations: tuple[int, ...]):
        self._init(stage, bound, flagged, out_count, indeterminate_count, skipped,
                   mp_checked, mp_violations)

    @property
    def ok(self) -> bool:
        return not self.flagged and not self.mp_violations

    def rows(self) -> list[dict]:
        """The audit's output records: one per flagged theorem, then the
        summary."""
        rows = [{"kind": "failure", "verdict": verdict.value, "sentence": fmt(sentence)}
                for sentence, verdict in self.flagged]
        rows.append({
            "kind": "audit", "ok": self.ok, "stage": self.stage,
            "bound": self.bound, "flagged": len(self.flagged),
            "out": self.out_count, "indeterminate": self.indeterminate_count,
            "skipped": self.skipped, "mp_checked": self.mp_checked,
            "mp_violations": list(self.mp_violations)})
        return rows


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
