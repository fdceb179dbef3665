"""Trusted core: theory configurations, axiom-scheme recognizers, the proof
checker, and trusted computation axioms.

The trusted core is this module plus the evaluator, codec and reader in
syntax.py, which is the only asrt module it imports.  Proof construction
lies outside it: the Builder kept here collects lines and leaves only
through accept, and the derived rules that fill one live in derive.py.
Code outside the core can make a proof fail, never make one accepted.

A proof is a finite sequence of closed sentences, each justified as an axiom
instance, as a trusted computation (a decidable closed atomic claim verified
by the evaluator), or by universally quantified modus ponens:

    from (forall n1 ... nk) A  and  (forall n1 ... nk) (A -> B)
    infer (forall n1 ... nk) B          (k >= 0)

That is the calculus's only rule.  n1 ... nk is the implication premise's
whole leading forall prefix, with pairwise distinct variables (mp_match).

Axioms are universal closures of scheme instances; the recognizers below
accept any closure prefix (vacuous variables included) whose matrix matches a
scheme and leaves the sentence closed.

The authoritative scheme list:

* intuitionistic logic: k, s, and-intro, and-elim-left/right,
  or-intro-left/right, or-elim, ex-falso, forall-elim, exists-intro, and the
  two generalization implications (gen-forall, gen-exists);
* equality: eq-refl, eq-symm, eq-trans, eq-leibniz (replacement);
* arithmetic: the six successor/addition/multiplication axioms plus the
  induction scheme over the full language (box included);
* excluded middle for box-free formulas, in classical configurations only;
* the box axioms (_match_box): eight distribution schemes, forward ones
  keyed by the consequent's connective and backward ones by the
  antecedent's, then capture:

      box-or-fwd      box<A or B> -> (box<A> or box<B>)
      box-and-fwd     box<A and B> -> (box<A> and box<B>)
      box-imp         box<A -> B> -> (box<A> -> box<B>)
      box-forall-fwd  box<(forall n) A> -> (forall n) box<A>
      box-or-bwd      (box<A> or box<B>) -> box<A or B>
      box-and-bwd     (box<A> and box<B>) -> box<A and B>
      box-forall-bwd  (forall n) box<A> -> box<(forall n) A>
      box-exists      (exists n) box<A> -> box<(exists n) A>
      capture         A -> box<A>

* the jump axiom (forall g)(ax:T g -> box g), per configuration;
* iterbox definitional axioms (iterbox-zero, iterbox-succ, iterbox-collapse)
  in configurations with kappa constants;
* a finite list of extra axioms (exact sentences).

check_proof is the one judge.  accept, the one exit for an accepted proof,
returns a Theorem: the proof with the configuration, store and line records it
was judged in.  Only the kernel makes one, and accept does not judge it again.
A Builder judges none of the lines it builds; its exits go through accept.

Theories are values, with no process-wide registry: preset_theory is a pure
function of a name, and a ProofStore holds one configuration per name.

forall-elim and exists-intro admit instance terms whose variables are covered
by the closure prefix; the substitution is capture-checked and rejected
rather than renamed.  The line's note is the first 80 characters of the
instance term's text, fmt(t)[:80], computed by syntax.fmt_prefix: each
numeral leaf is written from its leading digits only (c // 10**k), so a
term holding a code thousands of digits long is never printed whole.

A configuration's language test (TheoryConfig.in_language) reads the flags a
formula is sealed with; only kappa constants need a walk, for their largest
index.  proof_from_sexp reads a script with one syntax.Tokens reader, so
equal subterms and subformulas across the script's lines are one object,
and comparing them is an identity test.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterator, Optional, Sequence, Union

from .syntax import (
    CaptureError, EvalError,
    Add, And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Kappa, Mul, Or,
    Rel, Succ, Term, Var,
    FALSUM, ZERO, NotAFormula, Tokens,
    _list_decode, close_over, decode_code, dyadic_view, encode_sentence,
    eval_term, fmt, fmt_prefix, is_neg, numeral_of, parse_formula_stream,
    quote_term, sorted_vars, substitute,
)

__all__ = [
    "Record", "TheoryConfig", "ProofObject", "ProofLine", "CheckReport",
    "LineRecord", "Justification", "AxiomStep", "ComputeStep", "MPStep", "HypStep",
    "ProofStore", "KernelError", "UnknownTheoryError",
    "is_axiom", "admit_computation", "code_relation_holds", "check_proof",
    "Theorem", "accept", "mp_match",
    "Builder", "pa", "sbox_pa", "sbox_pa_incon", "sstar", "extend_theory",
    "preset_theory", "SSTAR_MAX_KAPPA",
    "jump_axiom_of", "capture_axiom", "kappa_axioms", "proof_code_valid",
    "proof_to_sexp", "proof_from_sexp",
]


class KernelError(ValueError):
    pass


class UnknownTheoryError(KernelError):
    pass


class Record:
    """Base of asrt's immutable value classes.  A subclass names its fields
    in ``__slots__`` and sets each once in ``__init__``, through ``_init`` or,
    on the per-line records, through slot descriptors bound once as syntax's
    nodes do, since ``__setattr__`` raises.  Values of one class with equal
    fields are equal and hash alike."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every slot from the base class down, in order
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in vars(c).get("__slots__", ()))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        # the fields as one tuple, or the one field itself, read in C
        cls._key = staticmethod(attrgetter(*cls._fields) if cls._fields else _no_fields)

    def _init(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _no_fields(value: Record) -> tuple:
    return ()


# ---------------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------------

class TheoryConfig(Record):
    """An immutable named axiom base.

    ``extra_axioms`` holds finitely many closed sentences admitted verbatim
    (kappa successor axioms, scenario hypotheses, and the like).  The Ax
    recognizer over codes accepts exactly the main axioms: every axiom of the
    configuration except the jump axiom itself.
    """

    __slots__ = ("name", "classical", "allow_box", "jump_axiom", "allow_agent",
                 "kappa_count", "iterbox_axioms", "extra_axioms")

    def __init__(self, name: str, classical: bool = True, allow_box: bool = False,
                 jump_axiom: bool = False, allow_agent: bool = False,
                 kappa_count: int = 0, iterbox_axioms: bool = False,
                 extra_axioms: tuple[Formula, ...] = ()):
        for a in extra_axioms:
            if a.free:
                raise KernelError("extra axioms must be sentences: " + fmt(a))
        self._init(name, classical, allow_box, jump_axiom, allow_agent,
                   kappa_count, iterbox_axioms, extra_axioms)

    def in_language(self, a: Formula) -> bool:
        """Reads the flags a formula is sealed with; only a formula with
        kappa constants is walked, for its largest index."""
        if a.has_box and not self.allow_box:
            return False
        if a.has_agent and not self.allow_agent:
            return False
        if a.has_kappa and (self.kappa_count == 0 or _max_kappa(a) > self.kappa_count):
            return False
        return True

    def is_main_axiom_code(self, g: int) -> bool:
        """The executable Ax recognizer over codes."""
        a = decode_code(g)
        if isinstance(a, NotAFormula) or a.free:
            return False
        j = is_axiom(self, a)
        return j is not None and j.rule != "jump"


def _max_kappa(x: Union[Formula, Term]) -> int:
    if isinstance(x, Kappa):
        return x.index
    out = 0
    for child in _children(x):
        if child.has_kappa:
            out = max(out, _max_kappa(child))
    return out


def _children(x: Union[Formula, Term]):
    if isinstance(x, (And, Or, Imp, Add, Mul)) or isinstance(x, Eq):
        return (x.left, x.right)
    if isinstance(x, (Forall, Exists)):
        return (x.body,)
    if isinstance(x, (Box, Succ)):
        return (x.arg,)
    if isinstance(x, (Rel, Fn)):
        return x.args
    return ()


def jump_axiom_of(t: TheoryConfig, var: str = "g") -> Formula:
    return Forall(var, Imp(Rel(f"ax:{t.name}", (Var(var),)), Box(Var(var))))


def capture_axiom(a: Formula) -> Formula:
    """Universal closure of A -> box <quote of A>."""
    return close_over(sorted_vars(a.free), Imp(a, Box(quote_term(a))))


def kappa_axioms(j: int) -> tuple[Formula, ...]:
    return tuple(Eq(Kappa(i), Succ(Kappa(i + 1))) for i in range(1, j))


# proof scripts name sstar-<j>; sstar(4096) takes about 0.1 s and 3 MB
SSTAR_MAX_KAPPA = 4096


def pa() -> TheoryConfig:
    return TheoryConfig(name="pa")


def sbox_pa() -> TheoryConfig:
    return TheoryConfig(name="sbox-pa", allow_box=True, jump_axiom=True)


def sbox_pa_incon() -> TheoryConfig:
    """Box theory over an arithmetically unsound (here: inconsistent) base:
    the base proves 0 = 1, so box <0 = 1> becomes a theorem."""
    return TheoryConfig(
        name="sbox-pa-incon", allow_box=True, jump_axiom=True,
        extra_axioms=(Rel("prov:pa", (numeral_of(encode_sentence(FALSUM)),)), FALSUM))


def sstar(j: int) -> TheoryConfig:
    """Box theory with agent symbols and kappa constants kappa_1..kappa_j,
    axioms kappa_i = kappa_{i+1} + 1 for i < j <= SSTAR_MAX_KAPPA."""
    if j < 1:
        raise KernelError("sstar needs at least one kappa constant")
    if j > SSTAR_MAX_KAPPA:
        raise UnknownTheoryError(
            f"sstar-{j} has more than {SSTAR_MAX_KAPPA} kappa constants")
    return TheoryConfig(
        name=f"sstar-{j}", allow_box=True, jump_axiom=True, allow_agent=True,
        kappa_count=j, iterbox_axioms=True, extra_axioms=kappa_axioms(j))


def extend_theory(t: TheoryConfig, name: str, hypotheses: Sequence[Formula]) -> TheoryConfig:
    """A derived configuration with extra named-hypothesis axioms."""
    return TheoryConfig(
        name=name, classical=t.classical, allow_box=t.allow_box,
        jump_axiom=t.jump_axiom, allow_agent=t.allow_agent,
        kappa_count=t.kappa_count, iterbox_axioms=t.iterbox_axioms,
        extra_axioms=t.extra_axioms + tuple(hypotheses))


_PRESETS = {"pa": pa, "sbox-pa": sbox_pa, "sbox-pa-incon": sbox_pa_incon}


def preset_theory(name: str) -> TheoryConfig:
    """The preset called ``name`` (pa, sbox-pa, sbox-pa-incon, or sstar-<j>
    for j in 1..SSTAR_MAX_KAPPA without leading zeros), a pure function of
    the name; UnknownTheoryError for any other name."""
    if name in _PRESETS:
        return _PRESETS[name]()
    m = re.fullmatch(r"sstar-([1-9][0-9]*)", name)
    if m and len(m[1]) <= len(str(SSTAR_MAX_KAPPA)):   # int() of long text is slow
        return sstar(int(m[1]))
    raise UnknownTheoryError(f"unknown theory {name!r}")


# ---------------------------------------------------------------------------
# Axiom recognizers
# ---------------------------------------------------------------------------

class Justification(Record):
    __slots__ = ("rule", "note")

    def __init__(self, rule: str, note: str = ""):
        _set_just_rule(self, rule)
        _set_just_note(self, note)


_set_just_rule, _set_just_note = Justification._setters


def _prefix_splits(a: Formula) -> Iterator[tuple[tuple[str, ...], Formula]]:
    """Yield (prefix, matrix) for every split of the leading forall prefix
    with pairwise distinct variables."""
    prefix: list[str] = []
    yield (), a
    seen = set()
    while isinstance(a, Forall):
        if a.var in seen:
            return
        seen.add(a.var)
        prefix.append(a.var)
        a = a.body
        yield tuple(prefix), a


def _strip_prefix(a: Formula, prefix: Sequence[str]) -> Optional[Formula]:
    for v in prefix:
        if not isinstance(a, Forall) or a.var != v:
            return None
        a = a.body
    return a


def mp_match(minor: Formula, major: Formula
             ) -> Optional[tuple[tuple[str, ...], Formula, Formula]]:
    """The modus ponens rule: (prefix, A, B) when ``major`` is
    (forall prefix)(A -> B), prefix its whole leading forall prefix with
    pairwise distinct variables, and ``minor`` is (forall prefix) A; None
    otherwise.  The conclusion is (forall prefix) B."""
    *_, (prefix, matrix) = _prefix_splits(major)
    if not isinstance(matrix, Imp) or _strip_prefix(minor, prefix) != matrix.left:
        return None
    return prefix, matrix.left, matrix.right


def _infer_subst_term(a: Formula, x: str, c: Formula) -> Optional[Term]:
    """t with c == a[x := t] (0 when x is not free in a), else None: the
    subterm of c facing the first free x of a, if substitute confirms it."""
    if x not in a.free:
        return ZERO if a == c else None
    p, q = a, c
    while not isinstance(p, Var):
        q = dyadic_view(q)   # a numeral leaf of c, one dyadic step apart
        ps, qs = _children(p), _children(q)
        i = next(i for i, child in enumerate(ps) if x in child.free)
        if type(p) is not type(q) or i >= len(qs):
            return None
        p, q = ps[i], qs[i]
    try:
        return q if substitute(a, x, q) == c else None
    except CaptureError:
        return None


def _leibniz_matches(m: Formula) -> bool:
    """m = (t = u) -> (P -> Q) with Q == P[positionwise t -> u]."""
    if not (isinstance(m, Imp) and isinstance(m.left, Eq) and isinstance(m.right, Imp)):
        return False
    t, u = m.left.left, m.left.right
    p, q = m.right.left, m.right.right
    if t == u:
        return p == q

    def walk_t(a: Term, b: Term) -> bool:
        if a == b:
            return True
        if a == t and b == u:
            return True
        a, b = dyadic_view(a), dyadic_view(b)
        if type(a) is not type(b):
            return False
        if isinstance(a, Succ):
            return walk_t(a.arg, b.arg)
        if isinstance(a, (Add, Mul)):
            return walk_t(a.left, b.left) and walk_t(a.right, b.right)
        if isinstance(a, Fn):
            return a.name == b.name and all(walk_t(s, w) for s, w in zip(a.args, b.args))
        return False

    def walk_f(a: Formula, b: Formula) -> bool:
        if a == b:
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, Eq):
            return walk_t(a.left, b.left) and walk_t(a.right, b.right)
        if isinstance(a, Box):
            return walk_t(a.arg, b.arg)
        if isinstance(a, Rel):
            return (a.name == b.name and len(a.args) == len(b.args)
                    and all(walk_t(s, w) for s, w in zip(a.args, b.args)))
        if isinstance(a, (And, Or, Imp)):
            return walk_f(a.left, b.left) and walk_f(a.right, b.right)
        if isinstance(a, (Forall, Exists)):
            # a replacement under a binder is only sound if the binder cannot
            # capture a variable of t or u
            if a.var != b.var:
                return False
            if a.var in t.free or a.var in u.free:
                return a.body == b.body
            return walk_f(a.body, b.body)
        return False

    return walk_f(p, q)


def _unquote(t: Term) -> Optional[Formula]:
    """Invert quote_term: sub-chain over a canonical numeral -> the formula."""
    probe = t
    while isinstance(probe, Fn) and probe.name == "sub" and isinstance(probe.args[1], Var):
        probe = probe.args[0]
    if probe.canon is None:
        return None
    a = decode_code(probe.canon)
    if isinstance(a, NotAFormula):
        return None
    return a if quote_term(a) == t else None


def _match_logic(m: Formula, prefix: tuple[str, ...]) -> Optional[Justification]:
    if isinstance(m, Imp):
        a, c = m.left, m.right
        # k: A -> (B -> A)
        if isinstance(c, Imp) and c.right == a:
            return Justification("k")
        # s: (A -> (B -> C)) -> ((A -> B) -> (A -> C))
        if (isinstance(a, Imp) and isinstance(a.right, Imp)
                and isinstance(c, Imp) and isinstance(c.left, Imp)
                and isinstance(c.right, Imp)
                and c.left.left == a.left and c.left.right == a.right.left
                and c.right.left == a.left and c.right.right == a.right.right):
            return Justification("s")
        # and-intro: A -> (B -> (A and B))
        if (isinstance(c, Imp) and isinstance(c.right, And)
                and c.right.left == a and c.right.right == c.left):
            return Justification("and-intro")
        if isinstance(a, And):
            if c == a.left:
                return Justification("and-elim-left")
            if c == a.right:
                return Justification("and-elim-right")
        if isinstance(c, Or):
            if c.left == a:
                return Justification("or-intro-left")
            if c.right == a:
                return Justification("or-intro-right")
        # or-elim: (A -> C) -> ((B -> C) -> ((A or B) -> C))
        if (isinstance(a, Imp) and isinstance(c, Imp)
                and isinstance(c.left, Imp) and isinstance(c.right, Imp)
                and isinstance(c.right.left, Or)
                and c.right.left.left == a.left
                and c.right.left.right == c.left.left
                and a.right == c.left.right == c.right.right):
            return Justification("or-elim")
        if a == FALSUM:
            return Justification("ex-falso")
        # forall-elim: (forall x) A -> A[x := t], vars of t covered by prefix
        if isinstance(a, Forall):
            t = _infer_subst_term(a.body, a.var, c)
            if t is not None and t.free <= set(prefix):
                return Justification("forall-elim", fmt_prefix(t, 80))
        # exists-intro: A[x := t] -> (exists x) A
        if isinstance(c, Exists):
            t = _infer_subst_term(c.body, c.var, a)
            if t is not None and t.free <= set(prefix):
                return Justification("exists-intro", fmt_prefix(t, 80))
        # generalization implications
        j = _match_gen_implication(m)
        if j is not None:
            return j
    return None


def _match_gen_implication(m: Formula) -> Optional[Justification]:
    if not (isinstance(m, Imp) and isinstance(m.left, Forall)):
        return None
    *_, (ns, body) = _prefix_splits(m.left)
    if not isinstance(body, Imp):
        return None
    a, b = body.left, body.right
    n1, rest = ns[0], ns[1:]
    if n1 not in a.free and m.right == close_over(rest, Imp(a, Forall(n1, b))):
        return Justification("gen-forall", n1)
    if n1 not in b.free and m.right == close_over(rest, Imp(Exists(n1, a), b)):
        return Justification("gen-exists", n1)
    return None


def _match_equality(m: Formula) -> Optional[Justification]:
    if isinstance(m, Eq) and m.left == m.right:
        return Justification("eq-refl")
    if isinstance(m, Imp) and isinstance(m.left, Eq):
        t, u = m.left.left, m.left.right
        c = m.right
        if isinstance(c, Eq) and c.left == u and c.right == t:
            return Justification("eq-symm")
        if (isinstance(c, Imp) and isinstance(c.left, Eq) and isinstance(c.right, Eq)
                and c.left.left == u and c.right.left == t
                and c.left.right == c.right.right):
            return Justification("eq-trans")
        if _leibniz_matches(m):
            return Justification("eq-leibniz")
    return None


def _match_arithmetic(m: Formula) -> Optional[Justification]:
    # numerals are taken apart through their dyadic view, whose children are compared
    if isinstance(m, Imp):
        a, c = m.left, m.right
        if (isinstance(a, Eq) and a.right == ZERO and c == FALSUM
                and isinstance(dyadic_view(a.left), Succ)):
            return Justification("pa-succ-nonzero")
        if (isinstance(a, Eq) and isinstance(c, Eq)
                and isinstance(l := dyadic_view(a.left), Succ)
                and isinstance(r := dyadic_view(a.right), Succ)
                and c.left == l.arg and c.right == r.arg):
            return Justification("pa-succ-inj")
        j = _match_induction(m)
        if j is not None:
            return j
    if isinstance(m, Eq):
        l, r = dyadic_view(m.left), m.right
        if isinstance(l, Add) and l.right == ZERO and r == l.left:
            return Justification("pa-add-zero")
        if (isinstance(l, Add) and isinstance(r, Succ) and isinstance(r.arg, Add)
                and r.arg.left == l.left and isinstance(lr := dyadic_view(l.right), Succ)
                and r.arg.right == lr.arg):
            return Justification("pa-add-succ")
        if isinstance(l, Mul) and l.right == ZERO and r == ZERO:
            return Justification("pa-mul-zero")
        if (isinstance(l, Mul) and isinstance(r, Add) and r.right == l.left
                and isinstance(lr := dyadic_view(l.right), Succ)
                and isinstance(rl := dyadic_view(r.left), Mul) and rl.left == l.left
                and rl.right == lr.arg):
            return Justification("pa-mul-succ")
    return None


def _match_induction(m: Formula) -> Optional[Justification]:
    # (A[v:=0] and (forall v)(A -> A[v:=s v])) -> (forall v) A
    if not (isinstance(m, Imp) and isinstance(m.left, And)
            and isinstance(m.right, Forall)):
        return None
    v, a = m.right.var, m.right.body
    step = m.left.right
    if not (isinstance(step, Forall) and step.var == v and isinstance(step.body, Imp)):
        return None
    if step.body.left != a:
        return None
    try:
        if m.left.left != substitute(a, v, ZERO):
            return None
        if step.body.right != substitute(a, v, Succ(Var(v))):
            return None
    except Exception:
        return None
    return Justification("induction", v)


def _unbox(x: Formula) -> Optional[Formula]:
    """C(A, B) from C(box<A>, box<B>) for a binary connective C, and
    (Q n) A from (Q n) box<A> for a quantifier Q; None when a part is not
    a box of a quote."""
    if isinstance(x, (Forall, Exists)):
        body = _unquote(x.body.arg) if isinstance(x.body, Box) else None
        return type(x)(x.var, body) if body is not None else None
    if not (isinstance(x.left, Box) and isinstance(x.right, Box)):
        return None
    left, right = _unquote(x.left.arg), _unquote(x.right.arg)
    return type(x)(left, right) if left is not None and right is not None else None


# box<C(A, B)> -> C(box<A>, box<B>) and box<(Q n) A> -> (Q n) box<A>,
# keyed by the consequent's connective
_BOX_FWD = {Or: "box-or-fwd", And: "box-and-fwd", Imp: "box-imp",
            Forall: "box-forall-fwd"}
# the converse, keyed by the antecedent's connective
_BOX_BWD = {Or: "box-or-bwd", And: "box-and-bwd", Forall: "box-forall-bwd",
            Exists: "box-exists"}


def _match_box(m: Formula) -> Optional[Justification]:
    if not isinstance(m, Imp):
        return None
    a, c = m.left, m.right
    if isinstance(a, Box) and type(c) in _BOX_FWD:
        x = _unbox(c)
        if x is not None and a.arg == quote_term(x):
            return Justification(_BOX_FWD[type(c)])
    if isinstance(c, Box) and type(a) in _BOX_BWD:
        x = _unbox(a)
        if x is not None and c.arg == quote_term(x):
            return Justification(_BOX_BWD[type(a)])
    # capture: A -> box<A>
    if isinstance(c, Box) and c.arg == quote_term(a):
        return Justification("capture")
    return None


def _match_iterbox(m: Formula) -> Optional[Justification]:
    if isinstance(m, Eq) and isinstance(m.left, Fn) and m.left.name == "iterbox":
        k, g = m.left.args
        if k == ZERO and m.right == g:
            return Justification("iterbox-zero")
        k = dyadic_view(k)
        if (isinstance(k, Succ) and isinstance(m.right, Fn)
                and m.right.name == "numboxed"):
            inner = m.right.args[0]
            if (isinstance(inner, Fn) and inner.name == "iterbox"
                    and inner.args[0] == k.arg and inner.args[1] == g):
                return Justification("iterbox-succ")
    # iterbox-collapse: box <code of (box t)> -> box (num-boxed t), t closed
    if (isinstance(m, Imp) and isinstance(m.left, Box) and isinstance(m.right, Box)
            and isinstance(m.right.arg, Fn) and m.right.arg.name == "numboxed"):
        t = m.right.arg.args[0]
        if t.closed and m.left.arg.canon == encode_sentence(Box(t)):
            return Justification("iterbox-collapse")
    return None


def is_axiom(t: TheoryConfig, a: Formula) -> Optional[Justification]:
    """The matched scheme and instantiation note when ``a`` is an axiom of
    ``t``; None otherwise (None is a value, not an error)."""
    if a.free or not t.in_language(a):
        return None
    if a in t.extra_axioms:
        return Justification("extra")
    if t.allow_box and t.jump_axiom and isinstance(a, Forall):
        # (ax T v) -> (box v), v the bound variable
        body = a.body
        if (isinstance(body, Imp) and isinstance(body.left, Rel)
                and isinstance(body.right, Box) and isinstance(body.right.arg, Var)
                and body.right.arg.name == a.var
                and body.left.name == "ax:" + t.name
                and body.left.args == (body.right.arg,)):
            return Justification("jump")
    for prefix, m in _prefix_splits(a):
        j = _match_logic(m, prefix)
        if j is None:
            j = _match_equality(m)
        if j is None:
            j = _match_arithmetic(m)
        if j is None and t.allow_box:
            j = _match_box(m)
        if j is None and t.iterbox_axioms:
            j = _match_iterbox(m)
        if (j is None and t.classical and isinstance(m, Or)
                and isinstance(m.right, Imp) and m.right.right == FALSUM
                and m.right.left == m.left and not m.left.has_box):
            j = Justification("excluded-middle")
        if j is not None:
            return j
    return None


# ---------------------------------------------------------------------------
# Trusted computation axioms
# ---------------------------------------------------------------------------

class ProofStore:
    """Append-only session store of Theorems, keyed by theory name and
    conclusion code; registration goes through accept.  A theory name stands
    for one configuration: the store refuses a proof registered under a
    configuration that differs from the one the name already has.  Single
    writer, any number of readers."""

    def __init__(self):
        self._proofs: dict[tuple[str, int], "Theorem"] = {}
        self._theories: dict[str, TheoryConfig] = {}

    def _claim(self, t: TheoryConfig) -> None:
        if self._theories.get(t.name, t) != t:
            raise KernelError(f"theory name {t.name!r} already registered differently")

    def _keep(self, thm: "Theorem") -> int:
        g = encode_sentence(thm.conclusion)
        self._theories[thm.theory] = thm.config
        self._proofs[(thm.theory, g)] = thm
        return g

    def submit(self, t: TheoryConfig, proof: "ProofObject") -> "CheckReport":
        """Check ``proof`` in ``t`` and register it when accepted; the
        report either way.  Raises KernelError, before checking, when the
        store holds another configuration under the name ``t.name``."""
        self._claim(t)
        report = check_proof(t, proof, store=self)
        if report.accepted:
            self._keep(Theorem(proof.theory, proof.lines, t, self, report.records))
        return report

    def register(self, t: TheoryConfig, proof: "ProofObject") -> int:
        """Register the Theorem accept makes of ``proof`` in ``t`` and this
        store, refusing a rejected proof; its conclusion's code."""
        if proof.theory != t.name:
            raise KernelError("proof/theory mismatch")
        self._claim(t)
        return self._keep(accept(t, proof, self))

    def has(self, theory_name: str, g: int) -> bool:
        return (theory_name, g) in self._proofs

    def has_code(self, g: int) -> bool:
        """True when some theory in the session has a registered proof whose
        conclusion carries this code."""
        return any(code == g for (_, code) in self._proofs)

    def get(self, theory_name: str, g: int) -> Optional["Theorem"]:
        return self._proofs.get((theory_name, g))

    def theory(self, name: str) -> Optional[TheoryConfig]:
        """The configuration proofs under ``name`` were registered with."""
        return self._theories.get(name)

    def __len__(self):
        return len(self._proofs)


def admit_computation(t: TheoryConfig, a: Formula,
                      store: Optional[ProofStore] = None) -> Optional[Justification]:
    """Justify a decidable closed kappa-free atomic claim via the trusted
    evaluator: true (in)equalities, ax/proofof facts about this theory, and
    prov facts backed by a registered proof.  Returns None when the claim is
    false or out of scope; raises EvalError when evaluation itself fails."""
    if a.free or a.has_kappa:
        return None
    positive, atom = True, a
    if is_neg(a):
        positive, atom = False, a.left
    if isinstance(atom, Eq):
        holds = eval_term(atom.left) == eval_term(atom.right)
        if holds == positive:
            return Justification("comp-eq" if positive else "comp-neq")
        return None
    if isinstance(atom, Rel):
        fam, _, qual = atom.name.partition(":")
        holds = code_relation_holds(atom, t)
        if holds is not None:
            if holds == positive:
                return Justification(("comp-" if positive else "comp-not-") + fam)
            return None
        if fam == "prov" and positive and len(atom.args) == 1 and store is not None:
            if store.has(qual, eval_term(atom.args[0])):
                return Justification("comp-prov", qual)
            return None
    return None


_DECIDABLE_RELATIONS = {("ax", 1), ("proofof", 2)}


def decidable_relation(atom: Rel) -> bool:
    """Whether ``atom`` is of a family and arity that code_relation_holds
    decides for its qualifying theory: ``ax`` of one argument or
    ``proofof`` of two."""
    return (atom.name.partition(":")[0], len(atom.args)) in _DECIDABLE_RELATIONS


def code_relation_holds(atom: Rel, about: TheoryConfig) -> Optional[bool]:
    """Whether an ``ax`` or ``proofof`` atom qualified by the theory
    ``about`` holds: (ax T g) when g codes a main axiom of T, (proofof T p s)
    when p codes a proof in T of the sentence coded s.  None for any other
    atom.  Raises EvalError when an argument fails to evaluate."""
    fam, _, qual = atom.name.partition(":")
    if qual != about.name or not decidable_relation(atom):
        return None
    if fam == "ax":
        return about.is_main_axiom_code(eval_term(atom.args[0]))
    return proof_code_valid(about, eval_term(atom.args[0]), eval_term(atom.args[1]))


_PROOF_CODE_MAX_LINES = 10_000


def proof_code_valid(t: TheoryConfig, p: int, s: int) -> bool:
    """Decide whether ``p`` codes a proof in ``t`` of the sentence coded
    ``s``: a nonempty code list of closed sentences, each an axiom, an
    evaluator-verifiable computation claim, or quantified modus ponens from
    two earlier lines, with the last line coded ``s``.

    This is the arithmetized proof relation behind the proofof symbol;
    check_proof judges it with no store, so coded proofs cannot cite prov
    facts.  A coded proof names no premises, so each line that follows by
    modus ponens from two earlier lines is proposed as such and every other
    line as an axiom."""
    codes = _list_decode(p)
    if not codes or len(codes) > _PROOF_CODE_MAX_LINES or codes[-1] != s:
        return False
    first: dict[Formula, int] = {}   # sentence -> its first line
    # conclusion -> [(major premise's line, minor premise)], split as mp_match does
    majors: dict[Formula, list[tuple[int, Formula]]] = {}
    lines: list[ProofLine] = []
    for idx, g in enumerate(codes):
        a = decode_code(g)
        if isinstance(a, NotAFormula):
            return False
        step: Step = next((MPStep(major=j, minor=first[minor])
                           for j, minor in majors.get(a, ()) if minor in first),
                          AxiomStep())
        lines.append(ProofLine(a, step))
        first.setdefault(a, idx)
        *_, (prefix, matrix) = _prefix_splits(a)
        if isinstance(matrix, Imp):
            majors.setdefault(close_over(prefix, matrix.right), []).append(
                (idx, close_over(prefix, matrix.left)))
    return check_proof(t, ProofObject(t.name, tuple(lines))).accepted


# ---------------------------------------------------------------------------
# Proof objects and the checker
# ---------------------------------------------------------------------------

class AxiomStep(Record):
    __slots__ = ()


class ComputeStep(Record):
    __slots__ = ()


class MPStep(Record):
    __slots__ = ("major",   # index of the implication premise
                 "minor")   # index of the antecedent premise

    def __init__(self, major: int, minor: int):
        _set_mp_major(self, major)
        _set_mp_minor(self, minor)


_set_mp_major, _set_mp_minor = MPStep._setters


class HypStep(Record):
    """States the hypothesis; only derive.discharge_hypothesis accepts it."""

    __slots__ = ()


Step = Union[AxiomStep, ComputeStep, MPStep, HypStep]


class ProofLine(Record):
    __slots__ = ("sentence", "step")

    def __init__(self, sentence: Formula, step: Step):
        _set_line_sentence(self, sentence)
        _set_line_step(self, step)


_set_line_sentence, _set_line_step = ProofLine._setters


class ProofObject(Record):
    """Equal to any ProofObject, a Theorem too, with equal theory and lines."""

    __slots__ = ("theory", "lines")

    def __init__(self, theory: str, lines: tuple[ProofLine, ...]):
        self._init(theory, lines)

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise KernelError("empty proof has no conclusion")
        return self.lines[-1].sentence

    def __len__(self):
        return len(self.lines)

    def __eq__(self, other):
        if not isinstance(other, ProofObject):
            return NotImplemented
        return self.theory == other.theory and self.lines == other.lines

    def __hash__(self):
        return hash((self.theory, self.lines))


class LineRecord(Record):
    __slots__ = ("index", "rule", "note")

    def __init__(self, index: int, rule: str, note: str = ""):
        _set_record_index(self, index)
        _set_record_rule(self, rule)
        _set_record_note(self, note)


_set_record_index, _set_record_rule, _set_record_note = LineRecord._setters


class CheckReport(Record):
    __slots__ = ("accepted", "theory", "records", "failed_at", "reason")

    def __init__(self, accepted: bool, theory: str, records: tuple[LineRecord, ...],
                 failed_at: Optional[int] = None, reason: str = ""):
        self._init(accepted, theory, records, failed_at, reason)


def check_proof(t: TheoryConfig, proof: ProofObject,
                store: Optional[ProofStore] = None,
                hypothesis: Optional[Formula] = None) -> CheckReport:
    """Validate every line; deterministic, and independent of the intent
    recorded in the author's step annotations (axiom/compute lines are
    re-derived, MP premise indices are structural and are used as given).
    A (hyp) line is accepted, with rule ``hyp``, only when its sentence is
    ``hypothesis``; only derive.discharge_hypothesis passes one."""
    if proof.theory != t.name:
        return CheckReport(False, t.name, (), None,
                           f"proof is for theory {proof.theory!r}")
    if not proof.lines:
        return CheckReport(False, t.name, (), None, "empty proof")
    records: list[LineRecord] = []
    for idx, line in enumerate(proof.lines):
        a = line.sentence
        if a.free:
            return CheckReport(False, t.name, tuple(records), idx,
                               "open formula: " + ", ".join(sorted_vars(a.free)))
        if not t.in_language(a):
            return CheckReport(False, t.name, tuple(records), idx,
                               "sentence outside the theory language")
        if isinstance(line.step, MPStep):
            i, j = line.step.minor, line.step.major
            if not (0 <= i < idx and 0 <= j < idx):
                return CheckReport(False, t.name, tuple(records), idx,
                                   "modus ponens premise index out of range")
            m = mp_match(proof.lines[i].sentence, proof.lines[j].sentence)
            if m is None or _strip_prefix(a, m[0]) != m[2]:
                return CheckReport(False, t.name, tuple(records), idx,
                                   "modus ponens premises do not match (prefix mismatch "
                                   "or wrong implication)")
            records.append(LineRecord(idx, "mp", f"prefix={len(m[0])}"))
            continue
        if isinstance(line.step, HypStep):
            if hypothesis is None:
                return CheckReport(False, t.name, tuple(records), idx,
                                   "hypothesis step outside a hypothetical derivation")
            if a != hypothesis:
                return CheckReport(False, t.name, tuple(records), idx,
                                   "hypothesis step is not the hypothesis: " + fmt(a))
            records.append(LineRecord(idx, "hyp"))
            continue
        j = is_axiom(t, a)
        if j is None:
            try:
                j = admit_computation(t, a, store)
            except EvalError as e:
                return CheckReport(False, t.name, tuple(records), idx,
                                   f"evaluator failure: {e}")
        if j is None:
            return CheckReport(False, t.name, tuple(records), idx,
                               "not an axiom or admissible computation: " + fmt(a))
        records.append(LineRecord(idx, j.rule, j.note))
    return CheckReport(True, t.name, tuple(records))


class Theorem(ProofObject):
    """A proof check_proof accepted in ``config`` against ``store`` (None: no
    store), with its line records; made only by accept and ProofStore.submit."""

    __slots__ = ("config", "store", "records")

    def __init__(self, theory: str, lines: tuple[ProofLine, ...], config: TheoryConfig,
                 store: Optional[ProofStore], records: tuple[LineRecord, ...]):
        self._init(theory, lines, config, store, records)


def accept(t: TheoryConfig, proof: ProofObject,
           store: Optional[ProofStore] = None) -> Theorem:
    """``proof`` as a Theorem of ``t`` and ``store``; KernelError naming the
    line check_proof rejects.  A Theorem judged in ``t`` against no store or
    against ``store`` itself comes back unchanged: the store is append-only,
    so a prov line it admitted stays admitted.  Any other proof is judged."""
    if (isinstance(proof, Theorem) and proof.config == t
            and (proof.store is None or proof.store is store)):
        return proof
    report = check_proof(t, proof, store)
    if not report.accepted:
        at = "" if report.failed_at is None else f" at line {report.failed_at}"
        raise KernelError(f"proof rejected{at}: {report.reason}")
    return Theorem(proof.theory, proof.lines, t, store, report.records)


# ---------------------------------------------------------------------------
# Proof builder
# ---------------------------------------------------------------------------

class Builder:
    """Accumulates proof lines and judges none of them.  checked_proof and
    conclude, the only ways out for a finished proof, return accept's
    Theorem.  A derivation with ``hyp`` lines leaves through proof()
    instead, to derive.discharge_hypothesis.  Lines are memoized by sentence
    (any earlier line may be reused).  The derived rules are in derive.py."""

    def __init__(self, t: TheoryConfig, store: Optional[ProofStore] = None):
        self.t = t
        self.store = store
        self.lines: list[ProofLine] = []
        self._memo: dict[Formula, int] = {}

    def _append(self, a: Formula, step: Step) -> int:
        hit = self._memo.get(a)
        if hit is not None:
            return hit
        self.lines.append(ProofLine(a, step))
        idx = len(self.lines) - 1
        self._memo[a] = idx
        return idx

    def axiom(self, a: Formula) -> int:
        return self._append(a, AxiomStep())

    def compute(self, a: Formula) -> int:
        return self._append(a, ComputeStep())

    def hyp(self, a: Formula) -> int:
        """A hypothesis line of a derivation for derive.discharge_hypothesis."""
        return self._append(a, HypStep())

    def mp(self, minor: int, major: int) -> int:
        """Quantified modus ponens under the major premise's prefix
        (mp_match)."""
        mi = self.lines[minor].sentence
        mj = self.lines[major].sentence
        m = mp_match(mi, mj)
        if m is None:
            raise KernelError("modus ponens premises do not match:\n  "
                              + fmt(mi) + "\n  " + fmt(mj))
        return self._append(close_over(m[0], m[2]), MPStep(major=major, minor=minor))

    def restate(self, idx: int) -> int:
        """Repeat an earlier line verbatim (premise indices stay valid)."""
        self.lines.append(self.lines[idx])
        return len(self.lines) - 1

    def sentence(self, idx: int) -> Formula:
        return self.lines[idx].sentence

    def proof(self) -> ProofObject:
        return ProofObject(self.t.name, tuple(self.lines))

    def checked_proof(self) -> Theorem:
        """The proof so far as a Theorem of the Builder's theory and store
        (accept); KernelError naming the rejected line otherwise."""
        return accept(self.t, self.proof(), self.store)

    def conclude(self, idx: int) -> Theorem:
        """Theorem whose conclusion is the sentence at ``idx``;
        restates it when memoization left it mid-proof."""
        if idx != len(self.lines) - 1:
            self.restate(idx)
        return self.checked_proof()


# ---------------------------------------------------------------------------
# Proof-script serialization
# ---------------------------------------------------------------------------

def proof_to_sexp(proof: ProofObject) -> str:
    out = ["(proof", f"  (theory {proof.theory})"]
    for line in proof.lines:
        if isinstance(line.step, AxiomStep):
            just = "(axiom)"
        elif isinstance(line.step, ComputeStep):
            just = "(compute)"
        elif isinstance(line.step, MPStep):
            just = f"(mp {line.step.minor} {line.step.major})"
        else:
            just = "(hyp)"
        out.append(f"  (step {fmt(line.sentence)} {just})")
    out.append(")")
    return "\n".join(out)


def proof_from_sexp(text: str) -> ProofObject:
    ts = Tokens(text)
    ts.expect("(")
    ts.expect("proof")
    ts.expect("(")
    ts.expect("theory")
    name = ts.next()
    if name in ("(", ")"):
        raise ts.error("expected a theory name")
    ts.expect(")")
    lines: list[ProofLine] = []
    while True:
        tok = ts.next()
        if tok == ")":
            break
        if tok != "(":
            raise ts.error(f"expected (step ...), found {tok!r}")
        ts.expect("step")
        sentence = parse_formula_stream(ts)
        ts.expect("(")
        kind = ts.next()
        if kind == "axiom":
            step: Step = AxiomStep()
        elif kind == "compute":
            step = ComputeStep()
        elif kind == "hyp":
            step = HypStep()
        elif kind == "mp":
            at = ts.i
            minor_tok, major_tok = ts.next(), ts.next()
            minor, major = ts.literal(minor_tok, at), ts.literal(major_tok)
            if minor is None or major is None:
                raise ts.error("mp expects two line indices", at)
            step = MPStep(minor=minor, major=major)
        else:
            raise ts.error(f"unknown justification {kind!r}")
        ts.expect(")")
        ts.expect(")")
        lines.append(ProofLine(sentence, step))
    ts.finish()
    return ProofObject(name, tuple(lines))
