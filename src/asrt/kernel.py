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

Axioms are universal closures of scheme instances.  is_axiom admits the
theory's extra axioms (exact sentences) first.  Otherwise it splits off the
sentence's longest forall prefix with pairwise distinct variables and tries
the rows of the scheme table, _SCHEMES, whose shape the matrix under it has.
docs/axioms.md lists every row, with its shape, side conditions and enabling
flag, and the rule names of line records that are not schemes.

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
numeral leaf is written from its leading digits only, c // 10**k computed
as (c >> k) // 5**k, so a term holding a code thousands of digits long is
never printed whole.
syntax owns the digit limit: fmt refuses a numeral past it, and a
constructor can make one longer than any a script wrote ((* (s (s 0)) m)
is 2m).  A rejection reason then writes its sentence by fmt_prefix(a, 80),
so check_proof reports on every proof.

A configuration's language test (TheoryConfig.in_language) reads the flags a
formula is sealed with; only kappa constants need a walk, for their largest
index.  Each walk over a node's parts (that one, forall-elim's instance term,
eq-leibniz's replacement) goes through syntax.children.  proof_from_sexp
reads a script with one syntax.Tokens reader, so equal subterms and
subformulas across its lines are one object, compared by identity; it and
proof_to_sexp read one table of justification words, _JUSTIFICATIONS.
"""

from __future__ import annotations

import re
from itertools import product
from operator import attrgetter
from typing import Optional, Sequence, Union

from .syntax import (
    CaptureError, DigitLimitError, EvalError,
    Add, And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Kappa, Mul, Or,
    Rel, Succ, Term, Var,
    FALSUM, ZERO, NotAFormula, Tokens,
    _list_decode, children, close_over, compose_code, decode_code, dyadic_view,
    encode_sentence, eval_term, fmt, fmt_prefix, is_neg, numeral_of,
    parse_formula_stream, quote_term, quotes_code, sorted_vars, substitute,
)

__all__ = [
    "Record", "TheoryConfig", "ProofObject", "ProofLine", "CheckReport",
    "LineRecord", "Justification", "AxiomStep", "ComputeStep", "MPStep", "HypStep",
    "AXIOM", "COMPUTE", "HYP", "ProofStore", "KernelError", "UnknownTheoryError",
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
        if isinstance(a, NotAFormula):
            return False
        j = is_axiom(self, a)
        return j is not None and j.rule != "jump"


def _max_kappa(x: Union[Formula, Term]) -> int:
    if isinstance(x, Kappa):
        return x.index
    out = 0
    for child in children(x):
        if child.has_kappa:
            out = max(out, _max_kappa(child))
    return out


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


def _split_prefix(a: Formula) -> tuple[tuple[str, ...], Formula]:
    """(prefix, matrix): the longest leading forall prefix of ``a`` with
    pairwise distinct variables, and the formula under it."""
    if not isinstance(a, Forall):
        return (), a
    prefix: dict[str, None] = {}   # ordered, with a constant-time membership test
    while isinstance(a, Forall) and a.var not in prefix:
        prefix[a.var] = None
        a = a.body
    return tuple(prefix), a


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
    prefix, matrix = _split_prefix(major)
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
        ps, qs = children(p), children(q)
        i = next(i for i, child in enumerate(ps) if x in child.free)
        if type(p) is not type(q) or i >= len(qs):
            return None
        p, q = ps[i], qs[i]
    try:
        return q if substitute(a, x, q) == c else None
    except CaptureError:
        return None


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
    return a if quotes_code(t, probe.canon, a.free) else None


def _unbox(x: Formula) -> Optional[tuple[int, frozenset]]:
    """The code and free variables of C(A, B) for C(box<A>, box<B>), C a
    binary connective, and of (Q n) A for (Q n) box<A>, Q a quantifier;
    None when a part is not a box of a quote.  C(A, B) is not built."""
    if isinstance(x, (Forall, Exists)):
        a = _unquote(x.body.arg) if isinstance(x.body, Box) else None
        return None if a is None else (compose_code(type(x), x.var, encode_sentence(a)),
                                       a.free - {x.var})
    if not (isinstance(x.left, Box) and isinstance(x.right, Box)):
        return None
    a, b = _unquote(x.left.arg), _unquote(x.right.arg)
    if a is None or b is None:
        return None
    return compose_code(type(x), encode_sentence(a), encode_sentence(b)), a.free | b.free


# The matchers of the scheme table.  Each is called as match(matrix, prefix,
# theory) on a matrix of its row's shape, and returns a false value when the
# matrix is no instance, else True or the line's note (a nonempty str).  A
# numeral is taken apart through its dyadic view, whose children are compared.

def _jump(m: Imp, prefix: tuple[str, ...], t: TheoryConfig) -> bool:
    """(forall v)(ax:T v -> box v), T the theory's name"""
    v = m.right.arg
    return (isinstance(v, Var) and prefix == (v.name,)
            and m.left.name == "ax:" + t.name and m.left.args == (v,))


def _s(m: Imp, *_) -> bool:
    """(A -> (B -> C)) -> ((A -> B) -> (A -> C))"""
    a, c = m.left, m.right
    return (isinstance(a.right, Imp) and isinstance(c.left, Imp) and isinstance(c.right, Imp)
            and c.left.left == a.left and c.left.right == a.right.left
            and c.right.left == a.left and c.right.right == a.right.right)


def _or_elim(m: Imp, *_) -> bool:
    """(A -> C) -> ((B -> C) -> ((A or B) -> C))"""
    a, c = m.left, m.right
    return (isinstance(c.left, Imp) and isinstance(c.right, Imp)
            and isinstance(c.right.left, Or)
            and c.right.left.left == a.left
            and c.right.left.right == c.left.left
            and a.right == c.left.right == c.right.right)


def _instance(q: Formula, c: Formula, prefix: tuple[str, ...]) -> Union[bool, str]:
    """c is q's body with a term t over the prefix's variables put for q's
    variable; the note is fmt(t)[:80]."""
    t = _infer_subst_term(q.body, q.var, c)
    return t is not None and t.free <= set(prefix) and fmt_prefix(t, 80)


def _gen_forall(m: Imp, *_) -> Union[bool, str]:
    """(forall n ns)(A -> B) -> (forall ns)(A -> (forall n) B), n not free in A"""
    ns, body = _split_prefix(m.left)
    return (isinstance(body, Imp) and ns[0] not in body.left.free
            and m.right == close_over(ns[1:], Imp(body.left, Forall(ns[0], body.right)))
            and ns[0])


def _gen_exists(m: Imp, *_) -> Union[bool, str]:
    """(forall n ns)(A -> B) -> (forall ns)((exists n) A -> B), n not free in B"""
    ns, body = _split_prefix(m.left)
    return (isinstance(body, Imp) and ns[0] not in body.right.free
            and m.right == close_over(ns[1:], Imp(Exists(ns[0], body.left), body.right))
            and ns[0])


def _eq_trans(m: Imp, *_) -> bool:
    """(t = u) -> ((u = r) -> (t = r))"""
    t, u, c = m.left.left, m.left.right, m.right
    return (isinstance(c.left, Eq) and isinstance(c.right, Eq)
            and c.left.left == u and c.right.left == t
            and c.left.right == c.right.right)


def _leibniz(m: Imp, *_) -> bool:
    """(t = u) -> (P -> Q), Q being P with some occurrences of t replaced by
    u, position by position, none under a binder of a variable of t or u."""
    t, u = m.left.left, m.left.right
    p, q = m.right.left, m.right.right
    if t == u:
        return p == q
    captured = t.free | u.free

    def walk(a, b) -> bool:
        if a == b or (a == t and b == u):
            return True
        a, b = dyadic_view(a), dyadic_view(b)
        parts, others = children(a), children(b)
        # unequal nodes of one head match part by part; unequal leaves never
        # match, nor do the bodies of a binder of a variable of t or u
        return (type(a) is type(b) and len(parts) == len(others) > 0
                and getattr(a, "name", None) == getattr(b, "name", None)
                and getattr(a, "var", None) == getattr(b, "var", None)
                and getattr(a, "var", None) not in captured
                and all(map(walk, parts, others)))

    return walk(p, q)


def _succ_inj(m: Imp, *_) -> bool:
    """(s t = s u) -> (t = u)"""
    a, c = m.left, m.right
    return (isinstance(l := dyadic_view(a.left), Succ)
            and isinstance(r := dyadic_view(a.right), Succ)
            and c.left == l.arg and c.right == r.arg)


def _induction(m: Imp, *_) -> Union[bool, str]:
    """(A[v:=0] and (forall v)(A -> A[v:=s v])) -> (forall v) A"""
    v, a = m.right.var, m.right.body
    step = m.left.right
    if not (isinstance(step, Forall) and step.var == v and isinstance(step.body, Imp)
            and step.body.left == a):
        return False
    try:
        return (m.left.left == substitute(a, v, ZERO)
                and step.body.right == substitute(a, v, Succ(Var(v))) and v)
    except CaptureError:
        return False


def _add_succ(m: Eq, *_) -> bool:
    """t + s u = s (t + u)"""
    l, r = m.left, m.right   # a dyadic view is never a sum
    return (isinstance(l, Add) and isinstance(r, Succ) and isinstance(r.arg, Add)
            and r.arg.left == l.left and isinstance(lr := dyadic_view(l.right), Succ)
            and r.arg.right == lr.arg)


def _mul_succ(m: Eq, *_) -> bool:
    """t * s u = t * u + t"""
    l, r = dyadic_view(m.left), m.right
    return (isinstance(l, Mul) and isinstance(r, Add) and r.right == l.left
            and isinstance(lr := dyadic_view(l.right), Succ)
            and isinstance(rl := dyadic_view(r.left), Mul) and rl.left == l.left
            and rl.right == lr.arg)


def _box_fwd(m: Imp, *_) -> bool:
    """box<C(A, B)> -> C(box<A>, box<B>), or box<(Q n) A> -> (Q n) box<A>"""
    x = _unbox(m.right)
    return x is not None and quotes_code(m.left.arg, *x)


def _box_bwd(m: Imp, *_) -> bool:
    """C(box<A>, box<B>) -> box<C(A, B)>, or (Q n) box<A> -> box<(Q n) A>"""
    x = _unbox(m.left)
    return x is not None and quotes_code(m.right.arg, *x)


def _iterbox_succ(m: Eq, *_) -> bool:
    """iterbox(s k, g) = num-boxed(iterbox(k, g))"""
    f, r = m.left, m.right
    return (isinstance(f, Fn) and f.name == "iterbox" and isinstance(r, Fn)
            and r.name == "numboxed" and isinstance(inner := r.args[0], Fn)
            and isinstance(k := dyadic_view(f.args[0]), Succ) and inner.name == "iterbox"
            and inner.args[0] == k.arg and inner.args[1] == f.args[1])


def _iterbox_collapse(m: Imp, *_) -> bool:
    """box <code of (box t)> -> box (num-boxed t), t closed"""
    f = m.right.arg
    return (isinstance(f, Fn) and f.name == "numboxed" and f.args[0].closed
            and m.left.arg.canon == compose_code(Box, encode_sentence(f.args[0])))


# The axiom schemes, one row each, in the order is_axiom tries them: the rule
# name; the shape of the matrix under the closure prefix, a formula class or,
# for an implication, the pair of its sides' classes (None: any class); the
# TheoryConfig flag that enables the row (None: every theory); the matcher.
# No box row needs allow_box: every matrix a box row takes holds a box, and
# in_language refuses those outside a box theory.  docs/axioms.md describes
# each row, in the same order.
_SCHEMES = (
    ("jump", (Rel, Box), "jump_axiom", _jump),
    ("k", (None, Imp), None, lambda m, *_: m.right.right == m.left),
    ("s", (Imp, Imp), None, _s),
    ("and-intro", (None, Imp), None,
     lambda m, *_: (isinstance(c := m.right.right, And)
                    and c.left == m.left and c.right == m.right.left)),
    ("and-elim-left", (And, None), None, lambda m, *_: m.right == m.left.left),
    ("and-elim-right", (And, None), None, lambda m, *_: m.right == m.left.right),
    ("or-intro-left", (None, Or), None, lambda m, *_: m.right.left == m.left),
    ("or-intro-right", (None, Or), None, lambda m, *_: m.right.right == m.left),
    ("or-elim", (Imp, Imp), None, _or_elim),
    ("ex-falso", (Eq, None), None, lambda m, *_: m.left == FALSUM),
    ("forall-elim", (Forall, None), None, lambda m, p, _: _instance(m.left, m.right, p)),
    ("exists-intro", (None, Exists), None, lambda m, p, _: _instance(m.right, m.left, p)),
    ("gen-forall", (Forall, None), None, _gen_forall),
    ("gen-exists", (Forall, None), None, _gen_exists),
    ("eq-refl", Eq, None, lambda m, *_: m.left == m.right),
    ("eq-symm", (Eq, Eq), None,
     lambda m, *_: m.right.left == m.left.right and m.right.right == m.left.left),
    ("eq-trans", (Eq, Imp), None, _eq_trans),
    ("eq-leibniz", (Eq, Imp), None, _leibniz),
    ("pa-succ-nonzero", (Eq, Eq), None,
     lambda m, *_: (m.left.right == ZERO and m.right == FALSUM
                    and isinstance(dyadic_view(m.left.left), Succ))),
    ("pa-succ-inj", (Eq, Eq), None, _succ_inj),
    ("induction", (And, Forall), None, _induction),
    ("pa-add-zero", Eq, None,
     lambda m, *_: (isinstance(m.left, Add) and m.left.right == ZERO
                    and m.right == m.left.left)),
    ("pa-add-succ", Eq, None, _add_succ),
    ("pa-mul-zero", Eq, None,
     lambda m, *_: (m.right == ZERO and isinstance(l := dyadic_view(m.left), Mul)
                    and l.right == ZERO)),
    ("pa-mul-succ", Eq, None, _mul_succ),
    ("box-or-fwd", (Box, Or), None, _box_fwd),
    ("box-and-fwd", (Box, And), None, _box_fwd),
    ("box-imp", (Box, Imp), None, _box_fwd),
    ("box-forall-fwd", (Box, Forall), None, _box_fwd),
    ("box-or-bwd", (Or, Box), None, _box_bwd),
    ("box-and-bwd", (And, Box), None, _box_bwd),
    ("box-forall-bwd", (Forall, Box), None, _box_bwd),
    ("box-exists", (Exists, Box), None, _box_bwd),
    ("capture", (None, Box), None,
     lambda m, *_: quotes_code(m.right.arg, encode_sentence(m.left), m.left.free)),
    ("iterbox-zero", Eq, "iterbox_axioms",
     lambda m, *_: (isinstance(f := m.left, Fn) and f.name == "iterbox"
                    and f.args[0] == ZERO and m.right == f.args[1])),
    ("iterbox-succ", Eq, "iterbox_axioms", _iterbox_succ),
    ("iterbox-collapse", (Box, Box), "iterbox_axioms", _iterbox_collapse),
    ("excluded-middle", Or, "classical",
     lambda m, *_: is_neg(m.right) and m.right.left == m.left and not m.left.has_box),
)


_CLASSES = (Eq, Box, Rel, And, Or, Imp, Forall, Exists)
# matrix shape (a class, or for an implication the pair of its sides'
# classes) -> the rows whose shape it has, in table order; None in a row's
# pair stands for every class
_ROWS: dict = {}
for _row in _SCHEMES:
    for _key in (product(*(_CLASSES if c is None else (c,) for c in _row[1]))
                 if isinstance(_row[1], tuple) else (_row[1],)):
        _ROWS.setdefault(_key, []).append(_row)
del _row, _key


def is_axiom(t: TheoryConfig, a: Formula) -> Optional[Justification]:
    """The matched scheme and instantiation note when ``a`` is an axiom of
    ``t``; None otherwise (None is a value, not an error).  Past the extra
    axioms, only the table rows for the shape of ``a``'s matrix are tried."""
    if a.free or not t.in_language(a):
        return None
    if a in t.extra_axioms:
        return Justification("extra")
    prefix, m = _split_prefix(a)
    shape = (type(m.left), type(m.right)) if type(m) is Imp else type(m)
    for rule, _, flag, match in _ROWS.get(shape, ()):
        if flag is None or getattr(t, flag):
            hit = match(m, prefix, t)
            if hit:
                return Justification(rule, "" if hit is True else hit)
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
                          AXIOM)
        lines.append(ProofLine(a, step))
        first.setdefault(a, idx)
        prefix, matrix = _split_prefix(a)
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

# A script's justification word for each step class, for proof_to_sexp and
# proof_from_sexp: mp is followed by the line indices of its minor and major
# premises; each other step takes no premises and is one shared value.
AXIOM, COMPUTE, HYP = AxiomStep(), ComputeStep(), HypStep()
_JUSTIFICATIONS = {AxiomStep: "axiom", ComputeStep: "compute", MPStep: "mp", HypStep: "hyp"}
_PREMISE_FREE = {_JUSTIFICATIONS[type(step)]: step for step in (AXIOM, COMPUTE, HYP)}


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
    records: list[LineRecord] = []

    def reject(reason: str, idx: Optional[int] = None,
               a: Optional[Formula] = None) -> CheckReport:
        if a is not None:                 # the reason ends in a's text
            try:
                reason += fmt(a)
            except DigitLimitError:
                reason += fmt_prefix(a, 80)
        return CheckReport(False, t.name, tuple(records), idx, reason)

    if proof.theory != t.name:
        return reject(f"proof is for theory {proof.theory!r}")
    if not proof.lines:
        return reject("empty proof")
    for idx, line in enumerate(proof.lines):
        a = line.sentence
        if a.free:
            return reject("open formula: " + ", ".join(sorted_vars(a.free)), idx)
        if not t.in_language(a):
            return reject("sentence outside the theory language", idx)
        if isinstance(line.step, MPStep):
            i, j = line.step.minor, line.step.major
            if not (0 <= i < idx and 0 <= j < idx):
                return reject("modus ponens premise index out of range", idx)
            m = mp_match(proof.lines[i].sentence, proof.lines[j].sentence)
            if m is None or _strip_prefix(a, m[0]) != m[2]:
                return reject("modus ponens premises do not match (prefix mismatch "
                              "or wrong implication)", idx)
            records.append(LineRecord(idx, "mp", f"prefix={len(m[0])}"))
            continue
        if isinstance(line.step, HypStep):
            if hypothesis is None:
                return reject("hypothesis step outside a hypothetical derivation", idx)
            if a != hypothesis:
                return reject("hypothesis step is not the hypothesis: ", idx, a)
            records.append(LineRecord(idx, "hyp"))
            continue
        j = is_axiom(t, a)
        if j is None:
            try:
                j = admit_computation(t, a, store)
            except EvalError as e:
                return reject(f"evaluator failure: {e}", idx)
        if j is None:
            return reject("not an axiom or admissible computation: ", idx, a)
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
        return self._append(a, AXIOM)

    def compute(self, a: Formula) -> int:
        return self._append(a, COMPUTE)

    def hyp(self, a: Formula) -> int:
        """A hypothesis line of a derivation for derive.discharge_hypothesis."""
        return self._append(a, HYP)

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
        step = line.step
        just = _JUSTIFICATIONS[type(step)]
        if type(step) is MPStep:
            just += f" {step.minor} {step.major}"
        out.append(f"  (step {fmt(line.sentence)} ({just}))")
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
        step: Optional[Step] = _PREMISE_FREE.get(kind)
        if kind == "mp":
            at = ts.i
            minor_tok, major_tok = ts.next(), ts.next()
            minor, major = ts.literal(minor_tok, at), ts.literal(major_tok)
            if minor is None or major is None:
                raise ts.error("mp expects two line indices", at)
            step = MPStep(minor=minor, major=major)
        elif step is None:
            raise ts.error(f"unknown justification {kind!r}")
        ts.expect(")")
        ts.expect(")")
        lines.append(ProofLine(sentence, step))
    ts.finish()
    return ProofObject(name, tuple(lines))
