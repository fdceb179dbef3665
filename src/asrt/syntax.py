"""Object language: terms, formulas, numerals, substitution, codec, text format.

The language is first order arithmetic (0, s, +, *) extended with:

* a unary assertibility atom ``box`` applied to a term whose value is the
  code of a sentence,
* constants ``kappa i`` (i >= 1),
* definitional function symbols ``sub``, ``num``, ``iterbox``, ``num-boxed``
  whose meaning is fixed by the trusted evaluator in this module,
* relation symbols ``act i`` (unary), ``gamma`` (nullary), ``prov T``,
  ``ax T`` and ``proofof T`` (over codes, relative to a named theory).

Negation is not a constructor: ``not A`` abbreviates ``A -> (= 0 1)``.

Codes are naturals produced by a constructor-tagged Cantor-pairing scheme;
see ``docs/codec.md`` for the published tag table.  Canonical numerals get a
dedicated tag so the code of a quoted sentence grows by a constant factor per
quotation layer instead of exponentially.

Twelve constructors are regular: s, +, *, sub, num, iterbox, num-boxed, =,
box, and, or and ->.  Each is written (head part) or (head part part) and
coded as pair(tag, code(part)) or pair(tag, pair(code(left), code(right))).
One table, _ROWS, holds the tag, head, part sorts and constructor of each;
the encoder, the decoder, the printer, the reader and substitute read every
regular node from it.  The irregular nodes keep their own code: the leaves
(0, numerals, variables, gamma), kappa, the quantifiers, the relation
atoms, (not A) for A -> (= 0 1), and num-of and godel.

Terms and formulas share one base, _Node.  A node is immutable, sealed at
construction with its hash ``h``, free variables, printed nesting ``height``
and ``has_kappa``; a term adds its value ``canon`` when it is a canonical
numeral, and a formula the flags ``has_box`` and ``has_agent`` (an act<i> or
gamma atom occurs), so these questions cost no walk.  Every class hashes to
``h``.  Each writes its own structural __eq__, but for the leaves zero and
Num: ZERO is built once and numeral_of interns each numeral, so those
compare by identity.  children() is the one walk over a node's parts.  A
node memoizes its code, and a term its value; every formula decode_code
builds carries the code it was decoded from.  Conversely a numeral carries
the formula its value codes (Num.quoted): set by quote_term and box_quote,
or by the first decoding of its value, as a whole code or as a formula code
nested in another, so a code is decoded at most once while its numeral
lives.  There is no decode memo and no cap.  Everything else is pure; values
may be freely shared between threads.  compose_code is the encoder's one
step from the codes of a node's parts to the node's code, and quotes_code
decides t == quote_term(a) from a's code and free variables, so the
kernel's quotation rows build neither a nor its numeral.

The text reader (Tokens) splits its input once and reads it by token index;
literals are ASCII digits.  One reader builds one node per distinct subterm
or subformula of its text, so equal parts of a script are one object.

The evaluator, the codec and the reader are part of the trusted core, with
kernel.py; the printer (fmt, fmt_prefix) decides no verdict.  This module
owns the int-to-str digit limit: the reader refuses a longer literal, and
decimal, the one writer of a numeral's text, a longer numeral.
"""

from __future__ import annotations

import re
import sys
import weakref
from itertools import accumulate, islice, repeat
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

# the text format carries codes as decimal literals of unbounded size
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))

__all__ = [
    "Term", "Succ", "Add", "Mul", "Num", "Var", "Kappa", "Fn",
    "Formula", "Eq", "Box", "Rel", "And", "Or", "Imp", "Forall", "Exists",
    "ZERO", "ONE", "TWO", "FALSUM",
    "ParseError", "FreeVariableError", "CaptureError", "EvalError", "DigitLimitError",
    "NotAFormula", "NOT_A_FORMULA",
    "children", "neg", "is_neg", "numeral_of", "dyadic_view", "eval_term",
    "substitute",
    "encode_term", "encode_sentence", "compose_code", "decode_code", "decode_term_code",
    "pair", "unpair",
    "box_quote", "strip_box", "quote_term", "quotes_code", "close_over",
    "var_order_key", "sorted_vars",
    "parse_term", "parse_formula", "parse_sentence", "decimal", "fmt", "fmt_prefix",
    "MAX_NESTING", "Tokens", "parse_formula_stream",
]

EMPTY: frozenset = frozenset()

MAX_NESTING = 256     # deepest parenthesis nesting the parser accepts


class ParseError(ValueError):
    """Raised on malformed input text; carries a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class FreeVariableError(ValueError):
    """Raised when a sentence was required but free variables remain."""

    def __init__(self, names: Iterable[str]):
        self.names = sorted(names)
        super().__init__("free variables not allowed here: " + ", ".join(self.names))


class CaptureError(ValueError):
    """Raised when a substitution would capture a variable of the new term."""


class EvalError(ValueError):
    """Raised by the trusted evaluator: unassigned kappa, bad code, budget."""


class DigitLimitError(ValueError):
    """Raised by decimal on a numeral longer than the int-to-str digit limit."""


# ---------------------------------------------------------------------------
# The node protocol
# ---------------------------------------------------------------------------

class _Node:
    """Base of every term and formula.  A class that writes __eq__ loses
    the inherited __hash__; __init_subclass__ gives it back."""

    __slots__ = ("h", "free", "has_kappa", "height", "_code")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__hash__ is None:
            cls.__hash__ = _Node.__hash__

    def __setattr__(self, name, value):
        raise AttributeError("syntax nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError("syntax nodes are immutable")

    @property
    def closed(self) -> bool:
        return not self.free

    def __hash__(self) -> int:
        return self.h

    def __repr__(self) -> str:
        return fmt(self)


# __setattr__ raises, so constructors and the memos set each slot through its
# descriptor's __set__, bound once here: cheaper than object.__setattr__,
# which looks the descriptor up by name on every call.
_set_h, _set_free, _set_has_kappa, _set_height, _set_code = (
    getattr(_Node, name).__set__ for name in _Node.__slots__)


def _over_args(args: Sequence[Term]) -> tuple[frozenset, bool, int]:
    """The free variables, kappa flag and greatest height of ``args``."""
    free = EMPTY
    kap = False
    height = 0
    for a in args:
        free = free | a.free
        kap = kap or a.has_kappa
        if a.height > height:
            height = a.height
    return free, kap, height


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term(_Node):
    """Base class; concrete terms are Zero/Succ/Add/Mul/Num/Var/Kappa/Fn.
    ``canon`` is the value of ZERO, ONE and every Num, else None.
    ``height`` is how many parentheses deep the printed text nests: 0 for
    the leaves (canonical numerals and variables)."""

    __slots__ = ("canon", "_val")

    def _seal(self, h: int, free: frozenset, has_kappa: bool, canon: Optional[int],
              height: int) -> None:
        _set_h(self, h)
        _set_free(self, free)
        _set_has_kappa(self, has_kappa)
        _set_canon(self, canon)
        _set_height(self, height)
        _set_code(self, None)
        _set_val(self, None)


_set_canon, _set_val = Term.canon.__set__, Term._val.__set__


class _Zero(Term):
    __slots__ = ()

    def __init__(self):
        self._seal(hash(("t0",)), EMPTY, False, 0, 0)


class Succ(Term):
    __slots__ = ("arg",)

    def __new__(cls, arg: Term):
        # the successor of the canonical numeral 2m (m >= 1) is 2m+1
        c = arg.canon
        if c is not None and c >= 2 and not c & 1:
            return numeral_of(c + 1)
        return object.__new__(cls)

    def __init__(self, arg: Term):
        _set_succ_arg(self, arg)
        one = arg.canon == 0              # (s 0) is the leaf 1
        self._seal(hash(("t1", arg.h)), arg.free, arg.has_kappa,
                   1 if one else None, 0 if one else arg.height + 1)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Succ) and self.h == other.h and self.arg == other.arg


_set_succ_arg = Succ.arg.__set__


class _Bin(Term):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left: Term, right: Term):
        _set_bin_left(self, left)
        _set_bin_right(self, right)
        lh, rh = left.height, right.height
        self._seal(hash((self._tag, left.h, right.h)), left.free | right.free,
                   left.has_kappa or right.has_kappa, None, (lh if lh > rh else rh) + 1)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self) or self.h != other.h:
            return False
        return self.left == other.left and self.right == other.right


_set_bin_left, _set_bin_right = _Bin.left.__set__, _Bin.right.__set__


class Add(_Bin):
    __slots__ = ()
    _tag = "t2"


class Mul(_Bin):
    __slots__ = ()
    _tag = "t3"

    def __new__(cls, left: Term, right: Term):
        # (* (s (s 0)) <m>) with m >= 1 is the canonical numeral 2m
        c = right.canon
        if c is not None and c >= 1 and left == TWO:
            return numeral_of(2 * c)
        return object.__new__(cls)


class Num(Term):
    """Canonical numeral of a value n >= 2 as one leaf; ``canon`` is n.
    Built by numeral_of only, so equal numerals are one shared object.
    ``quoted`` is what decode_code returns for n once that is known: the
    formula n codes, or NOT_A_FORMULA; None until then."""

    __slots__ = ("quoted", "__weakref__")

    def __init__(self, n: int):
        self._seal(hash(("tn", n)), EMPTY, False, n, 0)
        _set_quoted(self, None)


_set_quoted = Num.quoted.__set__


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or "\x00" in name:
            raise ValueError("variable names must be nonempty and NUL-free")
        _set_var_name(self, name)
        self._seal(hash(("t4", name)), frozenset((name,)), False, None, 0)

    def __eq__(self, other):
        return self is other or (isinstance(other, Var) and self.name == other.name)


_set_var_name = Var.name.__set__


class Kappa(Term):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("kappa index must be >= 1")
        _set_kappa_index(self, index)
        self._seal(hash(("t5", index)), EMPTY, True, None, 1)

    def __eq__(self, other):
        return self is other or (isinstance(other, Kappa) and self.index == other.index)


_set_kappa_index = Kappa.index.__set__


class Fn(Term):
    """Applied definitional function symbol: sub, num, iterbox, numboxed;
    FN_ARITY reads their arities off the constructor table."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Term]):
        if name not in FN_ARITY:
            raise ValueError(f"unknown function symbol {name!r}")
        args = tuple(args)
        if len(args) != FN_ARITY[name]:
            raise ValueError(f"{name} expects {FN_ARITY[name]} arguments")
        _set_fn_name(self, name)
        _set_fn_args(self, args)
        free, kap, height = _over_args(args)
        self._seal(hash(("t6", name) + tuple(a.h for a in args)), free, kap, None,
                   height + 1)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Fn) and self.h == other.h
                and self.name == other.name and self.args == other.args)


_set_fn_name, _set_fn_args = Fn.name.__set__, Fn.args.__set__

ZERO = _Zero()
ONE = Succ(ZERO)
TWO = Succ(ONE)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula(_Node):
    """Base class; concrete formulas are Eq/Box/Rel/And/Or/Imp/Forall/Exists.
    ``has_agent`` says whether an agent relation (act<i>, gamma) occurs.
    ``height`` is how many parentheses deep the printed text nests, by the
    printer's rule: gamma is a leaf, and (-> A (= 0 1)) is (not A).  A
    relation atom that does not print back as itself (see _rel_arity) has
    no printed form; its height is past MAX_NESTING, so no formula holding
    it is in the decoder's image."""

    __slots__ = ("has_box", "has_agent")

    def _seal(self, h: int, free: frozenset, has_kappa: bool, has_box: bool,
              has_agent: bool, height: int) -> None:
        _set_h(self, h)
        _set_free(self, free)
        _set_has_kappa(self, has_kappa)
        _set_has_box(self, has_box)
        _set_has_agent(self, has_agent)
        _set_height(self, height)
        _set_code(self, None)


_set_has_box, _set_has_agent = Formula.has_box.__set__, Formula.has_agent.__set__


class Eq(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set_eq_left(self, left)
        _set_eq_right(self, right)
        lh, rh = left.height, right.height
        self._seal(hash(("f0", left.h, right.h)), left.free | right.free,
                   left.has_kappa or right.has_kappa, False, False,
                   (lh if lh > rh else rh) + 1)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Eq) and self.h == other.h
                and self.left == other.left and self.right == other.right)


_set_eq_left, _set_eq_right = Eq.left.__set__, Eq.right.__set__


class Box(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _set_box_arg(self, arg)
        self._seal(hash(("f1", arg.h)), arg.free, arg.has_kappa, True, False,
                   1 + arg.height)

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Box) and self.h == other.h and self.arg == other.arg


_set_box_arg = Box.arg.__set__


_THEORY_RE = re.compile(r"[a-z][a-z0-9-]*")
# the relation names that print back, one group per arity class: gamma;
# act<i>, i in ASCII digits without leading zeros; prov:T and ax:T;
# proofof:T; T a theory name as the parser reads it
_REL_NAME_RE = re.compile(
    rf"(gamma)|(act(?:0|[1-9][0-9]*))|(?:(prov|ax)|(proofof)):{_THEORY_RE.pattern}")
_GROUP_ARITY = (None, 0, 1, 1, 2)       # by the index of the group that matched
_UNPRINTABLE = MAX_NESTING + 1          # the height of an atom with no printed form


def _rel_arity(name: str) -> Optional[int]:
    """How many arguments the relation ``name`` takes when its atom prints
    back as itself; None for a name the parser does not read."""
    m = _REL_NAME_RE.fullmatch(name)
    return None if m is None else _GROUP_ARITY[m.lastindex]


class Rel(Formula):
    """Applied relation symbol: act<i>, gamma, prov:<T>, ax:<T>, proofof:<T>.
    Any other name or arity can be built, but has no printed form."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Term]):
        if not name or "\x00" in name:
            raise ValueError("relation names must be nonempty and NUL-free")
        args = tuple(args)
        _set_rel_name(self, name)
        _set_rel_args(self, args)
        free, kap, height = _over_args(args)
        if _rel_arity(name) != len(args):
            height = _UNPRINTABLE
        elif args:                        # gamma is a leaf
            height += 1
        self._seal(hash(("f2", name) + tuple(a.h for a in args)), free, kap, False,
                   name.startswith("act") or name == "gamma", height)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Rel) and self.h == other.h
                and self.name == other.name and self.args == other.args)


_set_rel_name, _set_rel_args = Rel.name.__set__, Rel.args.__set__


class _BinF(Formula):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left: Formula, right: Formula):
        _set_binf_left(self, left)
        _set_binf_right(self, right)
        lh, rh = left.height, right.height
        # (-> A (= 0 1)) prints as (not A), one level above A; that is
        # 1 + max(lh, rh) unless A is a leaf (gamma, height 0)
        if not lh and type(self) is Imp and right == FALSUM:
            rh = 0
        self._seal(hash((self._tag, left.h, right.h)), left.free | right.free,
                   left.has_kappa or right.has_kappa, left.has_box or right.has_box,
                   left.has_agent or right.has_agent, (lh if lh > rh else rh) + 1)

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is type(self) and self.h == other.h
                and self.left == other.left and self.right == other.right)


_set_binf_left, _set_binf_right = _BinF.left.__set__, _BinF.right.__set__


class And(_BinF):
    __slots__ = ()
    _tag = "f3"


class Or(_BinF):
    __slots__ = ()
    _tag = "f4"


class Imp(_BinF):
    __slots__ = ()
    _tag = "f5"


class _Quant(Formula):
    __slots__ = ("var", "body")
    _tag = ""

    def __init__(self, var: str, body: Formula):
        if not var or "\x00" in var:
            raise ValueError("variable names must be nonempty and NUL-free")
        _set_quant_var(self, var)
        _set_quant_body(self, body)
        self._seal(hash((self._tag, var, body.h)), body.free - {var},
                   body.has_kappa, body.has_box, body.has_agent, 1 + body.height)

    def __eq__(self, other):
        if self is other:
            return True
        return (type(other) is type(self) and self.h == other.h
                and self.var == other.var and self.body == other.body)


_set_quant_var, _set_quant_body = _Quant.var.__set__, _Quant.body.__set__


class Forall(_Quant):
    __slots__ = ()
    _tag = "f6"


class Exists(_Quant):
    __slots__ = ()
    _tag = "f7"


FALSUM = Eq(ZERO, ONE)


def children(x: Union[Term, Formula]) -> tuple:
    """The terms and formulas ``x`` is built from, left to right; () for a
    leaf.  A numeral leaf has none: its parts are in dyadic_view(x)."""
    if isinstance(x, (_Bin, Eq, _BinF)):
        return (x.left, x.right)
    if isinstance(x, _Quant):
        return (x.body,)
    if isinstance(x, (Succ, Box)):
        return (x.arg,)
    if isinstance(x, (Fn, Rel)):
        return x.args
    return ()


def neg(a: Formula) -> Formula:
    """A -> (= 0 1); negation is notation, not a constructor."""
    return Imp(a, FALSUM)


def is_neg(a: Formula) -> bool:
    return isinstance(a, Imp) and a.right == FALSUM


# ---------------------------------------------------------------------------
# Variable order, closures
# ---------------------------------------------------------------------------

def var_order_key(name: str):
    """Total (shortlex) order on the variable namespace."""
    return (len(name), name)


def sorted_vars(names: Iterable[str]) -> list[str]:
    return sorted(names, key=var_order_key)


def close_over(names: Sequence[str], a: Formula) -> Formula:
    """(forall n1 ... (forall nk a)); names may be vacuous in a."""
    for name in reversed(names):
        a = Forall(name, a)
    return a


# ---------------------------------------------------------------------------
# Canonical numerals and term evaluation
# ---------------------------------------------------------------------------

# hash-consing table: holds each numeral leaf while some term refers to it
_NUMERALS: "weakref.WeakValueDictionary[int, Num]" = weakref.WeakValueDictionary()


def numeral_of(n: int) -> Term:
    """Canonical numeral of n: 0, (s 0), then one shared leaf for n >= 2
    standing for the dyadic term that dyadic_view unfolds step by step."""
    if n < 2:
        if n < 0:
            raise ValueError("numerals denote naturals")
        return ONE if n else ZERO
    t = _NUMERALS.get(n)
    if t is None:
        t = _NUMERALS[n] = Num(n)
    return t


def dyadic_view(t: Term) -> Term:
    """One dyadic step of a numeral leaf, for matchers that take (s t) or
    (* t u) apart: 2m is (* (s (s 0)) <m>), 2m+1 is (s <2m>); other terms
    are returned unchanged.  The view is built past the normalizing
    constructors, so it is not canonical: compare its children, not it."""
    if type(t) is not Num:
        return t
    n = t.canon
    view = object.__new__(Succ if n & 1 else Mul)
    if n & 1:
        view.__init__(numeral_of(n - 1))
    else:
        view.__init__(TWO, numeral_of(n >> 1))
    return view


def eval_term(t: Term, env: Optional[dict[int, int]] = None) -> int:
    """Value of a closed term; ``env`` assigns naturals to kappa indices.

    Definitional symbols evaluate through the codec: ``num`` yields the code
    of a canonical numeral, ``sub`` substitutes into a coded formula,
    ``iterbox``/``numboxed`` build codes of box-iterated sentences.
    """
    if not t.closed:
        raise EvalError("cannot evaluate a term with free variables: " + fmt(t))
    if t.canon is not None:
        return t.canon
    use_memo = not t.has_kappa
    if use_memo and t._val is not None:
        return t._val
    v = _eval(t, env)
    if use_memo:
        _set_val(t, v)
    return v


_EVAL_BIT_BUDGET = 2_000_000


def _eval(t: Term, env: Optional[dict[int, int]]) -> int:
    if t.canon is not None:
        return t.canon
    if isinstance(t, Succ):
        return _eval(t.arg, env) + 1
    if isinstance(t, Add):
        return _eval(t.left, env) + _eval(t.right, env)
    if isinstance(t, Mul):
        return _eval(t.left, env) * _eval(t.right, env)
    if isinstance(t, Kappa):
        if env is None or t.index not in env:
            raise EvalError(f"no value assigned to (kappa {t.index})")
        return env[t.index]
    if isinstance(t, Fn):
        args = [_eval(a, env) for a in t.args]
        if t.name == "num":
            return _num_code(args[0])
        if t.name == "numboxed":
            return _numboxed_code(args[0])
        if t.name == "sub":
            return _sub_code(args[0], args[1])
        if t.name == "iterbox":
            return _iterbox_code(args[0], args[1])
    raise EvalError("unevaluatable term: " + fmt(t))


def _num_code(n: int) -> int:
    # code of the canonical numeral of n: tag 0, 1 or 6
    if n == 0:
        return _CODE_ZERO
    if n == 1:
        return _CODE_ONE
    return pair(TAG_NUMERAL, n)


def _numboxed_code(c: int) -> int:
    out = compose_code(Box, _num_code(c))
    if out.bit_length() > _EVAL_BIT_BUDGET:
        raise EvalError("evaluation budget exceeded (numboxed)")
    return out


_ITERBOX_MAX_ITERATIONS = 4096


def _iterbox_code(k: int, g: int) -> int:
    if k > _ITERBOX_MAX_ITERATIONS:
        raise EvalError("evaluation budget exceeded (iterbox count)")
    for _ in range(k):
        g = _numboxed_code(g)
    return g


def _sub_code(g: int, c: int) -> int:
    """Code of (formula g) with its first free variable replaced by the
    canonical numeral of c; identity when g is not a formula code or the
    formula is closed.  A code past _EVAL_BIT_BUDGET bits is an evaluator
    failure.  Each free occurrence holds a code longer than c, so a result
    that the occurrences alone put past the budget is refused unbuilt."""
    phi = decode_code(g)
    if isinstance(phi, NotAFormula) or not phi.free:
        return g
    v = sorted_vars(phi.free)[0]
    if _occurrences(phi, v) * c.bit_length() > _EVAL_BIT_BUDGET:
        raise EvalError("evaluation budget exceeded (sub)")
    out = encode_sentence(substitute(phi, v, numeral_of(c)))
    if out.bit_length() > _EVAL_BIT_BUDGET:
        raise EvalError("evaluation budget exceeded (sub)")
    return out


def _occurrences(x: Union[Term, Formula], v: str) -> int:
    """How many times variable ``v`` occurs free in a term or formula."""
    if v not in x.free:
        return 0
    if isinstance(x, Var):
        return 1
    return sum(_occurrences(c, v) for c in children(x))


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(x: Union[Term, Formula], v: str, r: Term) -> Union[Term, Formula]:
    """Replace free occurrences of variable ``v`` in the term or formula
    ``x`` by term ``r``.

    Substitution never renames binders; if a free variable of ``r`` would be
    captured the substitution is rejected with CaptureError.  The kernel only
    ever substitutes closed terms or terms over the prefix variables, so
    rejection suffices.
    """
    if v not in x.free:
        return x
    t = type(x)
    if t is Var:
        return r
    row = _ROW_OF.get(x.name if t is Fn else t)
    if row is not None:
        parts = children(x)
        y = substitute(parts[0], v, r)
        return row[2](y) if len(parts) == 1 else row[2](y, substitute(parts[1], v, r))
    if t is Rel:
        return Rel(x.name, tuple(substitute(a, v, r) for a in x.args))
    # a quantifier: v free in x implies x.var != v
    if x.var in r.free:
        raise CaptureError(f"substituting {fmt(r)} for {v} would capture {x.var}")
    return t(x.var, substitute(x.body, v, r))


# ---------------------------------------------------------------------------
# Codec: constructor-tagged Cantor pairing
# ---------------------------------------------------------------------------

TAG_ZERO = 0
TAG_SUCC = 1
TAG_ADD = 2
TAG_MUL = 3
TAG_VAR = 4
TAG_KAPPA = 5
TAG_NUMERAL = 6     # canonical numerals of value >= 2; payload is the value
TAG_SUB = 7
TAG_NUM = 8
TAG_ITERBOX = 9
TAG_NUMBOXED = 10
TAG_EQ = 11
TAG_BOX = 12
TAG_AND = 13
TAG_OR = 14
TAG_IMP = 15
TAG_FORALL = 16
TAG_EXISTS = 17
TAG_REL = 18

# The regular constructors in the order of docs/codec.md's tag table: the
# tag, the printed head, the sort of each part, and the node's class or the
# name of its function symbol.  Tags below TAG_EQ are terms.
_ROWS = (
    (TAG_SUCC, "s", (Term,), Succ),
    (TAG_ADD, "+", (Term, Term), Add),
    (TAG_MUL, "*", (Term, Term), Mul),
    (TAG_SUB, "sub", (Term, Term), "sub"),
    (TAG_NUM, "num", (Term,), "num"),
    (TAG_ITERBOX, "iterbox", (Term, Term), "iterbox"),
    (TAG_NUMBOXED, "num-boxed", (Term,), "numboxed"),
    (TAG_EQ, "=", (Term, Term), Eq),
    (TAG_BOX, "box", (Term,), Box),
    (TAG_AND, "and", (Formula, Formula), And),
    (TAG_OR, "or", (Formula, Formula), Or),
    (TAG_IMP, "->", (Formula, Formula), Imp),
)
FN_ARITY = {node: len(sorts) for _, _, sorts, node in _ROWS if isinstance(node, str)}


def _maker(node: Union[type, str]) -> Callable:
    """The maker of a row's node from its parts."""
    return node if isinstance(node, type) else lambda *parts: Fn(node, parts)


# a regular node's row by its class or function symbol: the tag, the text
# that opens the node and the node's maker
_ROW_OF = {node: (tag, f"({head} ", _maker(node)) for tag, head, _, node in _ROWS}


def _part_readers(key: int, sort: type, readers: dict) -> dict:
    """The rows of ``sort``'s nodes keyed by field ``key`` (0 the tag, 1 the
    head), each as (maker, reader of the first part, of the second or None);
    ``readers`` maps a sort to the reader of a part of that sort."""
    return {row[key]: (_ROW_OF[row[3]][2], *[readers[s] for s in row[2]], None)[:3]
            for row in _ROWS if (row[0] < TAG_EQ) == (sort is Term)}


# codes of the terms 0 and (s 0), fixed by the scheme below
_CODE_ZERO = 1      # pair(TAG_ZERO, 0)
_CODE_ONE = 47      # pair(TAG_SUCC, pair(TAG_ZERO, 0))
_CODE_FALSUM = 231695   # pair(TAG_EQ, pair(_CODE_ZERO, _CODE_ONE))


def _nat_to_string(n: int) -> tuple[int, int]:
    """Bijection naturals <-> finite bit strings: n maps to the binary of
    n + 1 with the leading 1 removed.  Returns (value, length), MSB first."""
    m = n + 1
    length = m.bit_length() - 1
    return m - (1 << length), length


def _string_to_nat(v: int, length: int) -> int:
    return v + (1 << length) - 1


def pair(a: int, b: int) -> int:
    """Injective size-proportionate pairing: the string of the pair is

        1^k 0 <string of len(a-string), k bits> <a-string> <b-string>

    read back through the natural <-> string bijection.  The result length
    is len(a) + len(b) + O(log len(a)), so codes of syntax trees grow
    linearly with tree size and quotation layers add a constant number of
    bits.  The image is decidable; unpair is its partial inverse."""
    la = (a + 1).bit_length() - 1          # the lengths of the a- and b-strings
    lb = (b + 1).bit_length() - 1
    vl, ll = _nat_to_string(la)
    # With head the number 1 1^ll 0 <string of la> in binary, and the
    # a-string a + 1 - 2**la (the b-string likewise), the string above reads
    # back as ((head - 1) * 2**la + a) * 2**lb + b: no string is built
    head = (((1 << (ll + 1)) - 1) << (ll + 1)) | vl
    return ((((head - 1) << la) + a) << lb) + b


def unpair(n: int) -> Optional[tuple[int, int]]:
    """Partial inverse of pair; None off the image."""
    v, length = _nat_to_string(n)
    # ll, the run of leading ones, counted in the top (at most 63) bits; a
    # run of 63 announces a string of at least 2**63 - 1 bits, which no code
    # has, so the checks below put it off the image however long it is
    w = length if length < 63 else 63
    ll = w - ((v >> (length - w)) ^ ((1 << w) - 1)).bit_length()
    pos = length - ll - 1                  # bits remaining after 1^ll 0
    if pos < ll:
        return None
    pos -= ll
    la = _string_to_nat((v >> pos) & ((1 << ll) - 1), ll)
    if pos < la:
        return None
    pos -= la
    a = _string_to_nat((v >> pos) & ((1 << la) - 1), la)
    b = _string_to_nat(v & ((1 << pos) - 1), pos)
    return a, b


def _name_code(s: str) -> int:
    return int.from_bytes(s.encode("utf-8"), "big")


def _name_decode(n: int) -> Optional[str]:
    if n == 0:
        return None
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    if b"\x00" in raw:
        return None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _list_code(codes: Sequence[int]) -> int:
    out = 0
    for c in reversed(codes):
        out = pair(c, out) + 1
    return out


def _list_decode(n: int) -> Optional[list[int]]:
    out = []
    while n != 0:
        parts = unpair(n - 1)
        if parts is None:
            return None
        h, n = parts
        out.append(h)
    return out


def compose_code(node: Union[type, str], first: Union[int, str],
                 second: Optional[int] = None) -> int:
    """The code of a node from its parts' codes, encode_sentence's step at
    every regular node and quantifier.  ``node`` is the class or function
    symbol of a _ROWS row, whose parts have the codes ``first`` and, for a
    two-part row, ``second``; or it is Forall or Exists, and ``first`` is
    the variable's name and ``second`` the code of the body."""
    if node is Forall or node is Exists:
        return pair(TAG_FORALL if node is Forall else TAG_EXISTS,
                    pair(_name_code(first), second))
    return pair(_ROW_OF[node][0], first if second is None else pair(first, second))


def encode_sentence(x: Union[Term, Formula]) -> int:
    """Code of a term or formula (open ones are codable too)."""
    c = x._code
    if c is not None:
        return c
    t = type(x)
    key = x.name if t is Fn else t
    if key in _ROW_OF:
        parts = children(x)
        c = compose_code(key, encode_sentence(parts[0]),
                         encode_sentence(parts[1]) if len(parts) == 2 else None)
    elif t is Var:
        c = pair(TAG_VAR, _name_code(x.name))
    elif t is Kappa:
        c = pair(TAG_KAPPA, x.index)
    elif t is Rel:
        c = pair(TAG_REL, pair(_name_code(x.name),
                               _list_code([encode_sentence(a) for a in x.args])))
    elif t is Forall or t is Exists:
        c = compose_code(t, x.var, encode_sentence(x.body))
    else:                                 # 0 and the numeral leaves
        c = _num_code(x.canon)
    _set_code(x, c)
    return c


encode_term = encode_sentence


class NotAFormula:
    """Failure marker returned by decode_code off the image of the encoder."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"NotAFormula({self.reason!r})"

    def __bool__(self):
        return False


NOT_A_FORMULA = NotAFormula("not in the image of the formula encoder")


# The decoders take ``depth``, the number of parentheses around the node's
# printed text.  A node printed in parentheses at depth MAX_NESTING would nest
# deeper than the parser accepts, so its code is off the image; this bounds
# the recursion however long the code.

def _decode_parts(row: tuple, payload: int, depth: int) -> Any:
    """The node of a decoder row (maker, decoder of the first part, of the
    second or None) whose part codes ``payload`` holds, each part read at
    ``depth``; None when a part does not decode."""
    make, first, second = row
    if second is None:
        x = first(payload, depth)
        return None if x is None else make(x)
    halves = unpair(payload)
    if halves is None:
        return None
    x = first(halves[0], depth)
    if x is None:
        return None
    b = halves[1]
    # (-> A (= 0 1)) is printed as (not A), so its (= 0 1) takes no depth
    y = FALSUM if b == _CODE_FALSUM and make is Imp else second(b, depth)
    return None if y is None else make(x, y)


def _decode_term(c: int, depth: int = 0) -> Optional[Term]:
    parts = unpair(c)
    if parts is None:
        return None
    tag, payload = parts
    if tag == TAG_ZERO:
        return ZERO if payload == 0 else None
    if tag == TAG_NUMERAL:
        # values 0 and 1 must use the structural codes 0 and 1
        return numeral_of(payload) if payload >= 2 else None
    if tag == TAG_VAR:
        name = _name_decode(payload)
        return Var(name) if name else None
    if tag == TAG_SUCC and payload == _CODE_ZERO:
        return ONE                        # printed as the leaf 1
    if depth >= MAX_NESTING:
        return None
    if tag == TAG_KAPPA:
        return Kappa(payload) if payload >= 1 else None
    row = _TERM_ROWS.get(tag)
    t = None if row is None else _decode_parts(row, payload, depth + 1)
    # canonical numerals >= 2 must use TAG_NUMERAL
    return t if t is None or t.canon is None else None


def _decode_formula(c: int, depth: int = 0) -> Optional[Formula]:
    """The formula of code ``c`` read at ``depth``, carrying its code; None
    when c is off the image at that depth.  A live numeral of value c that
    carries the answer gives it: its formula when that fits below ``depth``
    (a not-a-formula answer holds at every depth).  Otherwise c is read,
    and a formula read sets the numeral; a failure does not, as it may be
    owed to the depth alone."""
    n = _NUMERALS.get(c)
    if n is not None and n.quoted is not None:
        a = n.quoted
        return a if a and depth + a.height <= MAX_NESTING else None
    parts = unpair(c)
    if parts is None:
        return None
    tag, payload = parts
    if tag == TAG_REL:
        a = _read_rel(payload, depth)
    else:
        row = _FORMULA_ROWS.get(tag)
        if row is None or depth >= MAX_NESTING:
            return None
        a = _decode_parts(row, payload, depth + 1)
    if a is not None:
        _set_code(a, c)
        if n is not None:
            _set_quoted(n, a)
    return a


def _read_rel(payload: int, depth: int) -> Optional[Rel]:
    halves = unpair(payload)
    if halves is None:
        return None
    name, arg_codes = _name_decode(halves[0]), _list_decode(halves[1])
    if name is None or arg_codes is None or _rel_arity(name) != len(arg_codes):
        return None                       # the atom would not print back
    if arg_codes and depth >= MAX_NESTING:
        return None                       # gamma is printed as a leaf
    args = [_decode_term(code, depth + 1) for code in arg_codes]
    if any(t is None for t in args):
        return None
    return Rel(name, args)


# the decoder's rows by tag, one table per sort; the formula table also
# reads the quantifiers, whose first half is a name
_TERM_ROWS = _part_readers(0, Term, {Term: _decode_term})
_FORMULA_ROWS = _part_readers(0, Formula, {Term: _decode_term, Formula: _decode_formula})
_FORMULA_ROWS.update({tag: (q, lambda c, depth: _name_decode(c), _decode_formula)
                      for tag, q in ((TAG_FORALL, Forall), (TAG_EXISTS, Exists))})


def decode_code(c: int) -> Union[Formula, NotAFormula]:
    """Partial inverse of encode_sentence; NotAFormula off the image.  The
    formula returned carries its code, so encoding it again costs nothing.
    A live numeral of value c carries the answer once it is known: quoting
    a formula sets it, and so does the first decoding of c."""
    if c < 0:
        return NOT_A_FORMULA
    out = _decode_formula(c)
    if out is not None:
        return out
    n = _NUMERALS.get(c)
    if n is not None:
        _set_quoted(n, NOT_A_FORMULA)
    return NOT_A_FORMULA


def decode_term_code(c: int) -> Optional[Term]:
    """Partial inverse of encode_term."""
    return _decode_term(c) if c >= 0 else None


# ---------------------------------------------------------------------------
# Quotation helpers
# ---------------------------------------------------------------------------

def _quote_numeral(a: Formula) -> Term:
    """The numeral of the code of ``a``, carrying what decoding that code
    gives: ``a`` itself, or NOT_A_FORMULA when ``a`` prints deeper than
    MAX_NESTING or does not print back at all."""
    n = numeral_of(encode_sentence(a))     # a formula's code is at least 2
    if n.quoted is None:
        _set_quoted(n, a if a.height <= MAX_NESTING else NOT_A_FORMULA)
    return n


def box_quote(a: Formula) -> Formula:
    """(box <numeral of the code of a>); a must be a sentence."""
    if a.free:
        raise FreeVariableError(a.free)
    return Box(_quote_numeral(a))


def strip_box(a: Formula) -> Optional[Formula]:
    """Inverse of box_quote up to term evaluation.

    Returns B when ``a`` is (box t) with t closed, kappa-free, and the value
    of t decodes to a sentence B; otherwise None.
    """
    if not isinstance(a, Box):
        return None
    t = a.arg
    if t.free or t.has_kappa:
        return None
    try:
        g = eval_term(t)
    except EvalError:
        return None
    b = decode_code(g)
    if isinstance(b, NotAFormula) or b.free:
        return None
    return b


def quote_term(a: Formula) -> Term:
    """Term denoting the code of ``a`` with its free variables numeralized.

    Closed a: the numeral of its code.  Open a with free v1 < ... < vk:
    (sub ... (sub <numeral of code a> v1) ... vk), which under an assignment
    of naturals to the vi evaluates to the code of a[vi := numerals].
    """
    t: Term = _quote_numeral(a)
    for v in sorted_vars(a.free):
        t = Fn("sub", (t, Var(v)))
    return t


def quotes_code(t: Term, code: int, free: Iterable[str]) -> bool:
    """t == quote_term(a) for the formula a of code ``code`` and free
    variables ``free``, decided from them alone: neither a nor its numeral
    is built.  It holds when t is (sub ... (sub <code> v1) ... vk), v1 < ...
    < vk the free variables."""
    for v in reversed(sorted_vars(free)):
        if not (type(t) is Fn and t.name == "sub" and type(t.args[1]) is Var
                and t.args[1].name == v):
            return False
        t = t.args[0]
    return type(t) is Num and t.canon == code


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def decimal(n: int) -> str:
    """str(n) for a natural n, the one writer of a numeral's decimal text;
    DigitLimitError, converting nothing, when n has more digits than the
    int-to-str limit.  The count is bounded from n's bit length; n is
    compared with 10**limit only when the bounds fall on both sides of it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    bits = n.bit_length()
    # 2**(bits-1) <= n < 2**bits; 0.30102 < log10(2) < 0.30103
    if not limit or bits * 0.30103 < limit:
        return str(n)
    if (bits - 1) * 0.30102 < limit and n < 10 ** limit:
        return str(n)
    raise DigitLimitError("the output holds a numeral over the "
                          f"{limit}-digit limit of int-to-str conversion")


def _fmt(x: Union[Term, Formula], out: list[str], digits: Callable[[int], str] = decimal) -> None:
    """Append the text of ``x``; ``digits`` writes a numeral's value."""
    t = type(x)
    if not x.height:                      # a leaf: a numeral, a variable or gamma
        out.append(x.name if t is Var or t is Rel else digits(x.canon))
        return
    row = _ROW_OF.get(x.name if t is Fn else t)
    if row is not None and not (t is Imp and x.right == FALSUM):
        parts = children(x)
        out.append(row[1])
        _fmt(parts[0], out, digits)
        if len(parts) == 2:
            out.append(" ")
            _fmt(parts[1], out, digits)
    elif t is Imp:
        out.append("(not ")
        _fmt(x.left, out, digits)
    elif t is Kappa:
        out.append(f"(kappa {x.index}")
    elif t is Rel:                        # act<i>, prov:T, ax:T, proofof:T
        if x.name == "gamma":             # gamma with arguments prints as gamma
            out.append("gamma")
            return
        m = re.fullmatch(r"act(\d+)", x.name)
        out.append("(" + (f"act {int(m.group(1))}" if m else x.name.replace(":", " ", 1)))
        for a in x.args:
            out.append(" ")
            _fmt(a, out, digits)
    else:
        out.append(f"({'forall' if t is Forall else 'exists'} {x.var} ")
        _fmt(x.body, out, digits)
    out.append(")")


def fmt(x: Union[Term, Formula]) -> str:
    """Canonical s-expression text; parse(fmt(x)) == x.  DigitLimitError
    when a numeral of ``x`` is past the digit limit (decimal)."""
    out: list[str] = []
    _fmt(x, out)
    return "".join(out)


def _leading_digits(n: int, count: int) -> str:
    """str(n)[:count], converting only about the first ``count`` digits of
    n: n has at least floor(0.30102 * bit length) digits, and the ones
    past ``count`` of those are divided away first, as (n >> drop) //
    5**drop, which is n // 10**drop with a smaller divisor."""
    drop = n.bit_length() * 30102 // 100000 - count
    return str(n if drop <= 0 else (n >> drop) // 5 ** drop)[:count]


def fmt_prefix(t: Union[Term, Formula], width: int) -> str:
    """fmt(t)[:width], without writing more than ``width`` digits of any
    numeral (int-to-decimal conversion is quadratic in the digits), so
    within any digit limit."""
    out: list[str] = []
    _fmt(t, out, lambda n: _leading_digits(n, width))
    return "".join(out)[:width]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
_DEPTH_STEP = {"(": 1, ")": -1}
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")


def _depths(toks: list[str]) -> Iterator[int]:
    """The number of open parentheses after each token."""
    return accumulate(map(_DEPTH_STEP.get, toks, repeat(0)))


# (s 0) is the term 1, and (= 0 1) the FALSUM that (not A) holds: a reader
# starts from both nodes, so either way of writing them gives one object
_READER_START = {(Succ, ZERO): ONE, (Eq, ZERO, ONE): FALSUM}


class Tokens:
    """The tokens of s-expression text, read front to back.

    The text is split into tokens once, and reading moves an index; the
    character position a ParseError reports is computed from a token index
    only when the error is raised.  Reading stops with a ParseError at the
    first '(' that would leave more than MAX_NESTING parentheses open, so
    every recursive walk of a parsed term or formula stays far inside the
    interpreter's recursion limit.  The reader builds each distinct node
    once: a leaf text (a literal or a variable name) is converted once, and
    ``node`` returns the node it built before for the same constructor and
    parts, so equal parts of the text are one object."""

    __slots__ = ("text", "toks", "i", "stop", "_nodes")

    def __init__(self, text: str):
        self.text = text
        # the tokens _TOKEN_RE finds: str.split() and the regex \s both
        # split at exactly the characters for which str.isspace() holds
        self.toks = toks = text.replace("(", " ( ").replace(")", " ) ").split()
        self.i = 0                        # index of the next token to read
        self.stop = len(toks)             # reading token ``stop`` raises
        if max(_depths(toks), default=0) > MAX_NESTING:
            self.stop = next(k for k, d in enumerate(_depths(toks)) if d > MAX_NESTING)
        # keyed by a leaf's text or by (constructor, *parts)
        self._nodes: dict[Any, Any] = dict(_READER_START)

    def next(self) -> str:
        i = self.i
        if i >= self.stop:
            raise self._halt()
        self.i = i + 1
        return self.toks[i]

    def peek(self) -> Optional[str]:
        """The next token without reading it; None at the end of the input."""
        if self.i < self.stop:
            return self.toks[self.i]
        if self.i < len(self.toks):
            raise self._halt()
        return None

    def expect(self, token: str) -> None:
        tok = self.next()
        if tok != token:
            raise self.error(f"expected {token!r}, found {tok!r}")

    def finish(self) -> None:
        """ParseError "trailing input" unless every token has been read."""
        tok = self.peek()
        if tok is not None:
            raise self.error(f"trailing input {tok!r}", self.i)

    def _halt(self) -> ParseError:
        if self.i < len(self.toks):
            return self.error(f"nesting deeper than {MAX_NESTING}", self.i)
        return self.error("unexpected end of input", self.i)

    def _pos(self, k: int) -> int:
        """Character position of token ``k``: the first character of an atom;
        for a parenthesis, or for ``k`` past the last token, the end of the
        token before it (0 when there is none)."""
        if k < len(self.toks) and self.toks[k] not in ("(", ")"):
            return next(islice(_TOKEN_RE.finditer(self.text), k, None)).start()
        if k == 0:
            return 0
        return next(islice(_TOKEN_RE.finditer(self.text), k - 1, None)).end()

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """ParseError at token index ``at``, by default the last token read."""
        return ParseError(message, self._pos(self.i - 1 if at is None else at))

    def node(self, make: Callable, *parts):
        """make(*parts), the same object for the same constructor and parts
        (equal parts of the text are already one object)."""
        key = (make, *parts)
        x = self._nodes.get(key)
        if x is None:
            x = self._nodes[key] = make(*parts)
        return x

    def leaf(self, tok: str, at: Optional[int] = None) -> Optional[Term]:
        """The numeral a literal (ASCII digits) denotes or the variable a name
        denotes, None for any other token; ParseError at token ``at`` (by
        default the last read) beyond the digit limit of int conversion."""
        try:
            return self._nodes[tok]
        except KeyError:
            pass
        if tok.isascii() and tok.isdigit():
            try:
                t: Optional[Term] = numeral_of(int(tok))
            except ValueError:
                raise self.error(f"literal of {len(tok)} digits is over the "
                                 f"{sys.get_int_max_str_digits()}-digit limit", at) from None
        elif _VAR_RE.fullmatch(tok) and tok not in _RESERVED:
            t = Var(tok)
        else:
            t = None
        self._nodes[tok] = t
        return t

    def literal(self, tok: str, at: Optional[int] = None) -> Optional[int]:
        """Value of a literal token, None when ``tok`` is not one."""
        t = self.leaf(tok, at)
        return None if t is None else t.canon


def _parse_nat(ts: Tokens) -> int:
    tok = ts.next()
    if tok == "(":
        head = ts.next()
        if head == "godel":
            x = _parse_any(ts)
            ts.expect(")")
            return encode_sentence(x)
        raise ts.error(f"expected a natural or (godel ...), found ({head}")
    n = ts.literal(tok)
    if n is not None:
        return n
    raise ts.error(f"expected a natural number, found {tok!r}")


def _parse_head(ts: Tokens, head: str, heads: dict) -> Union[Term, Formula]:
    """The node written (head ...), its '(' and ``head`` read; ``heads`` is
    the head table of the sort expected, _TERM_HEADS or _FORMULA_HEADS."""
    at = ts.i - 1
    row = heads.get(head)
    if row is None:
        sort = "term" if heads is _TERM_HEADS else "formula"
        raise ts.error(f"unknown {sort} operator {head!r}", at)
    make, first, second = row
    if make is not None:
        x = first(ts)
        y = None if second is None else second(ts)
        ts.expect(")")
        return ts.node(make, x) if second is None else ts.node(make, x, y)
    if head == "kappa":
        i = _parse_nat(ts)
        if i < 1:
            raise ts.error("kappa index must be >= 1", at)
        ts.expect(")")
        return ts.node(Kappa, i)
    if head == "num-of" or head == "godel":
        n = _parse_nat(ts) if head == "num-of" else encode_sentence(_parse_any(ts))
        ts.expect(")")
        return numeral_of(n)
    if head == "not":
        arg = _parse_formula(ts)
        ts.expect(")")
        return ts.node(Imp, arg, FALSUM)
    if head == "act":
        i = _parse_nat(ts)
        arg = _parse_term(ts)
        ts.expect(")")
        return ts.node(Rel, f"act{i}", (arg,))
    tok = ts.next()                       # prov, ax and proofof
    if not _THEORY_RE.fullmatch(tok):
        raise ts.error(f"expected a theory name, found {tok!r}")
    args = [_parse_term(ts)]
    if head == "proofof":
        args.append(_parse_term(ts))
    ts.expect(")")
    return ts.node(Rel, f"{head}:{tok}", tuple(args))


def _parse_term(ts: Tokens) -> Term:
    tok = ts.next()
    if tok == "(":
        return _parse_head(ts, ts.next(), _TERM_HEADS)
    t = ts.leaf(tok)
    if t is not None:
        return t
    raise ts.error(f"expected a term, found {tok!r}")


def _parse_formula(ts: Tokens) -> Formula:
    tok = ts.next()
    if tok != "(":
        if tok == "gamma":
            return ts.node(Rel, "gamma", ())
        raise ts.error(f"expected a formula, found {tok!r}")
    return _parse_head(ts, ts.next(), _FORMULA_HEADS)


def _parse_var(ts: Tokens) -> str:
    tok = ts.next()
    if not _VAR_RE.fullmatch(tok) or tok in _RESERVED:
        raise ts.error(f"expected a variable, found {tok!r}")
    return tok


# the reader's rows by head, one table per sort: the regular rows, the
# quantifiers, and the irregular heads that _parse_head reads itself
_IRREGULAR = (None, None, None)
_TERM_HEADS = _part_readers(1, Term, {Term: _parse_term})
_TERM_HEADS.update(dict.fromkeys(("kappa", "num-of", "godel"), _IRREGULAR))
_FORMULA_HEADS = _part_readers(1, Formula, {Term: _parse_term, Formula: _parse_formula})
_FORMULA_HEADS.update({"forall": (Forall, _parse_var, _parse_formula),
                       "exists": (Exists, _parse_var, _parse_formula)})
_FORMULA_HEADS.update(dict.fromkeys(("not", "act", "prov", "ax", "proofof"), _IRREGULAR))
# no variable is named like a head or gamma
_RESERVED = {"gamma", *_TERM_HEADS, *_FORMULA_HEADS}


def _parse_any(ts: Tokens) -> Union[Term, Formula]:
    tok = ts.peek()
    if tok is None:
        raise ParseError("unexpected end of input", len(ts.text))
    if tok == "gamma":
        return _parse_formula(ts)
    if tok != "(":
        return _parse_term(ts)
    ts.next()
    head = ts.next()
    return _parse_head(ts, head, _FORMULA_HEADS if head in _FORMULA_HEADS else _TERM_HEADS)


def _finish(ts: Tokens, x):
    ts.finish()
    return x


def parse_formula_stream(ts: Tokens) -> Formula:
    """Read one formula from ``ts``; the caller reads what follows."""
    return _parse_formula(ts)


def parse_term(text: str) -> Term:
    """Parse a term from canonical s-expression text."""
    return _finish((ts := Tokens(text)), _parse_term(ts))


def parse_formula(text: str) -> Formula:
    """Parse a formula; free variables are allowed (scheme instantiation)."""
    return _finish((ts := Tokens(text)), _parse_formula(ts))


def parse_sentence(text: str) -> Formula:
    """Parse a sentence; rejects open formulas with FreeVariableError."""
    a = parse_formula(text)
    if a.free:
        raise FreeVariableError(a.free)
    return a
