"""Reference reader of the text formats, the oracle for the package's
reader (syntax.Tokens and the readers built on it).  It scans token by token,
one regex match each, and tracks the character position and the
open-parenthesis count as it goes.  It builds trees with the package's node
constructors, so a result compares equal to the package's, and every
ParseError carries the message and position the package must report.
Literals are ASCII digits, as docs/formats.md says."""

import re
import sys
from typing import Optional, Union

from asrt.syntax import (
    MAX_NESTING, Add, And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Kappa,
    Mul, Or, ParseError, Rel, Succ, Term, Var, encode_sentence, encode_term,
    neg, numeral_of,
)
from asrt.kernel import (
    AxiomStep, ComputeStep, HypStep, MPStep, ProofLine, ProofObject,
)
from asrt.agency import LicensingPolicy, PolicyEntry

_TOKEN_RE = re.compile(r"\s*(?:(\()|(\))|([^\s()]+))")
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")
_THEORY_RE = re.compile(r"[a-z][a-z0-9-]*")
_RESERVED = {
    "s", "kappa", "sub", "num", "iterbox", "num-boxed", "num-of", "godel",
    "box", "forall", "exists", "and", "or", "not", "gamma", "act",
    "prov", "ax", "proofof", "0",
}


class _Tokens:
    """Token stream over s-expression text.  It counts open parentheses and
    raises ParseError beyond MAX_NESTING, so every recursive walk of a parsed
    term or formula stays far inside the interpreter's recursion limit."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.peeked: Optional[tuple[str, int]] = None

    def _scan(self) -> Optional[tuple[str, int]]:
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        kind = m.lastindex
        if kind == 1:
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING}", m.start())
            return "(", m.start()
        if kind == 2:
            self.depth -= 1
            return ")", m.start()
        return m.group(3), m.start(3)

    def next(self) -> tuple[str, int]:
        if self.peeked is not None:
            tok, self.peeked = self.peeked, None
            return tok
        tok = self._scan()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        return tok

    def peek(self) -> Optional[tuple[str, int]]:
        if self.peeked is None:
            self.peeked = self._scan()
        return self.peeked

    def expect(self, token: str) -> None:
        tok, pos = self.next()
        if tok != token:
            raise ParseError(f"expected {token!r}, found {tok!r}", pos)

    def at_end(self) -> bool:
        return self.peek() is None


def nat_literal(tok: str, pos: int) -> Optional[int]:
    """Value of a decimal literal token, None when ``tok`` is not one;
    ParseError beyond the digit limit of int conversion."""
    if not (tok.isascii() and tok.isdecimal()):
        return None
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"literal of {len(tok)} digits is over the "
                         f"{sys.get_int_max_str_digits()}-digit limit", pos) from None


def _parse_nat(ts: _Tokens) -> int:
    tok, pos = ts.next()
    if tok == "(":
        head, hpos = ts.next()
        if head == "godel":
            x = _parse_any(ts)
            ts.expect(")")
            return encode_sentence(x) if isinstance(x, Formula) else encode_term(x)
        raise ParseError(f"expected a natural or (godel ...), found ({head}", hpos)
    n = nat_literal(tok, pos)
    if n is not None:
        return n
    raise ParseError(f"expected a natural number, found {tok!r}", pos)


def _parse_term_head(ts: _Tokens, head: str, pos: int) -> Term:
    if head == "s":
        arg = _parse_term(ts)
        ts.expect(")")
        return Succ(arg)
    if head in ("+", "*"):
        left, right = _parse_term(ts), _parse_term(ts)
        ts.expect(")")
        return Add(left, right) if head == "+" else Mul(left, right)
    if head == "kappa":
        i = _parse_nat(ts)
        if i < 1:
            raise ParseError("kappa index must be >= 1", pos)
        ts.expect(")")
        return Kappa(i)
    if head in ("sub", "iterbox"):
        left, right = _parse_term(ts), _parse_term(ts)
        ts.expect(")")
        return Fn(head, (left, right))
    if head == "num":
        arg = _parse_term(ts)
        ts.expect(")")
        return Fn("num", (arg,))
    if head == "num-boxed":
        arg = _parse_term(ts)
        ts.expect(")")
        return Fn("numboxed", (arg,))
    if head in ("num-of", "godel"):
        if head == "num-of":
            n = _parse_nat(ts)
        else:
            x = _parse_any(ts)
            n = encode_sentence(x) if isinstance(x, Formula) else encode_term(x)
        ts.expect(")")
        return numeral_of(n)
    raise ParseError(f"unknown term operator {head!r}", pos)


def _parse_term(ts: _Tokens) -> Term:
    tok, pos = ts.next()
    if tok == "(":
        head, hpos = ts.next()
        return _parse_term_head(ts, head, hpos)
    n = nat_literal(tok, pos)
    if n is not None:
        return numeral_of(n)
    if _VAR_RE.fullmatch(tok) and tok not in _RESERVED:
        return Var(tok)
    raise ParseError(f"expected a term, found {tok!r}", pos)


_FORMULA_HEADS = {"=", "box", "->", "and", "or", "not", "forall", "exists",
                  "act", "prov", "ax", "proofof"}


def _parse_formula_head(ts: _Tokens, head: str, pos: int) -> Formula:
    if head == "=":
        left, right = _parse_term(ts), _parse_term(ts)
        ts.expect(")")
        return Eq(left, right)
    if head == "box":
        arg = _parse_term(ts)
        ts.expect(")")
        return Box(arg)
    if head in ("->", "and", "or"):
        left, right = _parse_formula(ts), _parse_formula(ts)
        ts.expect(")")
        return {"->": Imp, "and": And, "or": Or}[head](left, right)
    if head == "not":
        arg = _parse_formula(ts)
        ts.expect(")")
        return neg(arg)
    if head in ("forall", "exists"):
        tok, vpos = ts.next()
        if not _VAR_RE.fullmatch(tok) or tok in _RESERVED:
            raise ParseError(f"expected a variable, found {tok!r}", vpos)
        body = _parse_formula(ts)
        ts.expect(")")
        return (Forall if head == "forall" else Exists)(tok, body)
    if head == "act":
        i = _parse_nat(ts)
        arg = _parse_term(ts)
        ts.expect(")")
        return Rel(f"act{i}", (arg,))
    if head in ("prov", "ax", "proofof"):
        tok, tpos = ts.next()
        if not _THEORY_RE.fullmatch(tok):
            raise ParseError(f"expected a theory name, found {tok!r}", tpos)
        args = [_parse_term(ts)]
        if head == "proofof":
            args.append(_parse_term(ts))
        ts.expect(")")
        return Rel(f"{head}:{tok}", tuple(args))
    raise ParseError(f"unknown formula operator {head!r}", pos)


def _parse_formula(ts: _Tokens) -> Formula:
    tok, pos = ts.next()
    if tok == "gamma":
        return Rel("gamma", ())
    if tok != "(":
        raise ParseError(f"expected a formula, found {tok!r}", pos)
    head, hpos = ts.next()
    if head in _FORMULA_HEADS:
        return _parse_formula_head(ts, head, hpos)
    raise ParseError(f"unknown formula operator {head!r}", hpos)


def _parse_any(ts: _Tokens) -> Union[Term, Formula]:
    peeked = ts.peek()
    if peeked is None:
        raise ParseError("unexpected end of input", len(ts.text))
    tok, pos = peeked
    if tok == "gamma":
        return _parse_formula(ts)
    if tok != "(":
        return _parse_term(ts)
    ts.next()
    head, hpos = ts.next()
    if head in _FORMULA_HEADS:
        return _parse_formula_head(ts, head, hpos)
    return _parse_term_head(ts, head, hpos)


def _finish(ts: _Tokens, x):
    if not ts.at_end():
        tok, pos = ts.peek()
        raise ParseError(f"trailing input {tok!r}", pos)
    return x


def parse_term(text: str) -> Term:
    return _finish((ts := _Tokens(text)), _parse_term(ts))


def parse_formula(text: str) -> Formula:
    return _finish((ts := _Tokens(text)), _parse_formula(ts))


def proof_from_sexp(text: str) -> ProofObject:
    ts = _Tokens(text)
    ts.expect("(")
    ts.expect("proof")
    ts.expect("(")
    ts.expect("theory")
    name, pos = ts.next()
    if name in ("(", ")"):
        raise ParseError("expected a theory name", pos)
    ts.expect(")")
    lines = []
    while True:
        tok, pos = ts.next()
        if tok == ")":
            break
        if tok != "(":
            raise ParseError(f"expected (step ...), found {tok!r}", pos)
        ts.expect("step")
        sentence = _parse_formula(ts)
        ts.expect("(")
        kind, kpos = ts.next()
        if kind == "axiom":
            step = AxiomStep()
        elif kind == "compute":
            step = ComputeStep()
        elif kind == "hyp":
            step = HypStep()
        elif kind == "mp":
            minor_tok, mpos = ts.next()
            major_tok, jpos = ts.next()
            minor, major = nat_literal(minor_tok, mpos), nat_literal(major_tok, jpos)
            if minor is None or major is None:
                raise ParseError("mp expects two line indices", mpos)
            step = MPStep(minor=minor, major=major)
        else:
            raise ParseError(f"unknown justification {kind!r}", kpos)
        ts.expect(")")
        ts.expect(")")
        lines.append(ProofLine(sentence, step))
    return _finish(ts, ProofObject(name, tuple(lines)))


def policy_from_sexp(text: str) -> LicensingPolicy:
    ts = _Tokens(text)
    ts.expect("(")
    ts.expect("policy")
    entries = []
    while True:
        tok, pos = ts.next()
        if tok == ")":
            break
        if tok != "(":
            raise ParseError(f"expected (entry ...), found {tok!r}", pos)
        ts.expect("entry")
        criterion = _parse_formula(ts)
        action, apos = ts.next()
        if action in ("(", ")"):
            raise ParseError("expected an action identifier", apos)
        box_rule = True
        tok, pos = ts.next()
        if tok == "exact":
            box_rule = False
            tok, pos = ts.next()
        if tok != ")":
            raise ParseError("expected end of entry", pos)
        entries.append(PolicyEntry(criterion, action, box_rule))
    return _finish(ts, LicensingPolicy(tuple(entries)))
