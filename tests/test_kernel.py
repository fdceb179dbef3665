import ast
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from asrt.syntax import (
    And, Box, Eq, Exists, Fn, Forall, Imp, Num, Or, Rel, Succ, Var,
    FALSUM, MAX_NESTING, NOT_A_FORMULA, NotAFormula,
    box_quote, children, close_over, decode_code, encode_sentence, fmt, fmt_prefix,
    neg, numeral_of, parse_formula, parse_sentence, quote_term,
)
import asrt.kernel as kernel
from asrt.kernel import (
    SSTAR_MAX_KAPPA, AxiomStep, Builder, CheckReport, ComputeStep, HypStep,
    Justification, KernelError, LineRecord, MPStep, ProofLine, ProofObject,
    ProofStore, Theorem, TheoryConfig, UnknownTheoryError,
    accept, admit_computation, capture_axiom, check_proof,
    extend_theory, is_axiom, jump_axiom_of, preset_theory,
    proof_code_valid, proof_from_sexp, proof_to_sexp, sbox_pa, sstar,
)
from asrt.derive import InvalidDerivation, discharge_hypothesis, dist_lemma
from asrt.agency import (
    AgentSpec, DelegationResult, LicensingPolicy, PolicyEntry, TrustDemoResult,
)
from asrt.diagonal import FixedPointResult, LiarSuite, liar_suite
from asrt.corpus import build_corpus, build_unsound_corpus
from asrt.reflection import MPChainTrace, ReflectionTrace, reflect_theorem
from asrt.semantics import AuditReport, Verdict


# ---------------------------------------------------------------------------
# Axiom recognizers
# ---------------------------------------------------------------------------

def test_jump_axiom_recognized(t_box):
    assert is_axiom(t_box, jump_axiom_of(t_box)).rule == "jump"
    assert is_axiom(t_box, jump_axiom_of(t_box, "v")).rule == "jump"
    assert is_axiom(t_box, parse_sentence("(forall h (-> (ax sbox-pa h) (box h)))")).rule == "jump"


def test_jump_axiom_not_in_pa(t_pa, t_box):
    assert is_axiom(t_pa, jump_axiom_of(t_box)) is None


_H = Var("h")


@pytest.mark.parametrize("a", [parse_sentence(text) for text in (
    "(forall h (-> (ax sbox-pa h) (box (s h))))",
    "(forall h (-> (ax sbox-pa 0) (box h)))",
    "(forall h (-> (ax pa h) (box h)))",
    "(forall h (-> (prov sbox-pa h) (box h)))",
    "(forall h (-> (box h) (ax sbox-pa h)))",
    "(forall h (forall g (-> (ax sbox-pa h) (box g))))",
    "(forall h (forall g (-> (ax sbox-pa g) (box g))))",
    "(forall g (forall g (-> (ax sbox-pa g) (box g))))",
    "(exists h (-> (ax sbox-pa h) (box h)))",
)] + [Forall("h", Imp(Rel("ax:sbox-pa", (_H, _H)), Box(_H)))], ids=fmt)
def test_near_misses_of_the_jump_axiom_are_not_axioms(t_box, a):
    assert is_axiom(t_box, a) is None


def test_box_or_axiom_both_directions(t_box):
    a, b = parse_sentence("(= 0 0)"), FALSUM
    fwd = Imp(Box(quote_term(Or(a, b))),
              Or(Box(quote_term(a)), Box(quote_term(b))))
    bwd = Imp(Or(Box(quote_term(a)), Box(quote_term(b))),
              Box(quote_term(Or(a, b))))
    assert is_axiom(t_box, fwd).rule == "box-or-fwd"
    assert is_axiom(t_box, bwd).rule == "box-or-bwd"


def _box_rows():
    """(name, sentence, rule, note) rows pinning the box distribution
    schemes, capture, and the generalization implications' prefix."""
    q = quote_term
    a, b = parse_sentence("(= 0 0)"), FALSUM
    nm = parse_formula("(= n m)")                 # quoted through (sub (sub c m) n)
    nn = parse_formula("(= n n)")
    fa, ex = Forall("n", nm), Exists("n", nm)

    def m(x):
        return Forall("m", x)

    # a sub chain naming m, which is not free in (= n n)
    stray = Fn("sub", (q(nn), Var("m")))
    return [
        ("box-or-fwd", Imp(Box(q(Or(a, b))), Or(Box(q(a)), Box(q(b)))), "box-or-fwd", ""),
        ("box-or-bwd", Imp(Or(Box(q(a)), Box(q(b))), Box(q(Or(a, b)))), "box-or-bwd", ""),
        ("box-and-fwd", Imp(Box(q(And(a, b))), And(Box(q(a)), Box(q(b)))),
         "box-and-fwd", ""),
        ("box-and-bwd", Imp(And(Box(q(a)), Box(q(b))), Box(q(And(a, b)))),
         "box-and-bwd", ""),
        ("box-imp", Imp(Box(q(Imp(a, b))), Imp(Box(q(a)), Box(q(b)))), "box-imp", ""),
        ("box-forall-fwd-open", m(Imp(Box(q(fa)), Forall("n", Box(q(nm))))),
         "box-forall-fwd", ""),
        ("box-forall-bwd-open", m(Imp(Forall("n", Box(q(nm))), Box(q(fa)))),
         "box-forall-bwd", ""),
        ("box-exists-open", m(Imp(Exists("n", Box(q(nm))), Box(q(ex)))), "box-exists", ""),
        ("capture-open", capture_axiom(nm), "capture", ""),
        ("capture-of-a-boxed-disjunction",
         Imp(Or(Box(q(a)), Box(q(b))), Box(q(Or(Box(q(a)), Box(q(b)))))), "capture", ""),
        ("no-box-imp-backward", Imp(Imp(Box(q(a)), Box(q(b))), Box(q(Imp(a, b)))),
         None, None),
        ("no-box-exists-forward", m(Imp(Box(q(ex)), Exists("n", Box(q(nm))))), None, None),
        ("quote-of-the-wrong-formula", Imp(Box(q(Or(a, b))), Or(Box(q(b)), Box(q(a)))),
         None, None),
        ("sub-chain-names-a-variable-not-free-in-the-quote",
         m(Imp(Forall("n", Box(stray)), Box(q(Forall("n", nn))))), None, None),
        ("gen-forall-two-variables",
         Imp(Forall("n", m(Imp(a, nm))), m(Imp(a, Forall("n", nm)))),
         "gen-forall", "n"),
        ("gen-exists-two-variables",
         Imp(Forall("n", m(Imp(nm, a))), m(Imp(Exists("n", nm), a))),
         "gen-exists", "n"),
        ("gen-forall-repeated-variable",
         Imp(Forall("n", Forall("n", Imp(a, nn))),
             Imp(a, Forall("n", Forall("n", nn)))), None, None),
        ("gen-exists-repeated-variable",
         Imp(Forall("n", Forall("n", Imp(nn, a))),
             Imp(Exists("n", nn), a)), None, None),
        # the matrix under the distinct-variable prefix is (forall x (= x x))
        ("repeated-prefix-variable", parse_sentence("(forall x (forall x (= x x)))"),
         None, None),
    ]


@pytest.mark.parametrize("name, sentence, rule, note", _box_rows(),
                         ids=[r[0] for r in _box_rows()])
def test_box_and_prefix_verdict_table(name, sentence, rule, note, t_box):
    assert sentence.closed
    j = is_axiom(t_box, sentence)
    assert (j and (j.rule, j.note)) == ((rule, note) if rule else None)


def test_release_is_not_an_axiom(t_box):
    a = parse_sentence("(= 0 0)")
    assert is_axiom(t_box, Imp(box_quote(a), a)) is None


def test_capture_closed_and_open(t_box):
    a = parse_sentence("(= 0 0)")
    assert is_axiom(t_box, capture_axiom(a)).rule == "capture"
    open_ = parse_formula("(= n n)")
    cap = capture_axiom(open_)
    assert cap.closed and is_axiom(t_box, cap).rule == "capture"


def test_excluded_middle_box_free_only(t_box):
    a = parse_sentence("(= 0 0)")
    assert is_axiom(t_box, Or(a, neg(a))).rule == "excluded-middle"
    boxed = box_quote(a)
    assert is_axiom(t_box, Or(boxed, neg(boxed))) is None


def test_generalization_implications(t_box):
    nn = parse_formula("(= n n)")
    closed = parse_sentence("(= 0 0)")
    gi1 = Imp(Forall("n", Imp(closed, nn)), Imp(closed, Forall("n", nn)))
    assert is_axiom(t_box, gi1).rule == "gen-forall"
    gi2 = Imp(Forall("n", Imp(nn, closed)), Imp(Exists("n", nn), closed))
    assert is_axiom(t_box, gi2).rule == "gen-exists"
    # freshness condition violated: n free in the stationary side
    bad = Imp(Forall("n", Imp(nn, nn)), Imp(nn, Forall("n", nn)))
    assert bad.free or is_axiom(t_box, bad) is None


def test_forall_elim_with_prefix_covered_term(t_box):
    nn = parse_formula("(= n n)")
    inst = close_over(("m",), Imp(Forall("n", nn),
                                  parse_formula("(= m m)")))
    assert is_axiom(t_box, inst).rule == "forall-elim"
    # term outside the prefix is rejected
    loose = Imp(Forall("n", nn), parse_formula("(= m m)"))
    assert loose.free


def _note_terms():
    """Terms whose first 80 printed characters a forall-elim or
    exists-intro note keeps: numerals at and around powers of ten, random
    naturals up to 60k bits, and terms with big numerals inside."""
    rnd = random.Random(80)
    values = [0, 1, 2]
    for k in [*range(75, 86), 299, 300, 301, 1300, 4800]:
        values += [10 ** k - 1, 10 ** k, 10 ** k + 1]
    values += [rnd.getrandbits(rnd.randrange(1, 60_001)) for _ in range(40)]
    values += [rnd.getrandbits(bits) for bits in (60_000, 59_999, 265, 266, 267)]
    terms = [numeral_of(v) for v in values]
    big = numeral_of(rnd.getrandbits(15_000))
    terms += [Fn("sub", (big, Var("x"))), Fn("sub", (numeral_of(7), big)),
              Succ(Var("x")), Fn("num", (Fn("iterbox", (Var("k"), big)),))]
    return terms


def test_note_prefix_is_the_printed_prefix():
    for t in _note_terms():
        assert fmt_prefix(t, 80) == fmt(t)[:80], fmt(t)[:90]
    for width in (0, 1, 5, 200):
        t = numeral_of(10 ** 300 + 12345)
        assert fmt_prefix(t, width) == fmt(t)[:width]


def test_forall_elim_note_at_a_big_code(t_box):
    """The note names the instance term by its first 80 characters."""
    a = parse_formula("(= n n)")
    big = box_quote(box_quote(box_quote(FALSUM)))
    for t in (numeral_of(encode_sentence(big)), Fn("sub", (numeral_of(encode_sentence(a)),
                                                            numeral_of(10 ** 90)))):
        inst = Imp(Forall("g", Imp(Box(Var("g")), Box(Var("g")))),
                   Imp(Box(t), Box(t)))
        j = is_axiom(t_box, inst)
        assert j.rule == "forall-elim" and j.note == fmt(t)[:80]


def test_forall_elim_capture_rejected(t_box):
    # (forall n)(exists m)(n = m) -> (exists m)(m = m) would capture m
    body = Exists("m", Eq(Var("n"), Var("m")))
    bad = close_over(("m",), Imp(Forall("n", body),
                                 Exists("m", Eq(Var("m"), Var("m")))))
    assert is_axiom(t_box, bad) is None


def test_induction_over_box_language(t_box):
    a = parse_formula("(box (num n))")
    inst = Imp(And(parse_sentence("(box (num 0))"),
                   Forall("n", Imp(a, parse_formula("(box (num (s n)))")))),
               Forall("n", a))
    assert is_axiom(t_box, inst).rule == "induction"


def test_leibniz_replacement(t_box):
    from asrt.syntax import parse_term
    q = parse_term("(sub 3 3)")
    target = numeral_of(17)
    leib = Imp(Eq(q, target), Imp(Box(q), Box(target)))
    assert is_axiom(t_box, leib).rule == "eq-leibniz"
    wrong = Imp(Eq(q, target), Imp(Box(q), Box(numeral_of(18))))
    assert is_axiom(t_box, wrong) is None


def _leibniz_rows():
    """(name, theory, sentence, rule) rows pinning eq-leibniz at binders,
    relation atoms, kappa constants, function symbols and numeral leaves."""
    three, four = numeral_of(3), numeral_of(4)
    proofof = "proofof:sbox-pa"
    rows = [
        ("binder-captures-t", "sbox-pa",
         "(forall y (-> (= y 0) (-> (forall y (= y 1)) (forall y (= 0 1)))))", None),
        ("binder-captures-nothing", "sbox-pa",
         "(forall y (-> (= y 0) (-> (forall z (= y z)) (forall z (= 0 z)))))", "eq-leibniz"),
        ("binder-captures-u", "sbox-pa",
         "(forall y (-> (= 0 y) (-> (exists y (= 0 1)) (exists y (= y 1)))))", None),
        ("binder-of-another-variable", "sbox-pa",
         "(forall y (-> (= 0 y) (-> (exists z (= 0 z)) (exists z (= y z)))))", "eq-leibniz"),
        ("binders-of-two-variables", "sbox-pa",
         "(-> (= 3 4) (-> (forall x (= 3 0)) (forall y (= 4 0))))", None),
        ("relation-of-another-name", "sbox-pa",
         "(-> (= 3 4) (-> (prov sbox-pa 3) (ax sbox-pa 4)))", None),
        ("relation-of-the-same-name", "sbox-pa",
         "(-> (= 3 4) (-> (prov sbox-pa 3) (prov sbox-pa 4)))", "eq-leibniz"),
        ("relation-of-another-arity", "sbox-pa",
         Imp(Eq(three, four), Imp(Rel(proofof, (three, three)), Rel(proofof, (four,)))), None),
        ("relation-of-the-same-arity", "sbox-pa",
         Imp(Eq(three, four), Imp(Rel(proofof, (three, three)), Rel(proofof, (four, three)))),
         "eq-leibniz"),
        ("another-kappa-index", "sstar-3",
         "(-> (= 3 4) (-> (= (kappa 1) 3) (= (kappa 2) 4)))", None),
        ("the-same-kappa-index", "sstar-3",
         "(-> (= 3 4) (-> (= (kappa 1) 3) (= (kappa 1) 4)))", "eq-leibniz"),
        ("another-function-symbol", "sbox-pa",
         "(-> (= 3 4) (-> (= (num 3) 0) (= (num-boxed 4) 0)))", None),
        ("the-same-function-symbol", "sbox-pa",
         "(-> (= 3 4) (-> (= (num 3) 0) (= (num 4) 0)))", "eq-leibniz"),
        # 4 is (* (s (s 0)) 2) and 10 is (* (s (s 0)) 5): only the views hold 2 and 5
        ("replacement-inside-a-numeral", "sbox-pa", "(-> (= 2 5) (-> (= 4 0) (= 10 0)))",
         "eq-leibniz"),
        ("no-replacement-inside-a-numeral", "sbox-pa", "(-> (= 2 5) (-> (= 4 0) (= 11 0)))",
         None),
    ]
    return [(name, theory, parse_sentence(a) if isinstance(a, str) else a, rule)
            for name, theory, a, rule in rows]


@pytest.mark.parametrize("name, theory, sentence, rule", _leibniz_rows(),
                         ids=[r[0] for r in _leibniz_rows()])
def test_leibniz_verdict_table(name, theory, sentence, rule):
    j = is_axiom(preset_theory(theory), sentence)
    assert (j and j.rule) == rule


def test_iterbox_axioms_only_with_kappa_theory(t_box):
    ts = sstar(2)
    g = numeral_of(7)
    zero_inst = Eq(parse_formula_term("(iterbox 0 7)"), g)
    assert is_axiom(ts, zero_inst).rule == "iterbox-zero"
    assert is_axiom(t_box, zero_inst) is None
    succ_inst = parse_sentence(
        "(= (iterbox (s (kappa 2)) 7) (num-boxed (iterbox (kappa 2) 7)))")
    assert is_axiom(ts, succ_inst).rule == "iterbox-succ"


def parse_formula_term(text):
    from asrt.syntax import parse_term
    return parse_term(text)


def test_kappa_axioms_and_language_bounds():
    ts = sstar(3)
    from asrt.syntax import Kappa
    assert is_axiom(ts, Eq(Kappa(1), Succ(Kappa(2)))).rule == "extra"
    assert is_axiom(ts, Eq(Kappa(2), Succ(Kappa(3)))).rule == "extra"
    assert is_axiom(ts, Eq(Kappa(3), Succ(Kappa(4)))) is None  # out of range


# schemes that destructure (s t) or (* t u) met with canonical numerals, which
# they must read through the dyadic form: 5 is (s 4), 4 is (* (s (s 0)) 2)
@pytest.mark.parametrize("theory, text, rule", [
    ("sbox-pa", "(-> (= 5 3) (= 4 2))", "pa-succ-inj"),
    ("sbox-pa", "(-> (= (s 4) (s 2)) (= 4 2))", "pa-succ-inj"),
    ("sbox-pa", "(-> (= 5 0) (= 0 1))", "pa-succ-nonzero"),
    ("sbox-pa", "(forall x (= (* x 3) (+ (* x 2) x)))", "pa-mul-succ"),
    ("sbox-pa", "(= (* 7 3) (+ (* 7 2) 7))", "pa-mul-succ"),
    ("sbox-pa", "(= (+ 7 3) (s (+ 7 2)))", "pa-add-succ"),
    ("sbox-pa", "(-> (forall x (= (s x) (s x))) (= 5 5))", "forall-elim"),
    ("sbox-pa", "(-> (forall x (= (s x) 5)) (= 5 5))", "forall-elim"),
    ("sbox-pa", "(-> (= 4 6) (-> (= (s 4) 5) (= (s 6) 5)))", "eq-leibniz"),
    ("sbox-pa", "(-> (= 5 7) (-> (= 5 5) (= 7 5)))", "eq-leibniz"),
    ("sstar-2", "(= (iterbox 3 7) (num-boxed (iterbox 2 7)))", "iterbox-succ"),
    ("sstar-2", "(= (iterbox 5 7) (num-boxed (iterbox 4 7)))", "iterbox-succ"),
    ("sbox-pa", "(-> (= (* x 3) 0) (= 0 1))", None),
])
def test_numeral_destructuring_verdicts(theory, text, rule):
    j = is_axiom(preset_theory(theory), parse_formula(text))
    assert (j and j.rule) == rule


def test_successor_of_even_numeral_is_the_numeral():
    from asrt.syntax import encode_term, parse_term
    t, five = parse_term("(s 4)"), numeral_of(5)
    assert t == five and hash(t) == hash(five)
    assert encode_term(t) == encode_term(five)
    assert fmt(t) == "5"


# (sentence, rule recorded, another row the sentence is an instance of): the
# table's order decides which rule an instance of two rows records
@pytest.mark.parametrize("text, rule, other", [
    ("(-> (= 0 1) (box (godel (= 0 1))))", "ex-falso", "capture"),
    ("(-> (= 0 1) (= 1 0))", "ex-falso", "eq-symm"),
    ("(-> (= 0 1) (-> (= 0 0) (= 0 1)))", "k", "ex-falso"),
    ("(-> (= 0 0) (-> (= 0 0) (= 0 0)))", "k", "eq-trans"),
    ("(-> (and (= 0 0) (= 0 0)) (= 0 0))", "and-elim-left", "and-elim-right"),
    ("(-> (= 0 0) (or (= 0 0) (= 0 0)))", "or-intro-left", "or-intro-right"),
])
def test_the_earlier_row_names_an_instance_of_two_rows(t_box, text, rule, other):
    a = parse_sentence(text)
    assert is_axiom(t_box, a).rule == rule
    match = next(match for name, _, _, match in kernel._SCHEMES if name == other)
    assert match(a, (), t_box)


@pytest.fixture(scope="module")
def reflected_corpus():
    """The corpus and the unsound corpus; each sbox-pa entry of the corpus
    reflected once and twice, in that order; and not-liar reflected one to
    three deep."""
    store = ProofStore()
    corpus = build_corpus(store)
    reflected = []
    for p in corpus:
        if p.theory == "sbox-pa":
            once = reflect_theorem(p.config, p, store).output
            reflected += [once, reflect_theorem(p.config, once, store).output]
    deep = [liar_suite(sbox_pa(), store).not_liar]
    for _ in range(3):
        deep.append(reflect_theorem(sbox_pa(), deep[-1], store).output)
    return corpus + build_unsound_corpus(), reflected, deep[1:]


def _records_digest(proofs) -> tuple[int, str]:
    records = [r for p in proofs for r in p.records]
    text = "".join(f"{r.rule}\x00{r.note}\n" for r in records)
    return len(records), hashlib.sha256(text.encode()).hexdigest()


def test_line_records_of_the_corpus_and_its_reflections_are_pinned(reflected_corpus):
    """Every line record's rule and note, in order, over the corpus, the
    unsound corpus and each sbox-pa entry reflected once and twice; the same
    over not-liar reflected one to three deep; and the script text of every
    reflection."""
    sources, reflected, deep = reflected_corpus
    assert _records_digest(sources + reflected) == (
        10_003, "eaf16703bf9783733b48cc2e8784e8bc0002fb15b76ccd9059a8cf654c3d3631")
    assert _records_digest(deep) == (
        1_331, "e3bd6724a37dadf8bde02697c61f8ad61e6236acde2826207f48b3ead646a05d")
    digest = hashlib.sha256()
    for p in reflected + deep:
        digest.update(proof_to_sexp(p).encode() + b"\n")
    assert (len(reflected + deep), digest.hexdigest()) == (
        117, "29adb3fb919a7719a33c15af7ac4a6cf6327205d65a03e91e5592467363414c4")


# ---------------------------------------------------------------------------
# The quotation rows against their definitions
# ---------------------------------------------------------------------------

def _quoted(s):
    """The formula A with s == quote_term(A), read from the numeral under
    the sub chain s; None when there is none."""
    probe = s
    while isinstance(probe, Fn) and probe.name == "sub":
        probe = probe.args[0]
    a = decode_code(probe.canon) if probe.canon is not None else NOT_A_FORMULA
    return None if isinstance(a, NotAFormula) or quote_term(a) != s else a


def _unboxed(x):
    """C(A, B), built, from C(box<A>, box<B>), and (Q n) A from
    (Q n) box<A>; None otherwise."""
    if isinstance(x, (Forall, Exists)):
        a = _quoted(x.body.arg) if isinstance(x.body, Box) else None
        return None if a is None else type(x)(x.var, a)
    if isinstance(x, (And, Or, Imp)) and isinstance(x.left, Box) and isinstance(x.right, Box):
        a, b = _quoted(x.left.arg), _quoted(x.right.arg)
        return None if a is None or b is None else type(x)(a, b)
    return None


def _fwd(m):
    """box<C(A, B)> -> C(box<A>, box<B>), or box<(Q n) A> -> (Q n) box<A>"""
    x = _unboxed(m.right)
    return x is not None and m.left.arg == quote_term(x)


def _bwd(m):
    """C(box<A>, box<B>) -> box<C(A, B)>, or (Q n) box<A> -> box<(Q n) A>"""
    x = _unboxed(m.left)
    return x is not None and m.right.arg == quote_term(x)


# the eight box rows and capture, as docs/axioms.md defines them
_QUOTATION_ROWS = {
    "box-or-fwd": _fwd, "box-and-fwd": _fwd, "box-imp": _fwd, "box-forall-fwd": _fwd,
    "box-or-bwd": _bwd, "box-and-bwd": _bwd, "box-forall-bwd": _bwd, "box-exists": _bwd,
    "capture": lambda m: m.right.arg == quote_term(m.left),
}


def _defined_rule(t, a):
    """is_axiom's (rule, note) with the quotation rows decided by the
    definitions above, each other row by its kernel matcher."""
    if a.free or not t.in_language(a):
        return None
    if a in t.extra_axioms:
        return "extra", ""
    prefix, m = [], a
    while isinstance(m, Forall) and m.var not in prefix:
        prefix.append(m.var)
        m = m.body
    for rule, shape, flag, match in kernel._SCHEMES:
        if isinstance(shape, tuple):
            fits = type(m) is Imp and all(c is None or type(side) is c
                                          for c, side in zip(shape, (m.left, m.right)))
        else:
            fits = type(m) is shape
        if fits and (flag is None or getattr(t, flag)):
            defined = _QUOTATION_ROWS.get(rule)
            hit = defined(m) if defined else match(m, tuple(prefix), t)
            if hit:
                return rule, "" if hit is True else hit
    return None


def _kernel_rule(t, a):
    j = is_axiom(t, a)
    return None if j is None else (j.rule, j.note)


@pytest.fixture(scope="module")
def quotation_lines(reflected_corpus):
    """Quotation row -> (theory, sentence) of every line its record names."""
    sources, reflected, deep = reflected_corpus
    lines: dict = {rule: [] for rule in _QUOTATION_ROWS}
    for p in sources + reflected + deep:
        for line, r in zip(p.lines, p.records):
            if r.rule in lines:
                lines[r.rule].append((p.config, line.sentence))
    return lines


def test_the_quotation_rows_agree_with_their_definitions(quotation_lines):
    lines = [line for rows in quotation_lines.values() for line in rows]
    rules = [_kernel_rule(t, a) for t, a in lines]
    assert rules == [_defined_rule(t, a) for t, a in lines]
    assert rules == [(rule, "") for rule, rows in quotation_lines.items() for _ in rows]
    assert len(lines) == 2_149 and all(quotation_lines.values())


# A of height 256, the most the decoder reads, and C(A, B) of height 257
_A256 = parse_sentence("(not " * 255 + "(= 0 0)" + ")" * 255)
_B = parse_sentence("(= 1 1)")
_ON_THE_CAP = [
    Imp(Box(quote_term(Imp(_A256, _B))), Imp(Box(quote_term(_A256)), Box(quote_term(_B)))),
    Imp(And(Box(quote_term(_A256)), Box(quote_term(_B))), Box(quote_term(And(_A256, _B)))),
    Imp(Box(quote_term(Forall("x", _A256))), Forall("x", Box(quote_term(_A256)))),
    Imp(Exists("x", Box(quote_term(_A256))), Box(quote_term(Exists("x", _A256)))),
    Imp(Imp(_A256, _B), Box(quote_term(Imp(_A256, _B)))),
    # a part of height 257, which does not decode
    Imp(Box(quote_term(Imp(neg(_A256), _B))),
        Imp(Box(quote_term(neg(_A256))), Box(quote_term(_B)))),
]


def test_the_quotation_rows_agree_on_a_quote_past_the_decoder_cap(t_box):
    assert Imp(_A256, _B).height == MAX_NESTING + 1
    rules = [_kernel_rule(t_box, a) for a in _ON_THE_CAP]
    assert rules == [_defined_rule(t_box, a) for a in _ON_THE_CAP]
    assert [r and r[0] for r in rules] == [
        "box-imp", "box-and-bwd", "box-forall-fwd", "box-exists", "capture", None]


def _rebuilt(x, parts):
    """x with its children replaced by ``parts``."""
    if isinstance(x, (Fn, Rel)):
        return type(x)(x.name, parts)
    if isinstance(x, (Forall, Exists)):
        return type(x)(x.var, *parts)
    return type(x)(*parts)


def _sites(x, path=()):
    """(path, node) for x and every node under it."""
    yield path, x
    for i, child in enumerate(children(x)):
        yield from _sites(child, path + (i,))


def _replace(x, path, new):
    if not path:
        return new
    parts = list(children(x))
    parts[path[0]] = _replace(parts[path[0]], path[1:], new)
    return _rebuilt(x, parts)


def _is_sub(y):
    return isinstance(y, Fn) and y.name == "sub" and isinstance(y.args[1], Var)


_SWAP = {And: (Or, Imp), Or: (And, Imp), Imp: (And, Or), Forall: (Exists,), Exists: (Forall,)}


def _near_misses(y, names):
    """(kind, mutant) for each mutant of node y: its value moved by one; a
    sub level dropped, added, renamed or reordered; the connective or
    quantifier swapped; the quantifier's variable renamed.  ``names`` are
    the variable names to use."""
    if type(y) is Num:
        yield from (("numeral", numeral_of(y.canon + d)) for d in (-1, 1))
    if type(y) is Num or _is_sub(y):
        yield from (("sub-added", Fn("sub", (y, Var(v)))) for v in names)
    if _is_sub(y):
        inner, v = y.args
        yield "sub-dropped", inner
        yield from (("sub-renamed", Fn("sub", (inner, Var(w)))) for w in names if w != v.name)
        if _is_sub(inner):
            yield "sub-reordered", Fn("sub", (Fn("sub", (inner.args[0], v)), inner.args[1]))
    for other in _SWAP.get(type(y), ()):
        yield "swapped", (other(y.var, y.body) if isinstance(y, (Forall, Exists))
                          else other(y.left, y.right))
    if isinstance(y, (Forall, Exists)):
        yield from (("renamed", type(y)(w, y.body)) for w in names if w != y.var)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_quotation_rows_agree_on_near_misses(quotation_lines, data):
    """A line of a drawn quotation row (or of the cap cases), one mutation
    of a drawn kind at a drawn node; the kernel and the definitions agree."""
    lines = {**quotation_lines, "on-the-cap": [(sbox_pa(), a) for a in _ON_THE_CAP]}
    t, a = data.draw(st.sampled_from(lines[data.draw(st.sampled_from(sorted(lines)))]))
    names = sorted({y.var for _, y in _sites(a) if isinstance(y, (Forall, Exists))} | {"x", "zz"})
    mutants: dict = {}
    for path, y in _sites(a):
        for kind, new in _near_misses(y, names):
            mutants.setdefault(kind, []).append((path, new))
    path, new = data.draw(st.sampled_from(mutants[data.draw(st.sampled_from(sorted(mutants)))]))
    b = _replace(a, path, new)
    assert _kernel_rule(t, b) == _defined_rule(t, b), fmt_prefix(b, 200)


def test_docs_axioms_lists_the_scheme_table_in_order():
    text = (Path(__file__).parents[1] / "docs" / "axioms.md").read_text(encoding="utf-8")
    schemes = text.split("\n## Schemes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (?:`(\w+)`|—) \|$", schemes, re.M)
    assert rows == [(rule, flag or "") for rule, _, flag, _ in kernel._SCHEMES]


# ---------------------------------------------------------------------------
# Computation axioms and the proof store
# ---------------------------------------------------------------------------

def test_computation_equalities(t_pa):
    assert admit_computation(t_pa, parse_sentence("(= (+ 2 2) 4)")).rule == "comp-eq"
    assert admit_computation(t_pa, parse_sentence("(not (= 2 3))")).rule == "comp-neq"
    assert admit_computation(t_pa, parse_sentence("(= 2 3)")) is None
    assert admit_computation(t_pa, parse_sentence("(not (= 2 2))")) is None


def test_computation_rejects_nonatomic_and_open(t_pa):
    assert admit_computation(t_pa, parse_sentence("(or (= 0 0) (= 0 0))")) is None
    assert admit_computation(t_pa, parse_formula("(= n n)")) is None


def test_computation_ax_claims(t_box):
    g = encode_sentence(parse_sentence("(forall x (= x x))"))
    assert admit_computation(
        t_box, Rel("ax:sbox-pa", (numeral_of(g),))).rule == "comp-ax"
    assert admit_computation(
        t_box, neg(Rel("ax:sbox-pa", (numeral_of(0),)))).rule == "comp-not-ax"
    # jump axiom is not a main axiom
    ja = encode_sentence(jump_axiom_of(t_box))
    assert admit_computation(t_box, Rel("ax:sbox-pa", (numeral_of(ja),))) is None


def test_prov_requires_registered_proof(t_box):
    store = ProofStore()
    a = parse_sentence("(forall x (= x x))")
    claim = Rel("prov:sbox-pa", (numeral_of(encode_sentence(a)),))
    assert admit_computation(t_box, claim, store) is None
    b = Builder(t_box, store)
    b.axiom(a)
    store.register(t_box, b.checked_proof())
    assert admit_computation(t_box, claim, store).rule == "comp-prov"


def test_store_monotonicity(t_box):
    """A fresh (deleted) store invalidates prov admissions made earlier."""
    store = ProofStore()
    a = parse_sentence("(forall x (= x x))")
    b = Builder(t_box, store)
    b.axiom(a)
    store.register(t_box, b.checked_proof())
    claim = Rel("prov:sbox-pa", (numeral_of(encode_sentence(a)),))
    bb = Builder(t_box, store)
    bb.compute(claim)
    proof = bb.checked_proof()
    assert check_proof(t_box, proof, store).accepted
    assert not check_proof(t_box, proof, ProofStore()).accepted


def test_store_rejects_unchecked(t_box):
    store = ProofStore()
    bad = ProofObject(t_box.name, (ProofLine(FALSUM, AxiomStep()),))
    with pytest.raises(KernelError, match="proof rejected at line 0: not an axiom"):
        store.register(t_box, bad)


def test_proofof_evaluation(t_pa):
    from asrt.syntax import _list_code
    refl = parse_sentence("(forall x (= x x))")
    p = _list_code([encode_sentence(refl)])
    assert proof_code_valid(t_pa, p, encode_sentence(refl))
    assert not proof_code_valid(t_pa, p, encode_sentence(FALSUM))
    assert not proof_code_valid(t_pa, 0, encode_sentence(FALSUM))
    # with a modus ponens line, searched structurally
    a = parse_sentence("(= 0 0)")
    imp = Imp(a, Or(a, FALSUM))
    p2 = _list_code([encode_sentence(a), encode_sentence(imp),
                     encode_sentence(Or(a, FALSUM))])
    assert proof_code_valid(t_pa, p2, encode_sentence(Or(a, FALSUM)))


def test_proofof_judges_like_check_proof_with_premises_named():
    """A coded line that follows by modus ponens is valid even when it is
    also a computation claim the evaluator fails on, as it is in a proof
    script that names the premises."""
    from asrt.syntax import _list_code
    a = parse_sentence("(= 0 0)")
    c = parse_sentence("(= (iterbox 5000 0) 0)")
    t = TheoryConfig("proofof-test", extra_axioms=(Imp(a, c),))
    named = ProofObject(t.name, (ProofLine(a, AxiomStep()), ProofLine(Imp(a, c), AxiomStep()),
                                 ProofLine(c, MPStep(major=1, minor=0))))
    assert check_proof(t, named).accepted
    code = _list_code([encode_sentence(line.sentence) for line in named.lines])
    assert proof_code_valid(t, code, encode_sentence(c))
    # alone, the same line is refused
    assert not proof_code_valid(t, _list_code([encode_sentence(c)]), encode_sentence(c))


def test_proofof_decides_a_long_axiom_code_quickly(t_box):
    """Premise candidates come from an index of the lines read so far, not a
    search over all pairs of earlier lines."""
    import time
    from asrt.syntax import _list_code
    codes = [encode_sentence(Eq(numeral_of(i), numeral_of(i))) for i in range(4000)]
    code = _list_code(codes)
    start = time.perf_counter()
    assert proof_code_valid(t_box, code, codes[-1])
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

def test_one_line_equality_axiom(t_pa):
    proof = ProofObject("pa", (ProofLine(parse_sentence("(forall x (= x x))"),
                                         AxiomStep()),))
    assert check_proof(t_pa, proof).accepted


def test_empty_proof_rejected(t_pa):
    report = check_proof(t_pa, ProofObject("pa", ()))
    assert not report.accepted and "empty" in report.reason


def test_open_formula_rejected(t_pa):
    proof = ProofObject("pa", (ProofLine(parse_formula("(= n n)"), AxiomStep()),))
    report = check_proof(t_pa, proof)
    assert not report.accepted and report.failed_at == 0


def test_language_enforcement(t_pa):
    proof = ProofObject("pa", (ProofLine(box_quote(FALSUM), AxiomStep()),))
    report = check_proof(t_pa, proof)
    assert not report.accepted and "language" in report.reason


def test_swapped_premises_rejected(t_box):
    nn = parse_formula("(= n n)")
    orn = Or(nn, FALSUM)
    b = Builder(t_box)
    i1 = b.axiom(parse_sentence("(forall n (= n n))"))
    i2 = b.axiom(close_over(("n",), Imp(nn, orn)))
    b.mp(i1, i2)
    good = b.checked_proof()
    last = good.lines[-1]
    swapped = ProofObject(good.theory, good.lines[:-1] + (
        ProofLine(last.sentence, MPStep(major=last.step.minor,
                                        minor=last.step.major)),))
    report = check_proof(t_box, swapped)
    assert not report.accepted and report.failed_at == len(good.lines) - 1


def test_forward_reference_rejected(t_box):
    a = parse_sentence("(= 0 0)")
    lines = (ProofLine(a, MPStep(major=1, minor=1)),
             ProofLine(Imp(a, a), AxiomStep()))
    report = check_proof(t_box, ProofObject("sbox-pa", lines))
    assert not report.accepted and report.failed_at == 0


def test_annotations_do_not_change_verdict(t_box):
    """Swapping axiom/compute intent tags never flips acceptance."""
    b = Builder(t_box)
    b.compute(parse_sentence("(= (+ 2 2) 4)"))
    proof = b.checked_proof()
    relabeled = ProofObject(proof.theory, tuple(
        ProofLine(l.sentence, AxiomStep()) for l in proof.lines))
    assert check_proof(t_box, relabeled).accepted


def test_duplicate_lines_permitted(t_box):
    a = parse_sentence("(forall x (= x x))")
    proof = ProofObject("sbox-pa", (ProofLine(a, AxiomStep()),
                                    ProofLine(a, AxiomStep())))
    assert check_proof(t_box, proof).accepted


# Modus ponens verdicts.  The premises are the extra axioms of a small theory,
# so the third line alone decides; no conclusion is an axiom or a computation.
# Row: name, antecedent premise, implication premise, conclusion, and the
# prefix length when the checker accepts (None: rejected).
MP_ROWS = [
    ("prefix-0", "(= 0 1)", "(-> (= 0 1) (= 1 0))", "(= 1 0)", 0),
    ("prefix-1", "(forall x (= x (s x)))",
     "(forall x (-> (= x (s x)) (= (s x) x)))", "(forall x (= (s x) x))", 1),
    ("prefix-2", "(forall x (forall y (= x (s y))))",
     "(forall x (forall y (-> (= x (s y)) (= (s y) x))))",
     "(forall x (forall y (= (s y) x)))", 2),
    ("vacuous-variable", "(forall x (= 0 1))", "(forall x (-> (= 0 1) (= 1 0)))",
     "(forall x (= 1 0))", 1),
    ("prefixes-differ-in-name", "(forall y (= y (s y)))",
     "(forall x (-> (= x (s x)) (= (s x) x)))", "(forall x (= (s x) x))", None),
    ("prefixes-differ-in-length", "(= 0 1)", "(forall x (-> (= 0 1) (= 1 0)))",
     "(forall x (= 1 0))", None),
    ("wrong-antecedent", "(= 0 1)", "(-> (= 1 1) (= 1 0))", "(= 1 0)", None),
    ("wrong-consequent", "(= 0 1)", "(-> (= 0 1) (= 1 0))", "(= 0 2)", None),
    ("swapped-premises", "(-> (= 0 1) (= 1 0))", "(= 0 1)", "(= 1 0)", None),
    ("repeated-variable", "(forall x (forall x (= x (s x))))",
     "(forall x (forall x (-> (= x (s x)) (= (s x) x))))",
     "(forall x (forall x (= (s x) x)))", None),
    ("quantifier-inside-consequent", "(forall x (= x (s x)))",
     "(forall x (-> (= x (s x)) (forall x (= (s x) x))))",
     "(forall x (forall x (= (s x) x)))", 1),
    ("conclusion-adds-a-quantifier", "(= 0 1)", "(-> (= 0 1) (= 1 0))",
     "(forall x (= 1 0))", None),
    ("conclusion-drops-the-prefix", "(forall x (= 0 1))",
     "(forall x (-> (= 0 1) (= 1 0)))", "(= 1 0)", None),
]


def _mp_row(minor, major, conclusion):
    minor, major = parse_sentence(minor), parse_sentence(major)
    t = TheoryConfig("mp-table", extra_axioms=(minor, major))
    return t, minor, major, parse_sentence(conclusion)


def _mp_report(t, minor, major, conclusion, swap=False):
    """check_proof on: minor, major, conclusion by (mp 0 1), or by (mp 1 0)."""
    step = MPStep(minor=1, major=0) if swap else MPStep(minor=0, major=1)
    proof = ProofObject(t.name, (ProofLine(minor, AxiomStep()),
                                 ProofLine(major, AxiomStep()),
                                 ProofLine(conclusion, step)))
    return check_proof(t, proof)


@pytest.mark.parametrize("name, minor, major, conclusion, k", MP_ROWS,
                         ids=[r[0] for r in MP_ROWS])
def test_mp_verdict_table(name, minor, major, conclusion, k):
    from asrt.syntax import _list_code
    t, minor, major, conclusion = _mp_row(minor, major, conclusion)
    report = _mp_report(t, minor, major, conclusion)
    if k is None:
        assert not report.accepted and report.failed_at == 2
        assert report.reason == ("modus ponens premises do not match (prefix "
                                 "mismatch or wrong implication)")
    else:
        assert report.accepted
        assert report.records[2] == LineRecord(2, "mp", f"prefix={k}")
    # a coded proof names no premises, so proofof searches both orders
    searched = report.accepted or _mp_report(t, minor, major, conclusion,
                                             swap=True).accepted
    code = _list_code([encode_sentence(minor), encode_sentence(major),
                       encode_sentence(conclusion)])
    assert proof_code_valid(t, code, encode_sentence(conclusion)) == searched


@pytest.mark.parametrize("name, minor, major, conclusion, k", MP_ROWS,
                         ids=[r[0] for r in MP_ROWS])
def test_builder_mp_emits_only_checked_conclusions(name, minor, major, conclusion, k):
    t, minor, major, conclusion = _mp_row(minor, major, conclusion)
    b = Builder(t)
    i, j = b.axiom(minor), b.axiom(major)
    try:
        built = b.sentence(b.mp(i, j))
    except KernelError:
        assert k is None
        return
    assert _mp_report(t, minor, major, built).accepted
    if k is not None:
        assert built == conclusion


def test_hyp_step_rejected_outside_discharge(t_box):
    proof = ProofObject("sbox-pa", (ProofLine(FALSUM, HypStep()),))
    assert not check_proof(t_box, proof).accepted


def test_hyp_step_judged_against_the_hypothesis(t_box):
    h = parse_sentence("(= 0 0)")
    proof = _derivation((h, HypStep()))
    report = check_proof(t_box, proof, hypothesis=h)
    assert report.accepted and report.records == (LineRecord(0, "hyp"),)
    other = check_proof(t_box, proof, hypothesis=FALSUM)
    assert not other.accepted and other.failed_at == 0
    assert other.reason.startswith("hypothesis step is not the hypothesis")


def test_serialization_roundtrip(t_box):
    b = Builder(t_box)
    i1 = b.axiom(parse_sentence("(forall n (= n n))"))
    i2 = b.axiom(close_over(("n",), Imp(parse_formula("(= n n)"),
                                        Or(parse_formula("(= n n)"), FALSUM))))
    b.mp(i1, i2)
    proof = b.checked_proof()
    again = proof_from_sexp(proof_to_sexp(proof))
    assert again == proof and check_proof(t_box, again).accepted


# ---------------------------------------------------------------------------
# Deduction theorem and quantified modus ponens
# ---------------------------------------------------------------------------

def _derivation(*lines):
    return ProofObject("sbox-pa", tuple(ProofLine(a, step) for a, step in lines))


def test_discharge_identity(t_box):
    h = parse_sentence("(box (num-of (godel (= 0 0))))")
    proof = discharge_hypothesis(t_box, h, _derivation((h, HypStep())))
    assert proof.conclusion == Imp(h, h)


def test_discharge_requires_closed_hypothesis(t_box):
    with pytest.raises(InvalidDerivation):
        discharge_hypothesis(t_box, parse_formula("(= n n)"), _derivation())


ABSURD = parse_sentence("(forall n (not (= n n)))")
REFL = parse_sentence("(forall n (= n n))")
# derivations from the hypothesis ABSURD, each broken at the named line
BROKEN_DERIVATIONS = [
    ("hyp-not-the-hypothesis",
     [(REFL, AxiomStep()), (parse_sentence("(= 0 0)"), HypStep())],
     "at line 1: hypothesis step is not the hypothesis"),
    ("premise-out-of-range",
     [(ABSURD, HypStep()), (close_over(("n",), FALSUM), MPStep(major=0, minor=1))],
     "at line 1: modus ponens premise index out of range"),
    ("mp-does-not-match",
     [(REFL, AxiomStep()), (ABSURD, HypStep()), (FALSUM, MPStep(major=1, minor=0))],
     "at line 2: modus ponens premises do not match"),
    ("not-an-axiom",
     [(ABSURD, HypStep()), (parse_sentence("(= 0 1)"), AxiomStep())],
     "at line 1: not an axiom or admissible computation"),
    ("empty", [], "derivation rejected: empty proof"),
]


@pytest.mark.parametrize("name, lines, message", BROKEN_DERIVATIONS,
                         ids=[r[0] for r in BROKEN_DERIVATIONS])
def test_discharge_rejects_broken_derivations(t_box, name, lines, message):
    with pytest.raises(InvalidDerivation, match=re.escape(message)):
        discharge_hypothesis(t_box, ABSURD, _derivation(*lines))


def _random_hypothetical(rnd, t):
    """A random valid hypothetical derivation; quantified modus ponens with
    both empty and nonempty prefixes."""
    nn = parse_formula("(= n n)")
    pool = [
        parse_sentence("(forall n (= n n))"),
        parse_sentence("(= 0 0)"),
        close_over(("n",), Imp(nn, Or(nn, FALSUM))),
    ]
    h = rnd.choice([
        parse_sentence("(box (num-of (godel (= 0 0))))"),
        parse_sentence("(forall n (not (= n n)))"),
        Or(parse_sentence("(= 0 0)"), FALSUM),
    ])
    steps = [(h, HypStep())]
    for a in rnd.sample(pool, k=rnd.randrange(1, len(pool) + 1)):
        steps.append((a, AxiomStep()))
    # close with quantified modus ponens whenever two lines fit
    sentences = [s for s, _ in steps]
    if close_over(("n",), nn) in sentences and close_over(
            ("n",), Imp(nn, Or(nn, FALSUM))) in sentences:
        i = sentences.index(close_over(("n",), nn))
        j = sentences.index(close_over(("n",), Imp(nn, Or(nn, FALSUM))))
        steps.append((close_over(("n",), Or(nn, FALSUM)),
                      MPStep(major=j, minor=i)))
    if h == parse_sentence("(forall n (not (= n n)))") and close_over(
            ("n",), nn) in sentences:
        i = sentences.index(close_over(("n",), nn))
        steps.append((close_over(("n",), FALSUM), MPStep(major=0, minor=i)))
    return h, _derivation(*steps)


def test_deduction_theorem_random(t_box):
    rnd = random.Random(13)
    for _ in range(100):
        h, derivation = _random_hypothetical(rnd, t_box)
        proof = discharge_hypothesis(t_box, h, derivation)
        assert proof.conclusion == Imp(h, derivation.conclusion)
        assert check_proof(t_box, proof).accepted


def test_dist_lemma_two_variables(t_box):
    mm = parse_formula("(= (+ n m) (+ n m))")
    b = Builder(t_box)
    idx = dist_lemma(b, ("n", "m"), mm, Or(mm, FALSUM))
    want = Imp(close_over(("n", "m"), Imp(mm, Or(mm, FALSUM))),
               Imp(close_over(("n", "m"), mm),
                   close_over(("n", "m"), Or(mm, FALSUM))))
    assert b.sentence(idx) == want
    assert check_proof(t_box, b.proof()).accepted


# ---------------------------------------------------------------------------
# Negative controls: generated release and box-excluded-middle families
# ---------------------------------------------------------------------------

def _random_arith_sentence(rnd):
    from test_syntax import _random_formula
    while True:
        a = _random_formula(rnd, rnd.randrange(1, 4), [])
        if not a.free and not a.has_box and not a.has_kappa:
            return a


def test_release_family_rejected(t_box):
    rnd = random.Random(21)
    for _ in range(100):
        a = _random_arith_sentence(rnd)
        release = Imp(box_quote(a), a)
        assert is_axiom(t_box, release) is None, fmt(release)


def test_box_excluded_middle_family_rejected(t_box):
    rnd = random.Random(22)
    for _ in range(100):
        a = _random_arith_sentence(rnd)
        boxed = box_quote(a) if rnd.random() < 0.5 else Box(quote_term(a))
        em = Or(boxed, neg(boxed))
        assert is_axiom(t_box, em) is None, fmt(em)


def test_theory_registry_and_presets():
    assert preset_theory("pa").name == "pa"
    assert preset_theory("sstar-2").kappa_count == 2
    with pytest.raises(KernelError):
        preset_theory("nope")


@pytest.mark.parametrize("name", ["pa", "sbox-pa", "sbox-pa-incon", "sstar-1",
                                  f"sstar-{SSTAR_MAX_KAPPA}"])
def test_preset_is_named_by_its_name(name):
    assert preset_theory(name).name == name
    assert preset_theory(name) == preset_theory(name)


@pytest.mark.parametrize("name", ["sstar-0", "sstar-05", "sstar-1_0", "sstar- 5",
                                  "sstar-\u0663", f"sstar-{SSTAR_MAX_KAPPA + 1}",
                                  "sstar-100000000", "sstar-" + "9" * 5000, "PA", ""])
def test_other_names_are_unknown_theories(name):
    with pytest.raises(UnknownTheoryError):
        preset_theory(name)


def test_sstar_is_capped():
    assert sstar(SSTAR_MAX_KAPPA).kappa_count == SSTAR_MAX_KAPPA
    with pytest.raises(UnknownTheoryError):
        sstar(SSTAR_MAX_KAPPA + 1)


def test_store_keeps_one_configuration_per_name():
    proof = ProofObject("x", (ProofLine(parse_sentence("(= 0 0)"), AxiomStep()),))
    t = TheoryConfig(name="x")
    store = ProofStore()
    assert store.theory("x") is None
    store.register(t, proof)
    store.register(TheoryConfig(name="x"), proof)   # an equal value is the same theory
    with pytest.raises(KernelError, match="registered differently"):
        store.register(TheoryConfig(name="x", classical=False), proof)
    assert store.theory("x") == t


def test_submit_checks_once_and_registers_what_it_accepts():
    store = ProofStore()
    t = TheoryConfig(name="x")
    false = ProofObject("x", (ProofLine(parse_sentence("(= 0 1)"), AxiomStep()),))
    report = store.submit(t, false)
    assert not report.accepted and report.failed_at == 0
    assert len(store) == 0 and store.theory("x") is None
    true = ProofObject("x", (ProofLine(parse_sentence("(= 0 0)"), AxiomStep()),))
    assert store.submit(t, true).accepted
    assert store.has("x", encode_sentence(true.conclusion)) and store.theory("x") == t
    with pytest.raises(KernelError, match="registered differently"):
        store.submit(TheoryConfig(name="x", classical=False), true)


def _asrt_imports(tree: ast.AST):
    """Names of the asrt modules a parsed module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "asrt":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "asrt":
                    yield parts[1] if len(parts) > 1 else "asrt"


def test_trusted_core_imports_no_other_asrt_module():
    """kernel and syntax are the trusted core; name resolution, the ledger,
    the derived rules and the command line stay outside it: kernel imports
    only syntax, and syntax no asrt module."""
    import asrt
    root = Path(asrt.__file__).parent
    for module, allowed in (("kernel", {"syntax"}), ("syntax", set())):
        tree = ast.parse((root / f"{module}.py").read_text(encoding="utf-8"))
        assert set(_asrt_imports(tree)) == allowed, module


DERIVED_RULES = ("k_lift", "syllogism", "apply_s", "identity", "conj", "cases",
                 "push_inside", "dist_lemma", "discharge_hypothesis",
                 "InvalidDerivation", "absorb_proof")


def test_derived_rules_live_outside_the_trusted_core():
    """Every derived rule is defined in derive, not in the kernel or its
    Builder."""
    import asrt.derive as derive
    import asrt.kernel as kernel
    for name in DERIVED_RULES:
        assert not hasattr(kernel, name) and not hasattr(kernel.Builder, name), name
        assert getattr(derive, name).__module__ == "asrt.derive", name


def _code_names(code):
    yield from code.co_names
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            yield from _code_names(const)


def test_builder_does_not_judge():
    """A Builder constructs; check_proof, at checked_proof/conclude, is the
    one judge of its lines."""
    import asrt.kernel as kernel
    methods = [f for f in vars(kernel.Builder).values() if hasattr(f, "__code__")]
    assert methods
    for f in methods:
        names = set(_code_names(f.__code__))
        assert not names & {"is_axiom", "admit_computation"}, f.__name__


def test_only_the_kernel_makes_theorems():
    """No module but kernel calls Theorem(...) or dataclasses.replace, so a
    Theorem is always a proof accept (or ProofStore.submit) accepted."""
    import asrt
    for path in sorted(Path(asrt.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                assert "replace" not in {a.name for a in node.names}, path.name
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            assert name != "Theorem", (path.name, node.lineno)
            assert not (name == "replace" and isinstance(f.value, ast.Name)
                        and f.value.id == "dataclasses"), (path.name, node.lineno)


def test_no_module_imports_dataclasses():
    """The value classes are plain slotted classes (kernel.Record): a
    dataclass decoration runs generated code at import, which every CLI
    call pays for."""
    import asrt
    for path in sorted(Path(asrt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "dataclasses" for m in modules), \
                (path.name, node.lineno)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh process: pytest and Hypothesis import both themselves
    import asrt
    env = {**os.environ, "PYTHONPATH": str(Path(asrt.__file__).parents[1])}
    script = "import asrt.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == "[]\n", out.stderr[-2000:]


_A = parse_sentence("(= 0 0)")
_PROOF = ProofObject("sbox-pa", (ProofLine(_A, AxiomStep()),))
_POLICY = LicensingPolicy((PolicyEntry(_A, "alpha"),))

# every value class, with one value per field in the constructor's order
RECORDS = [
    (TheoryConfig, dict(name="t", classical=False, allow_box=True, jump_axiom=True,
                        allow_agent=True, kappa_count=2, iterbox_axioms=True,
                        extra_axioms=(_A,))),
    (Justification, dict(rule="forall-elim", note="0")),
    (AxiomStep, {}),
    (ComputeStep, {}),
    (HypStep, {}),
    (MPStep, dict(major=1, minor=0)),
    (ProofLine, dict(sentence=_A, step=MPStep(1, 0))),
    (ProofObject, dict(theory="sbox-pa", lines=_PROOF.lines)),
    (LineRecord, dict(index=3, rule="mp", note="prefix=0")),
    (CheckReport, dict(accepted=False, theory="sbox-pa", records=(LineRecord(0, "k"),),
                       failed_at=1, reason="empty proof")),
    (Theorem, dict(theory="sbox-pa", lines=_PROOF.lines, config=TheoryConfig("sbox-pa"),
                   store=None, records=(LineRecord(0, "eq-refl"),))),
    (PolicyEntry, dict(criterion=_A, action="alpha", box_rule=False)),
    (LicensingPolicy, dict(entries=_POLICY.entries)),
    (AgentSpec, dict(index=2)),
    (TrustDemoResult, dict(scenario="naturalistic", theory="sbox-pa", hypotheses=(_A,),
                           proof=_PROOF, milestones=(_A,), policy=_POLICY,
                           licensed=frozenset({"alpha"}), evidence=(FALSUM,))),
    (DelegationResult, dict(level=1, action_index=2, theory="sstar-2", hypotheses=(),
                            proof=_PROOF, milestones=(_A,), policy=_POLICY,
                            licensed=frozenset())),
    (FixedPointResult, dict(sentence=_A, quoted_instance=FALSUM, forward=_PROOF,
                            backward=_PROOF)),
    (LiarSuite, dict(fixed_point=FixedPointResult(_A, _A, _PROOF, _PROOF),
                     not_liar=_PROOF, boxed_not_liar=_PROOF, collapse=_PROOF)),
    (MPChainTrace, dict(source_index=2, premises_boxed=(_A, FALSUM), unfolded=(_A, FALSUM),
                        conjoined=_A, recombined=FALSUM, folded=_A)),
    (ReflectionTrace, dict(source=_PROOF, output=_PROOF, line_map=((0, 1),),
                           segments=((0, 2),), mp_chains=())),
    (AuditReport, dict(stage=5, bound=64, flagged=((FALSUM, Verdict.IN),), out_count=3,
                       indeterminate_count=1, skipped=0, mp_checked=4,
                       mp_violations=(2,))),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_value_classes_are_immutable_and_compare_by_fields(cls, fields):
    v = cls(**fields)
    for name, value in fields.items():
        assert getattr(v, name) is value, name
        with pytest.raises(AttributeError):
            setattr(v, name, value)
        with pytest.raises(AttributeError):
            delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 0
    same = cls(*fields.values())
    assert v == same and hash(v) == hash(same)
    assert v != object()


def test_steps_of_different_kinds_differ():
    kinds = [AxiomStep(), ComputeStep(), HypStep(), MPStep(1, 0)]
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            assert (a == b) == (i == j), (a, b)
    assert ProofLine(_A, AxiomStep()) != ProofLine(_A, ComputeStep())
    assert ProofLine(_A, MPStep(1, 0)) != ProofLine(_A, MPStep(0, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: TheoryConfig("t", extra_axioms=(parse_formula("(= x 0)"),)),
     "extra axioms must be sentences"),
    (lambda: PolicyEntry(parse_formula("(= x 0)"), "alpha"), "criteria must be sentences"),
    (lambda: PolicyEntry(_A, ""), "action identifiers must be nonempty"),
    (lambda: LicensingPolicy((PolicyEntry(_A, "alpha"), PolicyEntry(_A, "alpha", False))),
     "duplicate"),
    (lambda: AgentSpec(0), "agent indices start at 1"),
])
def test_validating_constructors_raise_kernel_errors(make, message):
    with pytest.raises(KernelError, match=message):
        make()


def test_accept_hands_back_a_theorem_of_its_configuration(t_box, check_proof_calls):
    b = Builder(t_box)
    b.axiom(REFL)
    thm = b.checked_proof()
    assert isinstance(thm, Theorem)
    assert (thm.config, thm.store, thm.records) == (t_box, None, (LineRecord(0, "eq-refl"),))
    store = ProofStore()
    # judged against no store, so it stands against any store
    assert accept(t_box, thm) is thm and accept(sbox_pa(), thm, store) is thm
    store.register(t_box, thm)
    assert store.get("sbox-pa", encode_sentence(REFL)) is thm
    assert check_proof_calls == [thm]


def test_accept_judges_a_theorem_again_in_another_configuration(t_box, check_proof_calls):
    h = parse_sentence("(= 0 1)")
    ext = extend_theory(t_box, "sbox-pa-test-accept", (h,))
    b = Builder(ext)
    b.axiom(h)
    thm = b.checked_proof()
    same_name = TheoryConfig("sbox-pa-test-accept", allow_box=True, jump_axiom=True)
    with pytest.raises(KernelError, match=re.escape(
            "proof rejected at line 0: not an axiom or admissible computation: (= 0 1)")):
        accept(same_name, thm)
    assert check_proof_calls == [thm, thm]
    intuitionistic = extend_theory(TheoryConfig("i", classical=False, allow_box=True,
                                                jump_axiom=True),
                                   "sbox-pa-test-accept", (h,))
    again = accept(intuitionistic, thm)
    assert again is not thm and again.config == intuitionistic and again == thm
    assert len(check_proof_calls) == 3


def test_prov_theorem_is_judged_again_against_another_store(t_box):
    s = ProofStore()
    b = Builder(t_box, s)
    b.axiom(REFL)
    s.register(t_box, b.checked_proof())
    pb = Builder(t_box, s)
    pb.compute(Rel("prov:sbox-pa", (numeral_of(encode_sentence(REFL)),)))
    thm = pb.checked_proof()
    assert thm.store is s and thm.records[0].rule == "comp-prov"
    refusal = re.escape("proof rejected at line 0: not an axiom or admissible computation")
    with pytest.raises(KernelError, match=refusal):
        ProofStore().register(t_box, thm)
    with pytest.raises(KernelError, match=refusal):
        accept(t_box, thm)
    assert accept(t_box, thm, s) is thm


def test_theorem_equals_its_printed_and_parsed_proof(t_box):
    b = Builder(t_box)
    i = b.axiom(REFL)
    b.mp(i, b.axiom(Imp(REFL, Or(REFL, FALSUM))))
    thm = b.checked_proof()
    text = proof_to_sexp(thm)
    assert text == proof_to_sexp(ProofObject(thm.theory, thm.lines))
    reparsed = proof_from_sexp(text)
    assert type(reparsed) is ProofObject
    assert reparsed == thm and thm == reparsed and hash(reparsed) == hash(thm)
    assert len({thm, reparsed}) == 1


def test_steps_without_premises_are_one_value_each(t_box, check_proof_calls):
    """A Builder, the script reader and proof_code_valid put the one shared
    step of each kind that takes no premises on every such line."""
    from asrt.syntax import _list_code
    b = Builder(t_box)
    b.mp(b.axiom(REFL), b.axiom(Imp(REFL, Or(REFL, FALSUM))))
    b.compute(parse_sentence("(= (+ 1 1) 2)"))
    b.hyp(FALSUM)
    read = proof_from_sexp(proof_to_sexp(b.proof()))
    code = _list_code([encode_sentence(line.sentence) for line in b.lines[:3]])
    assert proof_code_valid(t_box, code, encode_sentence(b.lines[2].sentence))
    expected = [kernel.AXIOM, kernel.AXIOM, MPStep(major=1, minor=0),
                kernel.COMPUTE, kernel.HYP]
    for lines in (b.lines, read.lines, check_proof_calls[-1].lines):
        steps = [line.step for line in lines]
        assert steps == expected[:len(steps)]
        assert all(s is v for s, v in zip(steps, expected) if type(s) is not MPStep)


def test_docs_formats_lists_the_justification_words_in_order():
    """The proof script sketch in docs/formats.md writes one step of each
    justification word of the kernel's table, in the table's order."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split("\n## Proof scripts\n", 1)[1].split("\n## ", 1)[0]
    words = re.findall(r"^ +\(step <sentence> \((\w+)", section, re.M)
    assert words == list(kernel._JUSTIFICATIONS.values())
    assert set(kernel._PREMISE_FREE) == set(words) - {"mp"}


def test_built_lines_are_judged_once_at_the_exit(t_box, monkeypatch):
    import asrt.kernel as kernel
    calls = {"is_axiom": 0, "admit_computation": 0}

    def counted(name):
        inner = getattr(kernel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kernel, name, counted(name))
    c = parse_sentence("(= (+ 1 1) 2)")
    b = Builder(t_box)
    k = b.axiom(Imp(c, Imp(FALSUM, c)))
    i = b.compute(c)
    b.mp(i, k)
    assert calls == {"is_axiom": 0, "admit_computation": 0}
    proof = b.checked_proof()
    assert [line.step for line in proof.lines] == [
        AxiomStep(), ComputeStep(), MPStep(major=0, minor=1)]
    # is_axiom on both non-MP lines, admit_computation on the line is_axiom refuses
    assert calls == {"is_axiom": 2, "admit_computation": 1}


# each emission is refused only when the proof is concluded
DEFERRED_REFUSALS = [
    ("axiom", FALSUM, "not an axiom or admissible computation: " + fmt(FALSUM)),
    ("compute", parse_sentence("(= 2 3)"),
     "not an axiom or admissible computation: (= 2 3)"),
    ("compute", parse_sentence("(= (iterbox 5000 0) 0)"), "evaluator failure"),
]


@pytest.mark.parametrize("emit, sentence, reason", DEFERRED_REFUSALS,
                         ids=["axiom-falsum", "compute-false", "compute-eval-failure"])
@pytest.mark.parametrize("exit_", ["checked_proof", "conclude"])
def test_builder_refuses_bad_lines_at_the_exit(t_box, emit, sentence, reason, exit_):
    b = Builder(t_box)
    b.axiom(REFL)
    idx = getattr(b, emit)(sentence)
    assert idx == 1
    finish = b.checked_proof if exit_ == "checked_proof" else lambda: b.conclude(idx)
    with pytest.raises(KernelError, match=re.escape(f"proof rejected at line 1: {reason}")):
        finish()


def test_extended_theory_carries_hypotheses(t_box):
    h = parse_sentence("(= 0 0)")
    d = extend_theory(t_box, "sbox-pa-test-ext", (h,))
    assert is_axiom(d, h).rule == "extra"
    assert is_axiom(t_box, jump_axiom_of(t_box)).rule == "jump"


def test_recognized_axioms_are_classically_true(t_box):
    """Soundness sweep over generated scheme instances: every propositional
    or equality axiom instance built from random closed arithmetic formulas
    is recognized and classically true: for a closed quantifier-free
    equality formula, out of the falsity sets means true."""
    from asrt.semantics import Verdict
    from asrt.syntax import And as AndF, numeral_of
    import reference_ledger
    ledger = reference_ledger.FalsityLedger(0, 0)

    rnd = random.Random(37)

    def qf(depth):
        if depth == 0 or rnd.random() < 0.4:
            from asrt.syntax import Add, Mul
            mk = lambda: numeral_of(rnd.randrange(0, 7))
            t = Add(mk(), mk()) if rnd.random() < 0.5 else Mul(mk(), mk())
            return Eq(t, numeral_of(rnd.randrange(0, 30)))
        k = rnd.randrange(3)
        return [AndF, Or, Imp][k](qf(depth - 1), qf(depth - 1))

    checked = 0
    for _ in range(300):
        a, b, c = qf(2), qf(2), qf(2)
        instances = [
            Imp(a, Imp(b, a)),
            Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c))),
            Imp(a, Imp(b, AndF(a, b))),
            Imp(AndF(a, b), a),
            Imp(AndF(a, b), b),
            Imp(a, Or(a, b)),
            Imp(b, Or(a, b)),
            Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c))),
            Imp(FALSUM, a),
            Or(a, neg(a)),
        ]
        for inst in instances:
            assert is_axiom(t_box, inst) is not None, fmt(inst)
            assert ledger.member(inst, 0) is Verdict.OUT, fmt(inst)
            checked += 1
    assert checked == 3000
