import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from asrt.syntax import (
    Add, And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Kappa, Mul, Or, Rel, Succ, Var,
    FALSUM, MAX_NESTING, ZERO,
    box_quote, encode_sentence, neg, numeral_of, parse_formula,
    parse_sentence, substitute,
)
from asrt.kernel import (
    capture_axiom, check_proof, is_axiom, jump_axiom_of, proof_from_sexp, sstar,
)
from asrt import semantics
from asrt.semantics import FalsityLedger, Verdict, audit_corpus

import reference_ledger

IN, OUT, INDET = Verdict.IN, Verdict.OUT, Verdict.INDETERMINATE


@pytest.fixture(scope="module")
def ledger():
    return FalsityLedger(stages=8, bound=64)


def test_false_equation_in_everywhere(ledger):
    for i in range(6):
        assert ledger.member(FALSUM, i) is IN
    assert ledger.member(parse_sentence("(= (* 3 3) 8)"), 0) is IN


def test_true_equation_out(ledger):
    assert ledger.member(parse_sentence("(= 0 0)"), 8) is OUT


def test_stage_zero_has_no_boxes(ledger):
    assert ledger.member(box_quote(FALSUM), 0) is OUT
    assert ledger.member(box_quote(FALSUM), 1) is IN


def test_box_of_non_sentence_out(ledger):
    assert ledger.member(Box(ZERO), 3) is OUT      # 0 codes nothing


def test_iterated_box_separation(ledger):
    a = FALSUM
    for k in range(1, 6):
        a = box_quote(a)
        assert ledger.member(a, k) is IN
        assert ledger.member(a, k - 1) is OUT


def test_connective_clauses(ledger):
    t, f = parse_sentence("(= 0 0)"), FALSUM
    assert ledger.member(And(t, f), 2) is IN
    assert ledger.member(And(t, t), 2) is OUT
    assert ledger.member(Or(t, f), 2) is OUT
    assert ledger.member(Or(f, f), 2) is IN
    assert ledger.member(Imp(t, f), 2) is IN
    assert ledger.member(Imp(f, t), 2) is OUT
    assert ledger.member(Imp(f, f), 2) is OUT


def test_implication_stage_scan(ledger):
    """box<0=1> enters at stage 1, so its negation is already in at stage 0
    via the witness clause, while box<0=1> -> box<0=1> never is."""
    b = box_quote(FALSUM)
    assert ledger.member(neg(b), 0) is IN
    assert ledger.member(Imp(b, b), 5) is OUT


def test_quantifier_clauses(ledger):
    assert ledger.member(parse_sentence("(forall x (= x x))"), 5) is OUT
    assert ledger.member(parse_sentence("(forall n (= n 5))"), 5) is IN
    assert ledger.member(parse_sentence("(exists n (= n 5))"), 5) is OUT
    assert ledger.member(parse_sentence("(exists n (= n (s n)))"), 5) is IN
    assert ledger.member(
        parse_sentence("(forall n (or (= n n) (= 0 1)))"), 5) is OUT


def test_tame_certificate_beyond_bound(ledger):
    # the only witness (97) lies past the scan bound; the root certificate
    # still finds it
    f = parse_sentence("(forall n (not (= (* n n) (num-of 9409))))")
    assert ledger.member(f, 5) is IN


def test_untame_universal_indeterminate(ledger):
    f = Forall("g", Imp(Rel("prov:sbox-pa", (Var("g"),)), Box(Var("g"))))
    assert ledger.member(f, 5) is INDET


def test_kappa_out_of_domain(ledger):
    with pytest.raises(ValueError):
        ledger.member(Eq(Kappa(1), Kappa(1)), 2)


def test_open_formula_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.member(parse_formula("(= n n)"), 2)


def test_preset_atom_verdict_does_not_depend_on_what_ran_before():
    # a fresh process, so that nothing has built the pa preset yet
    import asrt
    script = ("from asrt.kernel import pa\n"
              "from asrt.semantics import FalsityLedger\n"
              "from asrt.syntax import parse_sentence\n"
              "a = parse_sentence('(ax pa 257232087984885112)')\n"
              "print(FalsityLedger(5, 8).member(a, 0).value)\n"
              "pa()\n"
              "print(FalsityLedger(5, 8).member(a, 0).value)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(asrt.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["out", "out"], out.stderr[-2000:]


def test_k_instance_over_a_nested_sub_past_the_budget(nested_sub, t_box):
    """The K instance (-> (= 0 0) (-> (= t(8) 0) (= 0 0))) is an axiom, and
    the ledger judges it out at once: t(8) trips the sub budget, so its
    equation is indeterminate, where building its 4.2e8-bit value took
    seconds and about 500 MB."""
    import tracemalloc
    a = parse_sentence(f"(-> (= 0 0) (-> (= {nested_sub(8)} 0) (= 0 0)))")
    assert is_axiom(t_box, a).rule == "k"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        verdicts = _verdicts(FalsityLedger(5, 64), [a])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [OUT] * 6
    assert elapsed < 1.0 and peak < 20_000_000
    assert verdicts == _verdicts(reference_ledger.FalsityLedger(5, 64), [a])


# nested definitional terms of at most 8 leaves: a leaf d is the text of
# nested_sub(d) (at most 631 characters), whose value passes the sub budget
# from d = 6 on
_SUB_CODES = [str(encode_sentence(parse_formula(text))) for text in (
    "(= x 0)", "(box x)", "(and (and (= x x) (= x x)) (and (= x x) (= x x)))")]
_DEFINITIONAL_TREES = st.recursive(
    st.integers(0, 9),
    lambda t: (st.tuples(st.just("sub"), st.sampled_from(_SUB_CODES), t)
               | st.tuples(st.sampled_from(["num", "num-boxed"]), t)
               | st.tuples(st.sampled_from(["iterbox", "+", "*"]), t, t)),
    max_leaves=8)


def _render(tree, nested_sub):
    """The text of ``tree``: a leaf d is nested_sub(d), a string is itself."""
    if isinstance(tree, int):
        return nested_sub(tree)
    if isinstance(tree, str):
        return tree
    head, *args = tree
    return "({})".format(" ".join([head, *(_render(x, nested_sub) for x in args)]))


@settings(max_examples=50, deadline=None)
@given(tree=_DEFINITIONAL_TREES)
@example(tree=("*", ("*", 5, 5), ("*", 5, 5)))
@example(tree=("num", ("num-boxed", 5)))
@example(tree=("iterbox", 0, ("sub", _SUB_CODES[1], 5)))
@example(tree=("sub", _SUB_CODES[2], ("*", 5, 5)))
def test_nested_definitional_terms_get_verdicts_in_bounded_memory(nested_sub, t_box,
                                                                  tree):
    """A compute line over a term of at most 6,000 characters gets an
    accept or reject, and the K instance over it a verdict at every stage,
    within a 32 MB tracemalloc peak and 20 s (the worst seen is under 3 MB
    and 3 s); any exception fails the property."""
    import tracemalloc
    term = _render(tree, nested_sub)
    assume(len(term) <= 6_000)
    proof = proof_from_sexp(f"(proof (theory sbox-pa) (step (= {term} 0) (compute)))")
    a = parse_sentence(f"(-> (= 0 0) (-> (= {term} 0) (= 0 0)))")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        report = check_proof(t_box, proof)
        verdicts = _verdicts(FalsityLedger(5, 8), [a])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(report.accepted, bool)
    assert all(isinstance(v, Verdict) for v in verdicts)
    assert peak < 32_000_000 and elapsed < 20.0


def test_box_bearing_sentence_builds_its_preset_once(monkeypatch):
    """A formula is compiled once per ledger, not once per stage it is
    judged at, so the sstar-4096 preset its ax atom names is built once."""
    import asrt.kernel as kernel
    built, sstar_ = [], kernel.sstar

    def counted(j):
        built.append(j)
        return sstar_(j)
    monkeypatch.setattr(kernel, "sstar", counted)
    a = parse_sentence("(forall g (-> (ax sstar-4096 g) (box g)))")
    ledger = FalsityLedger(5, 8)
    verdicts = [ledger.member(a, i) for i in range(6)]
    monkeypatch.undo()
    assert built == [4096]
    # no instance is in, and a box-bearing body has no certificate
    assert verdicts == [INDET] * 6


def test_sound_audit_compiles_each_formula_once(corpus, monkeypatch):
    compiled, compile_ = [], FalsityLedger._compile

    def counted(self, a):
        compiled.append(a)
        return compile_(self, a)
    monkeypatch.setattr(FalsityLedger, "_compile", counted)
    report = audit_corpus(FalsityLedger(5, 64), corpus, 5)
    assert report.ok and compiled
    assert len(compiled) == len(set(compiled))


@pytest.mark.parametrize("text", ["(ax sstar-100000000 0)", "(ax sstar-05 0)",
                                  "(ax sbox-pa-demo-coherent 0)", "(act 1 0)"])
def test_atoms_naming_no_preset_are_indeterminate(ledger, text):
    start = time.perf_counter()
    assert ledger.member(parse_sentence(text), 0) is INDET
    assert time.perf_counter() - start < 1.0


def test_stage_bound_enforced():
    led = FalsityLedger(stages=3, bound=8)
    with pytest.raises(ValueError):
        led.member(FALSUM, 4)


def random_ledger_sentence(rnd, quantifiers=1):
    """Random closed kappa-free sentence with a controlled quantifier budget;
    unbounded nesting would make bound-wide scans combinatorial."""
    def term(depth, vars_):
        if depth == 0 or rnd.random() < 0.4:
            if vars_ and rnd.random() < 0.5:
                return Var(rnd.choice(vars_))
            return numeral_of(rnd.randrange(0, 9))
        k = rnd.randrange(3)
        if k == 0:
            return Succ(term(depth - 1, vars_))
        return (Mul if k == 1 else Add)(term(depth - 1, vars_),
                                        term(depth - 1, vars_))

    def formula(depth, vars_, budget):
        if depth == 0 or rnd.random() < 0.3:
            if rnd.random() < 0.15:
                return Box(numeral_of(rnd.randrange(0, 2_000_000)))
            return Eq(term(2, vars_), term(2, vars_))
        if budget > 0 and rnd.random() < 0.3:
            v = rnd.choice("nmk")
            q = Forall if rnd.random() < 0.5 else Exists
            return q(v, formula(depth - 1, vars_ + [v], budget - 1))
        k = rnd.randrange(3)
        return [And, Or, Imp][k](formula(depth - 1, vars_, budget),
                                 formula(depth - 1, vars_, budget))

    while True:
        a = formula(3, [], quantifiers)
        if not a.free:
            return a


def test_monotonicity_random(ledger):
    """Across stages membership only grows; raising the bound never flips
    between definite verdicts, it only resolves indeterminates."""
    rnd = random.Random(31)
    small = FalsityLedger(stages=5, bound=16)
    big = FalsityLedger(stages=5, bound=32)
    for k in range(300):
        a = random_ledger_sentence(rnd, quantifiers=2 if k % 10 == 0 else 1)
        prev = None
        for i in range(6):
            v = small.member(a, i)
            if prev is IN:
                assert v is IN
            prev = v
            w = big.member(a, i)
            assert not (v is IN and w is OUT)
            assert not (v is OUT and w is IN)


def test_axiom_exclusion_sampled(ledger, t_box):
    """Axiom instances are never in the set; tame box-free shapes are
    definitively out."""
    definitive = [
        "(forall x (= x x))",
        "(forall x (not (= (s x) 0)))",
        "(forall x (= (+ x 0) x))",
        "(-> (and (= 0 0) (forall n (-> (= n n) (= (s n) (s n))))) (forall n (= n n)))",
        "(or (= 0 0) (not (= 0 0)))",
    ]
    for text in definitive:
        a = parse_sentence(text)
        assert is_axiom(t_box, a) is not None
        assert ledger.member(a, 5) is OUT, text
    boxish = [
        jump_axiom_of(t_box),
        capture_axiom(parse_sentence("(= 0 0)")),
        capture_axiom(parse_formula("(= n n)")),
        Imp(Box(parse_formula_term("(num-of (godel (= 0 0)))")),
            Box(parse_formula_term("(num-of (godel (= 0 0)))"))),
    ]
    for a in boxish:
        if is_axiom(t_box, a) is None:
            continue
        assert ledger.member(a, 5) in (OUT, INDET)


def parse_formula_term(text):
    from asrt.syntax import parse_term
    return parse_term(text)


def test_iterbox_collapse_axiom_not_in_set(ledger):
    """The quotation-collapse scheme is validated by the semantics: both
    boxes track the same inner sentence, so the implication never enters."""
    ts = sstar(2)
    t = parse_formula_term("(iterbox 2 (godel (= 0 1)))")
    a = Imp(Box(numeral_of(encode_sentence(Box(t)))),
            Box(parse_formula_term("(num-boxed (iterbox 2 (godel (= 0 1))))")))
    assert is_axiom(ts, a) is not None
    for i in range(6):
        assert ledger.member(a, i) in (OUT, INDET)
        assert ledger.member(a, i) is not IN


def test_audit_empty_corpus(ledger):
    report = audit_corpus(ledger, [], 5)
    assert report.ok and report.out_count == 0 and not report.flagged


def test_audit_sound_corpus(corpus):
    """The totals the falsity benchmark checks: a changed verdict shows here."""
    report = audit_corpus(FalsityLedger(5, 64), corpus, 5)
    assert report.ok, [str(s) for s, _ in report.flagged]
    assert (len(report.flagged), report.out_count, report.indeterminate_count,
            report.skipped, report.mp_checked, report.mp_violations) == (
                0, 49, 10, 1, 200, ())


def test_audit_unsound_corpus_flags_boxed_falsum(unsound_corpus):
    led = FalsityLedger(stages=5, bound=64)
    report = audit_corpus(led, unsound_corpus, 1)
    assert not report.ok
    assert len(report.flagged) == 1
    assert report.flagged[0][0] == box_quote(FALSUM)


def test_audit_rows_shape(unsound_corpus):
    led = FalsityLedger(stages=5, bound=64)
    report = audit_corpus(led, unsound_corpus, 1)
    import json
    rows = report.rows()
    assert all(json.loads(json.dumps(r)) == r for r in rows)
    assert rows[-1]["kind"] == "audit" and rows[-1]["ok"] is False
    assert any(r["kind"] == "failure" for r in rows)


def _verdicts(ledger, sentences):
    return [ledger.member(a, i) for a in sentences for i in range(6)]


def test_ledger_matches_reference_on_corpus_lines(corpus, unsound_corpus):
    """Judging under an assignment gives the substitution-based ledger's
    verdict on every kappa-free proof line, at every stage."""
    lines = [line.sentence for proof in corpus + unsound_corpus
             for line in proof.lines if not line.sentence.has_kappa]
    assert len(lines) > 500
    assert (_verdicts(FalsityLedger(5, 16), lines)
            == _verdicts(reference_ledger.FalsityLedger(5, 16), lines))


def test_ledger_matches_reference_on_random_sentences():
    rnd = random.Random(53)
    for bound in (8, 16, 32):
        sentences = [random_ledger_sentence(rnd, 2 if k % 5 == 0 else 1)
                     for k in range(400)]
        assert (_verdicts(FalsityLedger(5, bound), sentences)
                == _verdicts(reference_ledger.FalsityLedger(5, bound), sentences))


# the inner scan's root bound depends on the outer variable's value; a box,
# a relation or a definitional symbol reads a bound variable; a shadowed one
ASSIGNMENT_SENTENCES = [
    "(forall m (exists n (= n (* m m))))",
    "(forall m (exists n (= (+ n m) (* m 3))))",
    "(exists m (forall n (not (= (* n n) (+ (* m m) (* 2 m))))))",
    "(forall x (forall y (forall z (-> (= x y) (-> (= y z) (= x z))))))",
    "(forall n (= (num n) (num n)))",
    "(exists n (= (num n) (num-of 3)))",
    "(forall g (-> (box g) (box g)))",
    "(exists g (box g))",
    "(forall m (-> (box (num m)) (= m m)))",
    "(exists g (ax pa g))",
    "(exists n (and (= n 5) (= (num n) (num 5))))",
    # 257232087984885112 codes (forall x (= x x)), a main axiom of pa
    "(exists g (and (= g 0) (ax pa (+ g 257232087984885112))))",
    "(forall n (forall n (= n 0)))",
    "(forall m (and (exists n (= n (s m))) (box (sub (num-of 0) m))))",
]


def test_ledger_matches_reference_under_assignments(t_pa):
    sentences = [parse_sentence(text) for text in ASSIGNMENT_SENTENCES]
    assert (_verdicts(FalsityLedger(5, 8), sentences)
            == _verdicts(reference_ledger.FalsityLedger(5, 8), sentences))


# a quantifier whose variable is not free in its body: tame and untame
# bodies, each verdict, under outer variables, shadowed, and nested
VACUOUS_SENTENCES = [
    "(forall x (= 0 0))",
    "(forall x (= 0 1))",
    "(exists x (= 0 0))",
    "(exists x (= 0 1))",
    "(forall x (box (godel (= 0 1))))",
    "(exists x (box (godel (= 0 0))))",
    "(forall x (= (num 3) (num 3)))",
    "(exists x gamma)",
    "(forall x (ax pa 0))",
    "(forall m (forall x (= m m)))",
    "(exists m (forall x (= m 3)))",
    "(forall m (exists x (-> (= m 2) (box (num m)))))",
    "(forall n (exists n (= n 0)))",
    "(forall x0 (forall x1 (forall x2 (forall x3 (= x0 x0)))))",
    "(exists x0 (forall x1 (exists x2 (= (* x0 x0) (+ x0 2)))))",
]


def test_ledger_matches_reference_on_vacuous_quantifiers(t_pa):
    sentences = [parse_sentence(text) for text in VACUOUS_SENTENCES]
    for bound in (3, 5):
        assert (_verdicts(FalsityLedger(5, bound), sentences)
                == _verdicts(reference_ledger.FalsityLedger(5, bound), sentences))


def test_sound_audit_memo_stays_small(corpus):
    """Quantifier instances are assignments, not new sentences, so the memo
    holds sentences and box-bearing formulas only (a ledger that memoized
    every substituted instance held about 2.9 million entries here)."""
    led = FalsityLedger(stages=5, bound=64)
    report = audit_corpus(led, corpus, 5)
    assert report.ok
    assert len(led._memo) < 50_000


def test_deep_chains_at_the_nesting_cap():
    """Formulas as deep as the parser accepts are judged without overflowing
    the interpreter stack, with the reference ledger's verdicts."""
    atoms = [parse_sentence("(= 0 0)"), FALSUM, box_quote(FALSUM)]
    chain = atoms[0]
    for k in range(MAX_NESTING - 1):
        chain = Imp(atoms[k % 3], chain)
    vacuous = Imp(box_quote(FALSUM), FALSUM)
    for k in range(MAX_NESTING - 1):
        vacuous = (Forall if k % 2 else Exists)(f"v{k}", vacuous)
    sentences = [chain, vacuous]
    assert (_verdicts(FalsityLedger(5, 4), sentences)
            == _verdicts(reference_ledger.FalsityLedger(5, 4), sentences))


# codes for definitional symbols over bound variables: open formulas for
# sub, sentences for iterbox
SUB_TARGETS = [encode_sentence(parse_formula(text)) for text in (
    "(= x 0)", "(box x)", "(forall y (= (+ x y) y))", "(exists y (= y (s x)))")]
ITERBOX_TARGETS = [encode_sentence(a) for a in (FALSUM, parse_sentence("(= 0 0)"))]
# 257232087984885112 codes (forall x (= x x)), a main axiom of pa
PA_AXIOM_CODE = 257232087984885112


def random_rich_ledger_sentence(rnd, quantifiers=1):
    """Random closed sentence over what random_ledger_sentence leaves out:
    relation atoms, definitional symbols over bound variables (with
    evaluator-budget trips) and boxes of open terms."""
    def small(vars_):
        if vars_ and rnd.random() < 0.7:
            return Var(rnd.choice(vars_))
        return numeral_of(rnd.randrange(0, 9))

    def coded(vars_):
        k = rnd.randrange(3)
        if k == 0:
            return Fn("sub", (numeral_of(rnd.choice(SUB_TARGETS)), small(vars_)))
        if k == 1:
            return Fn("numboxed", (small(vars_),))
        count = numeral_of(5000) if rnd.random() < 0.3 else small(vars_)
        return Fn("iterbox", (count, numeral_of(rnd.choice(ITERBOX_TARGETS))))

    def term(depth, vars_):
        if depth == 0 or rnd.random() < 0.4:
            return small(vars_)
        k = rnd.randrange(5)
        if k == 0:
            return Succ(term(depth - 1, vars_))
        if k in (1, 2):
            return (Mul if k == 1 else Add)(term(depth - 1, vars_),
                                            term(depth - 1, vars_))
        if k == 3:
            return Fn("num", (small(vars_),))
        return coded(vars_)

    def atom(vars_):
        k = rnd.randrange(8)
        if k == 0:
            return Rel("act1", (small(vars_),))
        if k == 1:
            return Rel("gamma", ())
        if k == 2:
            return Rel("prov:sstar-2", (small(vars_),))
        if k == 3:
            arg = small(vars_)
            if rnd.random() < 0.5:
                arg = Add(arg, numeral_of(PA_AXIOM_CODE))
            return Rel("ax:pa", (arg,))
        if k in (4, 5):
            return Box(coded(vars_) if rnd.random() < 0.7 else term(2, vars_))
        return Eq(term(2, vars_), term(2, vars_))

    def formula(depth, vars_, budget):
        if depth == 0 or rnd.random() < 0.3:
            return atom(vars_)
        if budget > 0 and rnd.random() < 0.35:
            v = rnd.choice("nmk")
            q = Forall if rnd.random() < 0.5 else Exists
            return q(v, formula(depth - 1, vars_ + [v], budget - 1))
        k = rnd.randrange(3)
        return [And, Or, Imp][k](formula(depth - 1, vars_, budget),
                                 formula(depth - 1, vars_, budget))

    while True:
        a = formula(3, [], quantifiers)
        if not a.free:
            return a


def test_ledger_matches_reference_on_rich_sentences(t_pa):
    sstar(2)   # the theory prov atoms name
    rnd = random.Random(71)
    for bound in (4, 8):
        sentences = [random_rich_ledger_sentence(rnd, 2 if k % 5 == 0 else 1)
                     for k in range(400)]
        assert (_verdicts(FalsityLedger(5, bound), sentences)
                == _verdicts(reference_ledger.FalsityLedger(5, bound), sentences))


# rows whose skipped side is indeterminate or trips an evaluator budget,
# and rows whose deciding side is the right one
SHORT_CIRCUIT_ROWS = [
    ("(and (= 0 1) (box (iterbox 5000 0)))", 1, IN),
    ("(and (= 0 1) gamma)", 0, IN),
    ("(and (= 0 0) (box (iterbox 5000 0)))", 1, INDET),
    ("(and (= 0 0) (box (iterbox 5000 0)))", 0, OUT),
    ("(and (box (iterbox 5000 0)) (= 0 1))", 1, IN),
    ("(and (= 0 0) (= 0 1))", 0, IN),
    ("(and (= 0 0) (box (godel (= 0 1))))", 1, IN),
    ("(or (= 0 0) (box (iterbox 5000 0)))", 1, OUT),
    ("(or (= 0 0) (act 1 0))", 0, OUT),
    ("(or (= 0 1) (box (iterbox 5000 0)))", 1, INDET),
    ("(or gamma (= 0 0))", 0, OUT),
    ("(or (= 0 1) (= 0 1))", 0, IN),
    ("(-> (= 0 1) (box (iterbox 5000 0)))", 1, OUT),
    ("(-> (= 0 1) gamma)", 0, OUT),
    ("(-> (= 0 0) (= 0 1))", 0, IN),
    ("(-> (= 0 0) (box (godel (= 0 1))))", 0, OUT),
    ("(-> (= 0 0) (box (godel (= 0 1))))", 1, IN),
    ("(-> (= 0 0) gamma)", 0, INDET),
    ("(-> (= 0 0) (box (iterbox 5000 0)))", 1, INDET),
    ("(-> gamma (= 0 0))", 0, OUT),
    ("(-> (box (godel (= 0 1))) (= 0 1))", 1, IN),
    ("(-> (box (godel (= 0 1))) (box (godel (= 0 1))))", 3, OUT),
    ("(ax pa 257232087984885112)", 0, OUT),
    ("(ax pa 0)", 0, IN),
    ("(exists g (and (= g 0) (ax pa (+ g 257232087984885112))))", 0, OUT),
    ("(forall g (-> (ax pa g) (= g g)))", 0, INDET),
]


@pytest.mark.parametrize("text, stage, verdict", SHORT_CIRCUIT_ROWS)
def test_connectives_stop_at_the_deciding_side(t_pa, text, stage, verdict):
    a = parse_sentence(text)
    assert FalsityLedger(5, 8).member(a, stage) is verdict
    assert reference_ledger.FalsityLedger(5, 8).member(a, stage) is verdict


# a side of a quantifier's body that does not read its variable, on the
# left (judged once per entry) and on the right (scanned) of and, or and a
# box-free implication, deciding for some outer values and not for others;
# tame bodies, untame ones and one whose root bound is past the tame cap;
# box-bearing sides and bodies; shadowed variables; opaque relation atoms
# under quantifiers
INVARIANT_SIDE_SENTENCES = [
    "(forall m (forall n (and (= m 0) (= n n))))",
    "(forall m (exists n (and (= m 1) (= n 2))))",
    "(forall m (exists n (and (= n 3) (= m 2))))",
    "(exists m (forall n (and (= m 2) (= n 3))))",
    "(exists m (forall n (and (= n 3) (= m 2))))",
    "(exists m (forall n (and (= (+ n 1) (s n)) (= m 4))))",
    "(forall m (forall n (or (= m 0) (= n 5))))",
    "(exists m (exists n (or (= n (* m m)) (= m 3))))",
    "(forall m (forall n (or (= n n) (= m 1))))",
    "(forall m (forall n (or (= m 0) (= (+ n 0) n))))",
    "(forall m (forall n (-> (= m 0) (= n 7))))",
    "(forall m (exists n (-> (= n 4) (= m 1))))",
    "(forall m (forall n (-> (= n 2) (= m 0))))",
    "(exists m (forall n (-> (= m 2) (= (* n 2) (+ n n)))))",
    "(exists m (exists n (-> (= (s n) 0) (= m 0))))",
    "(forall m (exists n (and (= m 0) (= (num n) (num n)))))",
    "(exists m (forall n (or (= m 2) (= (num n) (num 4)))))",
    "(forall m (forall y (or (= m 1) (= (* y y) 100000000000))))",
    "(forall m (exists y (and (= (* y y) 100000000000) (= m 0))))",
    "(exists m (forall y (-> (= m 3) (= (* y y) 100000000000))))",
    "(forall m (exists n (and (-> (= m 0) (box (godel (= 0 1)))) (= n m))))",
    "(forall m (forall n (or (box (num m)) (= n m))))",
    "(forall m (exists n (and (box (sub (num-of (godel (= x 0))) m)) (= n m))))",
    "(forall m (forall n (-> (box (godel (= 0 1))) (= n m))))",
    "(forall m (exists n (-> (= n m) (box (godel (= 0 1))))))",
    "(forall m (forall n (-> (= m 1) (-> (box (godel (= 0 1))) (= n n)))))",
    "(forall m (forall n (or (exists n (= n m)) (= m n))))",
    "(forall n (exists n (and (= n 0) (forall n (= n n)))))",
    "(forall m (forall m (and (= m 0) (= m m))))",
    "(forall x (forall y (and (prov sstar-2 x) (= y 0))))",
    "(forall g (-> (prov sbox-pa g) (box g)))",
    "(forall m (forall n (and (act 1 m) (= n 0))))",
    "(exists g (or (act 1 g) (= g g)))",
    "(forall m (exists n (or gamma (= n m))))",
    "(forall m (exists g (and (ax pa m) (= g m))))",
    "(forall x (forall y (forall z (-> (= x y) (-> (= y z) (= x z))))))",
]


def test_ledger_matches_reference_on_invariant_sides():
    sentences = [parse_sentence(text) for text in INVARIANT_SIDE_SENTENCES]
    for bound in (3, 8, 16):
        assert (_verdicts(FalsityLedger(5, bound), sentences)
                == _verdicts(reference_ledger.FalsityLedger(5, bound), sentences))


def test_opaque_atoms_under_quantifiers_build_no_instances(monkeypatch):
    """An opaque relation atom is a constant, so judging it under an
    assignment substitutes nothing."""
    from asrt import semantics
    calls = []

    def counted(*args):
        calls.append(args)
        return substitute(*args)
    monkeypatch.setattr(semantics, "substitute", counted)
    a = parse_sentence("(forall x (forall y (and (prov sstar-2 x) (= y 0))))")
    assert FalsityLedger(5, 64).member(a, 5) is IN   # the instance y = 1
    assert calls == []


def test_invariant_right_side_is_not_judged_ahead(monkeypatch):
    """Only a left side is judged once per entry: a right side that does not
    read the variable is left to the scan, which here stops on the left side
    of the first instance, so the right side's quantifier never runs."""
    scanned, quantifier = [], FalsityLedger._quantifier

    def counted(self, a):
        judge, reach = quantifier(self, a)

        def entered(i, env):
            scanned.append(a.var)
            return judge(i, env)
        return entered, reach
    monkeypatch.setattr(FalsityLedger, "_quantifier", counted)
    a = parse_sentence("(forall x (forall n (and (= (s n) 0) (forall y (= (+ x y) y)))))")
    assert FalsityLedger(5, 64).member(a, 5) is IN   # the instance n = 0
    assert "x" in scanned and "y" not in scanned


def test_nested_invariant_sides_compile_once(monkeypatch):
    """A quantifier builds its body on the judges of its sides, so in a nest
    of invariant sides no subformula is compiled twice (compiling the side
    again for the body would double the work at every level)."""
    a = parse_formula("(= (s w) 0)")
    for k in reversed(range(12)):
        v = Var(f"v{k}")
        a = Forall(v.name, And(a, Eq(v, v)))
    compiled = []
    compile_ = FalsityLedger._compile

    def counted(self, f, *args):
        compiled.append(f)
        return compile_(self, f, *args)
    monkeypatch.setattr(FalsityLedger, "_compile", counted)
    assert FalsityLedger(5, 64).member(Forall("w", a), 5) is IN
    assert len(compiled) == len({id(f) for f in compiled}) == 1 + 3 * 12 + 1


def _counting_decodes(monkeypatch):
    """Spy on the ledger's decoder: the list of the codes it decodes."""
    decoded, decode = [], semantics.decode_code

    def counted(g):
        decoded.append(g)
        return decode(g)
    monkeypatch.setattr(semantics, "decode_code", counted)
    return decoded


# a box-bearing universal with no opaque atom, so its scan runs: each
# instance judges four box atoms whose contents are true sentences of four
# shapes (=, not, or, and), so distinct (atom, assignment) pairs give
# distinct codes
DECODED_ONCE = parse_sentence(
    "(forall n (and (-> (box (sub {} n)) (box (sub {} n))) "
    "(-> (box (sub {} n)) (box (sub {} n)))))".format(*(
        encode_sentence(parse_formula(text)) for text in (
            "(= x x)", "(not (= (s x) 0))", "(or (= x x) (= x 0))",
            "(and (= x x) (= 0 0))"))))


def test_box_content_is_decoded_once_per_assignment(monkeypatch):
    """A box atom's content does not depend on the stage, so judging a
    sentence at every stage decodes each (box atom, assignment) pair's code
    once, not once per stage; here distinct pairs give distinct codes, so
    no code may be decoded twice."""
    decoded = _counting_decodes(monkeypatch)
    ledger = FalsityLedger(5, 64)
    verdicts = [ledger.member(DECODED_ONCE, i) for i in (5, 0, 1, 2, 3, 4)]
    monkeypatch.undo()
    assert len(decoded) > 200
    assert len(decoded) == len(set(decoded))
    reference = reference_ledger.FalsityLedger(5, 64)
    assert verdicts == [reference.member(DECODED_ONCE, i) for i in (5, 0, 1, 2, 3, 4)]


def test_delegation_audit_decodes_once_and_matches_reference(corpus, monkeypatch):
    """The delegation entry at stage 5: no code is decoded twice, and the
    audit and every kappa-free line judge as the reference ledger does."""
    entry = next(p for p in corpus if p.conclusion.has_kappa
                 and p.conclusion.has_box and isinstance(p.conclusion, Imp))
    decoded = _counting_decodes(monkeypatch)
    ledger = FalsityLedger(5, 64)
    report = audit_corpus(ledger, [entry], 5)
    monkeypatch.undo()
    assert len(decoded) == len(set(decoded))
    reference = reference_ledger.FalsityLedger(5, 64)
    assert report == audit_corpus(reference, [entry], 5)
    lines = [line.sentence for line in entry.lines if not line.sentence.has_kappa]
    assert ([ledger.member(a, 5) for a in lines]
            == [reference.member(a, 5) for a in lines])


# polynomial terms over x, y and z, coefficients up to past float range
_POLY_TERMS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z")])
    | st.builds(numeral_of, st.integers(0, 7) | st.just(10 ** 400)),
    lambda t: st.builds(Succ, t) | st.builds(Add, t, t) | st.builds(Mul, t, t),
    max_leaves=6)
# shapes that are not tame: a definitional symbol, a box, a nested
# quantifier, a relation
_UNTAME_ATOMS = st.sampled_from([parse_formula(text) for text in (
    "(= (num x) z)", "(= (sub y z) 0)", "(box (num z))", "(box x)",
    "(forall w (= w z))", "(exists y (= (* y y) z))", "(act 1 z)",
    "(prov sstar-2 x)")])
_BODIES = st.recursive(
    st.builds(Eq, _POLY_TERMS, _POLY_TERMS) | _UNTAME_ATOMS,
    lambda a: st.builds(And, a, a) | st.builds(Or, a, a) | st.builds(Imp, a, a),
    max_leaves=4)
_VALUES = st.integers(0, 10 ** 6) | st.just(10 ** 400)


@settings(max_examples=300, deadline=None)
@given(_BODIES, _VALUES, _VALUES)
@example(parse_formula(f"(= (* z z) {10 ** 400})"), 0, 0)
@example(parse_formula("(= (* z z) (+ x y))"), 10 ** 400, 3)
@example(parse_formula("(-> (= x y) (-> (= y z) (= x z)))"), 4, 9)
@example(parse_formula("(and (= x 0) (= (* y y) 9))"), 1, 2)
@example(parse_formula("(or (= (* z z) 4) (= (num x) z))"), 1, 2)
@example(parse_formula("(= (* z 3) (+ x y))"), 5, 7)       # linear, constant lead
@example(parse_formula("(= (* z 3) (+ x y))"), 0, 0)       # linear, d0 = 0
@example(parse_formula(f"(= (+ (* z 2) x) {10 ** 400})"), 0, 1)   # linear, overflows
def test_compiled_threshold_matches_reference(body, x, y):
    """The threshold compiled once per quantifier, under an assignment,
    equals the reference analysis of the body with the assignment
    substituted as numerals; None for bodies that are not tame-shaped or
    whose root bound overflows a float."""
    threshold = semantics._threshold(body, "z")
    closed = substitute(substitute(body, "x", numeral_of(x)), "y", numeral_of(y))
    expected = reference_ledger._tame_threshold(closed, "z")
    assert (None if threshold is None else threshold({"x": x, "y": y})) == expected


def _counting_instances(monkeypatch, body):
    """Spy on the judge the ledger builds for ``body``: the list of the
    assignments it is called with, one per scanned instance."""
    judged, entry = [], FalsityLedger._entry

    def counted(self, a):
        judge, reach = entry(self, a)
        if a is not body:
            return judge, reach

        def instance(i, env):
            judged.append(dict(env))
            return judge(i, env)
        return instance, reach
    monkeypatch.setattr(FalsityLedger, "_entry", counted)
    return judged


def test_certified_scan_stops_past_its_certificate(monkeypatch):
    """The root bound of (+ x 0) - x is 0, and past a certificate n every
    instance of a tame body judges as instance n + 1: the scan judges x = 0
    and x = 1, not 0..64."""
    a = parse_sentence("(forall x (= (+ x 0) x))")
    judged = _counting_instances(monkeypatch, a.body)
    assert FalsityLedger(5, 64).member(a, 5) is OUT
    assert judged == [{"x": 0}, {"x": 1}]


# one-variable tame bodies: verdicts in, out and indeterminate, scans that
# stop at a witness and scans that run to the certificate
CERTIFIED_SCANS = [
    "(forall x (= (+ x 0) x))",
    "(forall x (= (* x x) (* x x)))",
    "(exists x (= (* x x) 49))",
    "(exists x (= (+ x x) 7))",
    "(forall x (-> (= (* x 3) 12) (= x 4)))",
    "(forall x (not (= (* x x) (+ x 20))))",
    "(forall x (or (= (* x x) (* 2 x)) (= x 5)))",
    "(exists x (and (= (* x (* x x)) 1000) (= x 10)))",
]


@pytest.mark.parametrize("text", CERTIFIED_SCANS)
def test_certified_scan_judges_at_most_two_past_its_certificate(monkeypatch, text):
    a = parse_sentence(text)
    n = semantics._threshold(a.body, a.var)({})
    assert n < 64
    judged = _counting_instances(monkeypatch, a.body)
    verdict = FalsityLedger(5, 64).member(a, 5)
    assert len(judged) <= n + 2
    assert verdict is reference_ledger.FalsityLedger(5, 64).member(a, 5)


# nested polynomial prefixes: the outer scans are uncertified, the
# innermost one is certified under each assignment of the outer variables;
# the reference substitutes every instance, so deeper prefixes run at the
# smaller bounds only
NESTED_PREFIXES = [
    ("(forall x (forall y (-> (= (s x) (s y)) (= x y))))", (8, 16, 64)),
    ("(forall x (forall y (= (+ x y) (+ y x))))", (8, 16, 64)),
    ("(forall x (exists y (= y (* x x))))", (8, 16, 64)),
    ("(exists x (forall y (= (* x y) 0)))", (8, 16, 64)),
    ("(forall x (exists y (= (+ y y) (* x 3))))", (8, 16, 64)),
    ("(forall x (forall y (forall z (-> (= x y) (-> (= y z) (= x z))))))", (8, 16)),
    ("(forall x (forall y (forall z (= (* x (+ y z)) (+ (* x y) (* x z))))))", (8, 16)),
    ("(forall x0 (forall x1 (forall x2 (forall x3 "
     "(-> (= x0 x1) (-> (= x2 x3) (= x3 x2)))))))", (8,)),
]


@pytest.mark.parametrize("text, bounds", NESTED_PREFIXES)
def test_ledger_matches_reference_on_nested_prefixes(text, bounds):
    sentences = [parse_sentence(text)]
    for bound in bounds:
        assert (_verdicts(FalsityLedger(5, bound), sentences)
                == _verdicts(reference_ledger.FalsityLedger(5, bound), sentences))


@pytest.mark.parametrize("text, env", [
    (f"(= z {10 ** 308})", {}),                     # every difference closed
    ("(= (+ z x) 0)", {"x": 10 ** 308}),            # linear
    ("(= (* z z) (* z x))", {"x": 10 ** 308}),      # generic
])
def test_root_bound_past_float_range_certifies_nothing(text, env):
    """A root bound of about 1e308 is finite as a float but doubles past
    it; that is an overflow, so no certificate, not an OverflowError."""
    assert semantics._threshold(parse_formula(text), "z")(env) is None


def test_scan_without_a_certificate_is_indeterminate_not_an_error():
    a = parse_sentence(f"(exists z (= z {10 ** 308}))")
    assert FalsityLedger(5, 64).member(a, 5) is INDET
    assert (_verdicts(FalsityLedger(5, 64), [a])
            == _verdicts(reference_ledger.FalsityLedger(5, 64), [a]))


# quantifiers whose body cannot give the stopping verdict (in for forall,
# out for exists) because an opaque atom (act<i>, prov) blocks it, and which
# have no certificate: indeterminate without a scan; and quantifiers whose
# body can stop, through a decidable preset atom or an equation, which scan
SCANNED_OR_NOT = [
    ("(forall n (-> (act 2 n) (box (sub 132004874047020049775 n))))", False),
    ("(exists g (and (act 1 g) (= g g)))", False),
    ("(forall g (-> (prov sbox-pa g) (box g)))", False),
    ("(forall g (-> (ax sbox-pa g) (box g)))", True),
    ("(forall x (forall y (and (prov sstar-2 x) (= y 0))))", True),
]


@pytest.mark.parametrize("text, scans", SCANNED_OR_NOT)
def test_quantifier_that_cannot_stop_is_not_scanned(monkeypatch, text, scans):
    a = parse_sentence(text)
    judged = _counting_instances(monkeypatch, a.body)
    verdicts = _verdicts(FalsityLedger(5, 64), [a])
    monkeypatch.undo()
    assert bool(judged) is scans
    assert verdicts == _verdicts(reference_ledger.FalsityLedger(5, 64), [a])
    assert (_verdicts(FalsityLedger(5, 8), [a])
            == _verdicts(reference_ledger.FalsityLedger(5, 8), [a]))


def _subformulas(a):
    yield a
    for part in (getattr(a, "left", None), getattr(a, "right", None),
                 getattr(a, "body", None)):
        if isinstance(part, Formula):
            yield from _subformulas(part)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.tuples(*[st.integers(0, 9)] * 3))
def test_reference_verdict_is_reachable(seed, values):
    """The analysis over-approximates: under any assignment of its free
    variables and at any stage, every subformula of a rich sentence gets
    from the reference ledger a verdict in its analysed set or INDET."""
    rnd = random.Random(seed)
    a = random_rich_ledger_sentence(rnd, 2 if seed % 5 == 0 else 1)
    ledger, reference = FalsityLedger(5, 4), reference_ledger.FalsityLedger(5, 4)
    for sub in _subformulas(a):
        closed = sub
        for var, n in zip("nmk", values):
            closed = substitute(closed, var, numeral_of(n))
        reachable = ledger._entry(sub)[1] | {INDET}
        assert all(reference.member(closed, i) in reachable for i in range(6)), sub


@settings(max_examples=200, deadline=None)
@given(_BODIES)
def test_certified_body_reaches_both_verdicts(body):
    """A quantifier whose body cannot give its stopping verdict is a
    constant indeterminate without its certificate being computed: sound,
    because a tame-shaped body has only equations for atoms and so reaches
    both verdicts."""
    if semantics._threshold(body, "z") is not None:
        assert FalsityLedger()._entry(body)[1] == {IN, OUT}
