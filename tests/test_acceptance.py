"""Acceptance gate: one test per exit criterion, each printing a pass/fail
line (run with -s to watch them stream).

    pytest tests/test_acceptance.py -s
"""

import random
import time

from reference_codec import ref_encode

from asrt.syntax import (
    Box, Eq, Fn, Forall, Imp, Kappa, Or, Rel, Var,
    FALSUM, box_quote, decode_code, encode_sentence, neg, numeral_of,
    parse_formula, parse_sentence,
)
from asrt.kernel import (
    Builder, ProofStore, check_proof, is_axiom, preset_theory, sbox_pa, sstar,
)
from asrt.reflection import (
    assertible_consistency_instance, reflect_iterated, reflect_theorem,
)
from asrt.semantics import FalsityLedger, Verdict, audit_corpus
from asrt.diagonal import diagonalize, hazard_demos, liar_suite
from asrt.agency import (
    GOAL, LicensingPolicy, delegation_derivation,
    finite_fragment_model, licenses, too_much_demo, trust_demo,
)
from asrt.corpus import build_corpus, build_unsound_corpus

IN, OUT = Verdict.IN, Verdict.OUT


def _report(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{tail}")
    assert ok, label


def test_criterion_derivation_suite():
    """Kernel-accepted proofs for the liar trio, both hazards, the
    reflective-coherence and disjunctive chains, and delegation with two
    agents; the whole suite from cold in under 60 s."""
    start = time.time()
    t = sbox_pa()
    store = ProofStore()
    suite = liar_suite(t, store)
    release, em = hazard_demos(t, store, suite)
    liar = suite.liar
    expectations = [
        (suite.not_liar, neg(liar)),
        (suite.boxed_not_liar, box_quote(neg(liar))),
        (suite.collapse, Imp(box_quote(liar), box_quote(FALSUM))),
        (release, neg(Imp(box_quote(liar), liar))),
        (em, Imp(Or(box_quote(liar), neg(box_quote(liar))),
                 box_quote(FALSUM))),
    ]
    coherent = trust_demo("coherent", store)
    disjunctive = trust_demo("disjunctive", store)
    delegation = delegation_derivation(sstar(2), 7, store=store)
    expectations += [
        (coherent.proof, box_quote(Forall("n", Eq(Var("n"), Var("n"))))),
        (disjunctive.proof, box_quote(parse_sentence("(forall x (= x x))"))),
        (delegation.proof,
         Imp(Rel("act1", (numeral_of(7),)),
             Box(Fn("iterbox", (Kappa(1), numeral_of(encode_sentence(GOAL))))))),
    ]
    ok = True
    from asrt.kernel import proof_from_sexp, proof_to_sexp
    for proof, conclusion in expectations:
        ok = ok and proof.conclusion == conclusion
        reparsed = proof_from_sexp(proof_to_sexp(proof))
        ok = ok and reparsed == proof
        t = store.theory(proof.theory) or preset_theory(proof.theory)
        ok = ok and check_proof(t, reparsed, store).accepted
    elapsed = time.time() - start
    _report(ok and elapsed < 60.0, "derivation suite",
            f"{len(expectations)} theorems checked from cold, {elapsed:.1f}s")


def test_criterion_reflection_totality():
    """Over a fresh regression corpus of >= 50 theorems, reflection yields
    accepted proofs with exact box-quote conclusions in < 10 s each;
    two-layer iteration passes on >= 10 entries."""
    store = ProofStore()
    corpus = build_corpus(store)
    ok = len(corpus) >= 50
    worst = 0.0
    for proof in corpus:
        t = store.theory(proof.theory) or preset_theory(proof.theory)
        t0 = time.time()
        trace = reflect_theorem(t, proof, store)
        worst = max(worst, time.time() - t0)
        ok = ok and trace.conclusion == box_quote(proof.conclusion)
        ok = ok and check_proof(t, trace.output, store).accepted
    iterated = 0
    for proof in corpus[:10]:
        t = store.theory(proof.theory) or preset_theory(proof.theory)
        out = reflect_iterated(t, proof, 2, store)
        step = out.conclusion
        from asrt.syntax import strip_box
        ok = ok and strip_box(strip_box(step)) == proof.conclusion
        iterated += 1
    _report(ok and worst < 10.0 and iterated >= 10, "reflection totality",
            f"{len(corpus)} reflected, worst {worst:.2f}s, {iterated} iterated")


def test_criterion_assertible_consistency_instances():
    """box<A(<g>)> for all g <= 200: 201 of 201 accepted."""
    t = sbox_pa()
    accepted = 0
    for g in range(201):
        proof = assertible_consistency_instance(t, g)
        if check_proof(t, proof).accepted:
            accepted += 1
    _report(accepted == 201, "assertible consistency instances",
            f"{accepted}/201")


def test_criterion_falsity_harness():
    """Stages 5, bound 64: exact box-iterate separations; zero in-verdicts
    over the sound corpus; monotonicity on 10^3 random sentences; the
    unsound base's box<0=1> flagged."""
    ledger = FalsityLedger(stages=5, bound=64)
    ok = True
    a = FALSUM
    for k in range(1, 6):
        a = box_quote(a)
        ok = ok and ledger.member(a, k) is IN and ledger.member(a, k - 1) is OUT
    store = ProofStore()
    corpus = build_corpus(store)
    report = audit_corpus(ledger, corpus, 5)
    ok = ok and report.ok and not report.flagged

    from test_semantics import random_ledger_sentence
    rnd = random.Random(17)
    lower = FalsityLedger(stages=5, bound=32)
    violations = 0
    for k in range(1000):
        s = random_ledger_sentence(rnd, quantifiers=2 if k % 10 == 0 else 1)
        prev = None
        for i in range(6):
            v = lower.member(s, i)
            if prev is IN and v is not IN:
                violations += 1
            prev = v
            w = ledger.member(s, i)
            if (v is IN and w is OUT) or (v is OUT and w is IN):
                violations += 1
    ok = ok and violations == 0

    unsound = build_unsound_corpus()
    flagged = audit_corpus(ledger, unsound, 1).flagged
    ok = ok and len(flagged) == 1 and flagged[0][0] == box_quote(FALSUM)
    _report(ok, "falsity harness",
            f"separations exact, corpus clean, {violations} monotonicity "
            f"violations, unsound flagged")


def test_criterion_diagonal_lemma():
    """Both directions of the liar biconditional kernel-accepted; the fixed
    point construction succeeds for 20 random box-free formulas."""
    t = sbox_pa()
    fp = diagonalize(t, neg(Box(Var("x"))), "x")
    ok = (check_proof(t, fp.forward).accepted
          and check_proof(t, fp.backward).accepted)
    from test_diagonal import _random_box_free_formula
    rnd = random.Random(23)
    succeeded = 0
    for _ in range(20):
        d = _random_box_free_formula(rnd, "x")
        r = diagonalize(t, d, "x")
        if (check_proof(t, r.forward).accepted
                and check_proof(t, r.backward).accepted
                and decode_code(encode_sentence(r.sentence)) == r.sentence):
            succeeded += 1
    _report(ok and succeeded == 20, "diagonal lemma",
            f"liar biconditional + {succeeded}/20 random fixed points")


def test_criterion_negative_controls():
    """100 release instances and 100 box-carrying excluded-middle instances
    rejected; the provability-implication sentence licenses nothing against
    the consistency-implies-falsehood criterion."""
    t = sbox_pa()
    from test_kernel import _random_arith_sentence
    rnd = random.Random(29)
    rejected_release = rejected_em = 0
    for _ in range(100):
        a = _random_arith_sentence(rnd)
        if is_axiom(t, Imp(box_quote(a), a)) is None:
            rejected_release += 1
        b = box_quote(_random_arith_sentence(rnd))
        if is_axiom(t, Or(b, neg(b))) is None:
            rejected_em += 1
    demo = too_much_demo(ProofStore())
    _report(rejected_release == 100 and rejected_em == 100
            and demo.licensed == set(),
            "negative controls",
            f"{rejected_release}/100 release, {rejected_em}/100 boxed "
            f"excluded middle, licensing empty")


def test_criterion_box_rule_closure():
    """Licensing is invariant under one to five quotation layers for every
    policy in the fixture set."""
    t = sbox_pa()
    store = ProofStore()
    criteria = [
        parse_sentence("(forall x (= x x))"),
        parse_sentence("(= 0 0)"),
        Or(parse_sentence("(= 0 0)"), FALSUM),
    ]
    policies = [LicensingPolicy.of((c, f"alpha-{i}"))
                for i, c in enumerate(criteria)]
    ok = True
    for i, c in enumerate(criteria):
        b = Builder(t, store)
        if is_axiom(t, c):
            b.axiom(c)
        else:
            i1 = b.axiom(c.left)
            i2 = b.axiom(Imp(c.left, c))
            b.mp(i1, i2)
        proof = b.checked_proof()
        store.register(t, proof)
        expect = {f"alpha-{i}"}
        proved = c
        for _depth in range(5):
            proof = reflect_theorem(t, proof, store).output
            store.register(t, proof)
            proved = box_quote(proved)
            for j, policy in enumerate(policies):
                want = expect if j == i else set()
                ok = ok and licenses(policy, proved, store) == want
    _report(ok, "box-rule closure", "3 policies x 5 quotation layers")


def test_criterion_kappa_fragment_models():
    """Numeric assignments validate every kappa axiom for j <= 10, exactly."""
    ok = True
    for j in range(1, 11):
        env = finite_fragment_model(j)
        for i in range(1, j):
            from asrt.syntax import eval_term, Succ
            ok = ok and eval_term(Kappa(i), env) == eval_term(
                Succ(Kappa(i + 1)), env)
    _report(ok, "kappa fragment models", "j = 1..10")


def test_criterion_codec():
    """10^4 exact roundtrips; golden values match the independent reference
    encoder."""
    from test_syntax import _random_formula
    rnd = random.Random(41)
    ok = True
    for _ in range(10_000):
        a = _random_formula(rnd, rnd.randrange(1, 8), [])
        ok = ok and decode_code(encode_sentence(a)) == a
    goldens = {
        "(= 0 0)": 14479,
        "(= 0 1)": 231695,
        "(forall x (= x x))": 257232087984885112,
    }
    for text, want in goldens.items():
        a = parse_formula(text)
        ok = ok and encode_sentence(a) == want == ref_encode(a)
    ok = ok and encode_sentence(box_quote(FALSUM)) == 1903134991 == ref_encode(
        box_quote(FALSUM))
    _report(ok, "codec", "10^4 roundtrips + goldens vs reference encoder")
