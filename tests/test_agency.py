import pytest

from asrt.syntax import (
    Box, Eq, Fn, Forall, Imp, Kappa, Rel, Succ, Var,
    FALSUM, box_quote, encode_sentence, eval_term, fmt, neg, numeral_of,
    parse_sentence,
)
from asrt.kernel import (
    Builder, KernelError, ProofStore, check_proof, sstar,
    proof_from_sexp, proof_to_sexp,
)
from asrt.reflection import reflect_theorem
from asrt.agency import (
    SCENARIOS, GOAL, LicensingPolicy, PolicyEntry,
    delegation_derivation, finite_fragment_model, licenses, policy_from_sexp,
    policy_to_sexp, too_much_demo, trust_demo,
)

A0 = parse_sentence("(forall x (= x x))")


def _store_with_boxes(t, depth=5):
    """Registers A0 and all box quotes up to the given depth."""
    store = ProofStore()
    b = Builder(t, store)
    b.axiom(A0)
    proof = b.checked_proof()
    store.register(t, proof)
    for _ in range(depth):
        proof = reflect_theorem(t, proof, store).output
        store.register(t, proof)
    return store


def test_box_rule_closure_depth_five(t_box):
    store = _store_with_boxes(t_box, 5)
    policy = LicensingPolicy.of((A0, "alpha-0"))
    proved = A0
    for _ in range(6):
        assert licenses(policy, proved, store) == {"alpha-0"}
        proved = box_quote(proved)
        if not store.has_code(encode_sentence(proved)):
            break


def test_licenses_requires_registration(t_box):
    policy = LicensingPolicy.of((A0, "alpha-0"))
    with pytest.raises(KernelError):
        licenses(policy, A0, ProofStore())


def test_licenses_never_strips_adversarial_wrappers(t_box):
    """Provability atoms, implications, conjunctions, and quantifiers around
    a criterion license nothing."""
    store = ProofStore()
    g = numeral_of(encode_sentence(A0))
    wrappers = [
        Rel(f"prov:{t_box.name}", (g,)),
        Imp(parse_sentence("(= 0 0)"), A0),
        Imp(A0, A0),
        Forall("z", Imp(Eq(Var("z"), Var("z")), A0)),
    ]
    from asrt.kernel import extend_theory
    demo = extend_theory(t_box, "sbox-pa-test-wrappers", tuple(wrappers))
    policy = LicensingPolicy.of((A0, "alpha-0"))
    for w in wrappers:
        b = Builder(demo, store)
        b.axiom(w)
        store.register(demo, b.checked_proof())
        assert licenses(policy, w, store) == set(), fmt(w)


def test_policy_entry_validation():
    with pytest.raises(KernelError):
        PolicyEntry(parse_sentence("(= 0 0)"), "")
    with pytest.raises(KernelError):
        LicensingPolicy((PolicyEntry(A0, "a"), PolicyEntry(A0, "a")))


def test_policy_serialization_roundtrip():
    policy = LicensingPolicy((
        PolicyEntry(A0, "alpha-0"),
        PolicyEntry(parse_sentence("(= 0 0)"), "beta", box_rule=False),
    ))
    assert policy_from_sexp(policy_to_sexp(policy)) == policy


def test_exact_match_entries_ignore_box_rule(t_box):
    store = _store_with_boxes(t_box, 1)
    policy = LicensingPolicy.of((A0, "alpha-0"), box_rule=False)
    assert licenses(policy, A0, store) == {"alpha-0"}
    assert licenses(policy, box_quote(A0), store) == set()


# ---------------------------------------------------------------------------
# Trust scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", SCENARIOS)
def test_trust_demo_licenses_action(scenario):
    store = ProofStore()
    result = trust_demo(scenario, store)
    assert result.licensed == {"alpha-0"}
    t = store.theory(result.theory)
    assert check_proof(t, result.proof, store).accepted


def test_trust_demo_outputs_recheck_from_cold():
    """Serialized, reparsed, rechecked -- with the session registrations
    rebuilt, since provability admissions are store-backed by design."""
    for scenario in SCENARIOS:
        store = ProofStore()
        result = trust_demo(scenario, store)
        again = proof_from_sexp(proof_to_sexp(result.proof))
        assert again == result.proof
        t = store.theory(result.theory)
        assert check_proof(t, again, store).accepted


def test_disjunctive_display_milestones():
    result = trust_demo("disjunctive", ProofStore())
    h, mid, both, final = result.milestones
    g = numeral_of(encode_sentence(A0))
    from asrt.syntax import Or
    assert h == Or(A0, Rel(f"prov:sbox-pa", (g,)))
    assert mid == Or(A0, box_quote(A0))
    assert both == Or(box_quote(A0), box_quote(A0))
    assert final == box_quote(A0)
    derived = {l.sentence for l in result.proof.lines}
    assert {mid, both, final} <= derived


def test_coherent_conclusion_shape():
    result = trust_demo("coherent", ProofStore())
    want = box_quote(Forall("n", Eq(Var("n"), Var("n"))))
    assert result.proof.conclusion == want
    assert len(result.evidence) == 4


def test_unknown_scenario_rejected():
    with pytest.raises(KernelError):
        trust_demo("quantum", ProofStore())


def test_naturalistic_trust_judges_each_proof_once(check_proof_calls):
    """The fixture and the reflected proof are each judged once: registering
    a Theorem of the store, and reflecting it, judge nothing again."""
    result = trust_demo("naturalistic", ProofStore())
    assert len(check_proof_calls) == 2
    assert check_proof_calls[0].conclusion == A0
    assert check_proof_calls[1] == result.proof


def test_build_corpus_judges_each_proof_once(check_proof_calls):
    """The trust scenarios reuse the registered fixture and its registered
    reflection, so no proof of the corpus session is judged twice."""
    from asrt.corpus import build_corpus
    build_corpus(ProofStore())
    judged = [(p.theory, p.lines) for p in check_proof_calls]
    assert len(judged) == len(set(judged)) == 71


def test_trust_scenarios_share_one_reflection(check_proof_calls):
    store = ProofStore()
    natural = trust_demo("naturalistic", store)
    reflective = trust_demo("reflective", store)
    assert len(check_proof_calls) == 3
    assert check_proof_calls[2] == reflective.proof
    absorbed = reflective.proof.lines[1:1 + len(natural.proof.lines)]
    assert [l.sentence for l in absorbed] == [l.sentence for l in natural.proof.lines]
    assert trust_demo("naturalistic", store).proof == natural.proof


def test_too_much_demo_licenses_nothing():
    result = too_much_demo(ProofStore())
    assert result.licensed == set()
    falsum_n = numeral_of(encode_sentence(FALSUM))
    con = neg(Rel("prov:pa", (falsum_n,)))
    assert result.proof.conclusion == Imp(
        Rel("prov:pa", (numeral_of(encode_sentence(con)),)),
        Rel("prov:pa", (falsum_n,)))


# ---------------------------------------------------------------------------
# Kappa-graded theory and delegation
# ---------------------------------------------------------------------------

def test_build_sstar_axioms():
    t = sstar(2)
    assert t.extra_axioms == (Eq(Kappa(1), Succ(Kappa(2))),)
    t1 = sstar(1)
    assert t1.extra_axioms == ()
    with pytest.raises(KernelError):
        sstar(0)


def test_finite_fragment_models():
    for j in range(1, 11):
        env = finite_fragment_model(j)
        assert env[j] == 0 and (j == 1 or env[1] == j - 1)


def test_iterbox_coherence():
    """iterbox agrees with literal box-quote iteration, k <= 6."""
    g = encode_sentence(GOAL)
    boxed = GOAL
    for k in range(7):
        t = Fn("iterbox", (numeral_of(k), numeral_of(g)))
        assert eval_term(t) == encode_sentence(boxed)
        boxed = box_quote(boxed)


def test_delegation_exact_conclusion():
    t = sstar(2)
    result = delegation_derivation(t, 7)
    want = Imp(Rel("act1", (numeral_of(7),)),
               Box(Fn("iterbox", (Kappa(1), numeral_of(encode_sentence(GOAL))))))
    assert result.proof.conclusion == want
    assert result.licensed == {"activate-m2"}
    assert len(result.hypotheses) == 3


def test_delegation_chained_level_two():
    t = sstar(3)
    result = delegation_derivation(t, 4, level=2)
    want = Imp(Rel("act2", (numeral_of(4),)),
               Box(Fn("iterbox", (Kappa(2), numeral_of(encode_sentence(GOAL))))))
    assert result.proof.conclusion == want
    assert result.licensed == {"activate-m3"}


def test_delegation_needs_successor():
    with pytest.raises(KernelError):
        delegation_derivation(sstar(1), 0)


def test_delegation_rechecks_from_cold():
    store = ProofStore()
    result = delegation_derivation(sstar(2), 7, store=store)
    again = proof_from_sexp(proof_to_sexp(result.proof))
    assert again == result.proof
    assert check_proof(store.theory(result.theory), again, store).accepted


def test_agent_criteria_do_not_obey_box_rule():
    store = ProofStore()
    result = delegation_derivation(sstar(2), 7, store=store)
    t = store.theory(result.theory)
    boxed = reflect_theorem(t, result.proof, store).output
    store.register(t, boxed)
    assert licenses(result.policy, boxed.conclusion, store) == set()
