"""Regression corpus: a reproducible family of accepted proofs spanning the
whole surface (axiom one-liners, quantified inference chains, the liar
suite, trust scenarios, delegation, consistency instances), plus the
unsound-base corpus whose audit must flag box<0 = 1>."""

from __future__ import annotations

from typing import Optional

from .syntax import (
    And, Box, Exists, Forall, Imp, Or,
    FALSUM, box_quote, close_over, encode_sentence, parse_formula,
    parse_sentence, quote_term,
)
from .kernel import (
    Builder, ProofObject, ProofStore, TheoryConfig, capture_axiom,
    jump_axiom_of, sbox_pa, sbox_pa_incon, sstar,
)
from .derive import conj, dist_lemma, identity
from .reflection import assertible_consistency_instance, reflect_theorem
from .diagonal import hazard_demos, liar_suite
from .agency import SCENARIOS, delegation_derivation, trust_demo

__all__ = ["build_corpus", "build_unsound_corpus"]

CONSISTENCY_INSTANCES = 5   # assertible-consistency entries in the corpus

_AXIOM_SENTENCES = [
    "(forall x (= x x))",
    "(forall x (forall y (-> (= x y) (= y x))))",
    "(forall x (forall y (forall z (-> (= x y) (-> (= y z) (= x z))))))",
    "(forall x (not (= (s x) 0)))",
    "(forall x (forall y (-> (= (s x) (s y)) (= x y))))",
    "(forall x (= (+ x 0) x))",
    "(forall x (forall y (= (+ x (s y)) (s (+ x y)))))",
    "(forall x (= (* x 0) 0))",
    "(forall x (forall y (= (* x (s y)) (+ (* x y) x))))",
    # induction for n = n
    "(-> (and (= 0 0) (forall n (-> (= n n) (= (s n) (s n))))) (forall n (= n n)))",
    # propositional shapes over small sentences
    "(-> (= 0 0) (-> (= 0 1) (= 0 0)))",
    "(-> (= 0 0) (-> (= 0 1) (and (= 0 0) (= 0 1))))",
    "(-> (and (= 0 0) (= 0 1)) (= 0 1))",
    "(-> (= 0 0) (or (= 0 0) (= 0 1)))",
    "(-> (= 0 1) (= 0 0))",
    "(or (= 0 0) (not (= 0 0)))",
    # quantifier schemes
    "(-> (forall x (= x x)) (= 5 5))",
    "(-> (= 3 3) (exists x (= x x)))",
    "(forall m (-> (forall n (= n m)) (= m m)))",
]

_COMPUTATIONS = [
    "(= (+ 2 2) 4)",
    "(= (* 3 4) 12)",
    "(not (= 7 8))",
    "(= (+ (s 0) (s 0)) 2)",
    "(= (* 25 25) 625)",
]


def _one_liner(t: TheoryConfig, text: str, compute: bool = False) -> ProofObject:
    b = Builder(t)
    sentence = parse_sentence(text)
    b.compute(sentence) if compute else b.axiom(sentence)
    return b.checked_proof()


def _box_axiom_samples(t: TheoryConfig) -> list[ProofObject]:
    a = parse_sentence("(= 0 0)")
    f = FALSUM
    out = []
    shapes = [
        Imp(Box(quote_term(Or(a, f))), Or(Box(quote_term(a)), Box(quote_term(f)))),
        Imp(Or(Box(quote_term(a)), Box(quote_term(f))), Box(quote_term(Or(a, f)))),
        Imp(Box(quote_term(And(a, f))), And(Box(quote_term(a)), Box(quote_term(f)))),
        Imp(And(Box(quote_term(a)), Box(quote_term(f))), Box(quote_term(And(a, f)))),
        Imp(Box(quote_term(Imp(a, f))), Imp(Box(quote_term(a)), Box(quote_term(f)))),
        capture_axiom(a),
        capture_axiom(parse_formula("(= n n)")),
        jump_axiom_of(t),
    ]
    nn = parse_formula("(= n n)")
    shapes.append(Imp(Box(quote_term(Forall("n", nn))),
                      Forall("n", Box(quote_term(nn)))))
    shapes.append(Imp(Forall("n", Box(quote_term(nn))),
                      Box(quote_term(Forall("n", nn)))))
    shapes.append(Imp(Exists("n", Box(quote_term(nn))),
                      Box(quote_term(Exists("n", nn)))))
    for s in shapes:
        b = Builder(t)
        b.axiom(s)
        out.append(b.checked_proof())
    return out


def _chain_samples(t: TheoryConfig) -> list[ProofObject]:
    out = []
    # (forall n)(n = n or 0 = 1) by quantified modus ponens
    nn = parse_formula("(= n n)")
    orn = Or(nn, FALSUM)
    b = Builder(t)
    i1 = b.axiom(parse_sentence("(forall n (= n n))"))
    i2 = b.axiom(close_over(("n",), Imp(nn, orn)))
    b.mp(i1, i2)
    out.append(b.checked_proof())
    # plain modus ponens
    b = Builder(t)
    i1 = b.axiom(parse_sentence("(= 0 0)"))
    i2 = b.axiom(parse_sentence("(-> (= 0 0) (or (= 0 0) (= 0 1)))"))
    b.mp(i1, i2)
    out.append(b.checked_proof())
    # conjunction of two axioms
    b = Builder(t)
    i1 = b.axiom(parse_sentence("(= 0 0)"))
    i2 = b.axiom(parse_sentence("(forall x (= x x))"))
    out.append(b.conclude(conj(b, (), i1, i2)))
    # identity and syllogism plumbing
    b = Builder(t)
    out.append(b.conclude(identity(b, (), box_quote(FALSUM))))
    # two-variable quantified modus ponens
    mm = parse_formula("(= (+ n m) (+ n m))")
    b = Builder(t)
    i1 = b.axiom(close_over(("n", "m"), mm))
    i2 = b.axiom(close_over(("n", "m"), Imp(mm, Or(mm, FALSUM))))
    b.mp(i1, i2)
    out.append(b.checked_proof())
    # the distribution lemma
    b = Builder(t)
    out.append(b.conclude(dist_lemma(b, ("n",), nn, orn)))
    return out


def build_corpus(store: Optional[ProofStore] = None) -> list[ProofObject]:
    """The sound regression corpus: >= 50 accepted proofs.  Conclusions of
    each are theorems of their recorded theories (the box theory or its demo
    extensions; one delegation entry mentions kappa constants)."""
    store = store if store is not None else ProofStore()
    t = sbox_pa()
    proofs: list[ProofObject] = []
    for text in _AXIOM_SENTENCES:
        proofs.append(_one_liner(t, text))
    for text in _COMPUTATIONS:
        proofs.append(_one_liner(t, text, compute=True))
    proofs += _box_axiom_samples(t)
    proofs += _chain_samples(t)
    suite = liar_suite(t, store)
    proofs += [suite.fixed_point.forward, suite.fixed_point.backward,
               suite.not_liar, suite.boxed_not_liar, suite.collapse]
    proofs += list(hazard_demos(t, store, suite))
    # proofs[0] proves (forall x (= x x)), the trust scenarios' fixture;
    # registered, it is not built and judged again, and the reflection of it
    # that the scenarios register is reused below
    store.register(t, proofs[0])
    for scenario in SCENARIOS:
        proofs.append(trust_demo(scenario, store).proof)
    proofs.append(delegation_derivation(sstar(2), 7, store=store).proof)
    for g in range(CONSISTENCY_INSTANCES):
        proofs.append(assertible_consistency_instance(t, g, store))
    # a couple of reflected entries keep nesting in the mix
    proofs.append(store.get(t.name, encode_sentence(box_quote(proofs[0].conclusion))))
    proofs.append(reflect_theorem(t, suite.not_liar, store).output)
    return proofs


def build_unsound_corpus(store: Optional[ProofStore] = None) -> list[ProofObject]:
    """Proofs over the unsound base whose audit must flag exactly the
    box<0 = 1> theorem (obtained by reflecting the base's falsehood)."""
    store = store if store is not None else ProofStore()
    t = sbox_pa_incon()
    b = Builder(t, store)
    b.axiom(FALSUM)
    boxed = reflect_theorem(t, b.checked_proof(), store).output
    b2 = Builder(t, store)
    b2.axiom(parse_sentence("(forall x (= x x))"))
    return [boxed, b2.checked_proof()]
