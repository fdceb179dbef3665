"""Fixed points by substitution diagonalization, the liar sentence, and the
derivations around it.

Given a formula D with one designated code variable x, let

    theta := D[x := (sub x x)]        g := <code of theta>
    L     := theta[x := <numeral g>]  =  D[x := (sub <g> <g>)]

The term (sub <g> <g>) evaluates to the code of L itself, so L says
"D holds of my own code".  Both directions of the biconditional between L
and D applied to the literal numeral of L's code are kernel-checked: one
computation axiom for the evaluated substitution plus equality replacement.

For D(x) = not box(x) this yields the liar: the suite derives exactly
not-L, box<not-L>, and box<L> -> box<falsehood>, and deliberately nothing
stronger; the hazard pair shows that a release implication or an excluded
middle over box<L> would collapse the system.  The case split inside the
excluded-middle hazard (box-and then a short internal argument, in the
original sketch) is here rebuilt as: the already-derived collapse lemma on
one side, explosion on the other.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    Box, Eq, Fn, Formula, Imp, Or, Var,
    FALSUM, box_quote, encode_sentence, neg, numeral_of, quote_term,
    substitute,
)
from .kernel import (
    Builder, KernelError, ProofObject, ProofStore, Record, TheoryConfig,
    capture_axiom,
)
from .derive import absorb_proof, cases, discharge_hypothesis, syllogism

__all__ = [
    "FixedPointResult", "LiarSuite", "diagonalize", "liar_suite",
    "hazard_demos",
]


class FixedPointResult(Record):
    __slots__ = ("sentence",          # L, closed
                 "quoted_instance",   # D applied to the literal numeral of <L>
                 "forward",           # L -> D(<L>)
                 "backward")          # D(<L>) -> L

    def __init__(self, sentence: Formula, quoted_instance: Formula,
                 forward: ProofObject, backward: ProofObject):
        self._init(sentence, quoted_instance, forward, backward)

    @property
    def code(self) -> int:
        return encode_sentence(self.sentence)


def diagonalize(t: TheoryConfig, d: Formula, var: str = "x",
                store: Optional[ProofStore] = None) -> FixedPointResult:
    """Fixed point of a formula over codes with designated free variable
    ``var``; the biconditional is returned as two checked proofs.  A formula
    that ignores its variable is its own (trivial) fixed point."""
    if not d.free <= {var}:
        raise KernelError(
            f"diagonalization needs one designated free variable {var!r}; "
            f"got {{{', '.join(sorted(d.free))}}}")
    theta = substitute(d, var, Fn("sub", (Var(var), Var(var))))
    g = encode_sentence(theta)
    gn = numeral_of(g)
    sentence = substitute(theta, var, gn)            # == d[var := (sub g g)]
    self_term = Fn("sub", (gn, gn))
    l_code = encode_sentence(sentence)
    ln = numeral_of(l_code)
    quoted = substitute(d, var, ln)

    eq = Eq(self_term, ln)
    fb = Builder(t, store)
    i1 = fb.compute(eq)
    i2 = fb.axiom(Imp(eq, Imp(sentence, quoted)))    # equality replacement
    fb.mp(i1, i2)
    forward = fb.checked_proof()

    bb = Builder(t, store)
    j1 = bb.compute(eq)
    j2 = bb.axiom(Imp(eq, Eq(ln, self_term)))
    j3 = bb.mp(j1, j2)
    j4 = bb.axiom(Imp(Eq(ln, self_term), Imp(quoted, sentence)))
    bb.mp(j3, j4)
    backward = bb.checked_proof()
    return FixedPointResult(sentence, quoted, forward, backward)


# ---------------------------------------------------------------------------
# The liar
# ---------------------------------------------------------------------------

class LiarSuite(Record):
    __slots__ = ("fixed_point",
                 "not_liar",         # not L
                 "boxed_not_liar",   # box<not L>
                 "collapse")         # box<L> -> box<falsehood>

    def __init__(self, fixed_point: FixedPointResult, not_liar: ProofObject,
                 boxed_not_liar: ProofObject, collapse: ProofObject):
        self._init(fixed_point, not_liar, boxed_not_liar, collapse)

    @property
    def liar(self) -> Formula:
        return self.fixed_point.sentence

    def excluded_conclusions(self) -> tuple[Formula, ...]:
        """What the suite deliberately does not derive: the liar itself, its
        unboxed negation target, and outright falsehood."""
        liar = self.liar
        return (liar, neg(Box(numeral_of(encode_sentence(liar)))),
                FALSUM, box_quote(FALSUM))


def liar_suite(t: TheoryConfig, store: Optional[ProofStore] = None) -> LiarSuite:
    """Checked proofs of exactly not-L, box<not-L>, and
    box<L> -> box<falsehood> for the liar fixed point."""
    if not t.allow_box:
        raise KernelError("the liar needs a theory with the box operator")
    fp = diagonalize(t, neg(Box(Var("x"))), "x", store)
    liar = fp.sentence
    ln = numeral_of(encode_sentence(liar))
    not_box_l = neg(Box(ln))          # == fp.quoted_instance

    # assume L; infer not box<L> through the fixed point, box<L> by capture
    hb = Builder(t, store)
    h = hb.hyp(liar)
    i_fwd = absorb_proof(hb, fp.forward)   # L -> not box<L>
    i_nb = hb.mp(h, i_fwd)            # not box<L>
    i_cap = hb.axiom(capture_axiom(liar))
    i_b = hb.mp(h, i_cap)             # box<L>
    hb.mp(i_b, i_nb)                  # falsehood
    not_liar = discharge_hypothesis(t, liar, hb.proof(), store)

    b = Builder(t, store)
    i_nl = absorb_proof(b, not_liar)
    i_c = b.axiom(capture_axiom(not_liar.conclusion))
    boxed_not_liar = b.conclude(b.mp(i_nl, i_c))

    b2 = Builder(t, store)
    i_bnl2 = absorb_proof(b2, boxed_not_liar)
    # box<L -> falsehood> -> (box<L> -> box<falsehood>); the antecedent is
    # literally box<not L>
    a5 = b2.axiom(Imp(Box(quote_term(Imp(liar, FALSUM))),
                      Imp(Box(quote_term(liar)), Box(quote_term(FALSUM)))))
    collapse = b2.conclude(b2.mp(i_bnl2, a5))

    assert not_liar.conclusion == neg(liar)
    assert boxed_not_liar.conclusion == box_quote(neg(liar))
    assert collapse.conclusion == Imp(box_quote(liar), box_quote(FALSUM))
    return LiarSuite(fp, not_liar, boxed_not_liar, collapse)


def hazard_demos(t: TheoryConfig, store: Optional[ProofStore] = None,
                 suite: Optional[LiarSuite] = None) -> tuple[ProofObject, ProofObject]:
    """Checked proofs of not(box<L> -> L) and
    (box<L> or not box<L>) -> box<falsehood>."""
    suite = suite or liar_suite(t, store)
    fp = suite.fixed_point
    liar = suite.liar
    box_l = box_quote(liar)
    release = Imp(box_l, liar)

    # release hazard: assume box<L> -> L, contrapose not-L into not box<L>,
    # recover L through the fixed point, contradiction with not-L
    hb = Builder(t, store)
    h = hb.hyp(release)
    i_nl = absorb_proof(hb, suite.not_liar)          # L -> falsehood
    i_nb = syllogism(hb, (), h, i_nl)                # not box<L>  ==  D(<L>)
    i_bwd = absorb_proof(hb, fp.backward)            # not box<L> -> L
    i_l = hb.mp(i_nb, i_bwd)                         # L
    hb.mp(i_l, i_nl)                                 # falsehood
    release_hazard = discharge_hypothesis(t, release, hb.proof(), store)
    assert release_hazard.conclusion == neg(release)

    # excluded-middle hazard, by cases
    b = Builder(t, store)
    i_case1 = absorb_proof(b, suite.collapse)        # box<L> -> box<falsehood>
    i_bwd2 = absorb_proof(b, fp.backward)
    i_nl2 = absorb_proof(b, suite.not_liar)
    s2 = syllogism(b, (), i_bwd2, i_nl2)             # not box<L> -> falsehood
    exf = b.axiom(Imp(FALSUM, box_quote(FALSUM)))
    i_case2 = syllogism(b, (), s2, exf)              # not box<L> -> box<falsehood>
    em_hazard = b.conclude(cases(b, (), i_case1, i_case2))
    assert em_hazard.conclusion == Imp(Or(box_l, neg(box_l)), box_quote(FALSUM))
    return release_hazard, em_hazard
