"""Proof reflection: transform any accepted proof into an accepted proof of
the assertibility of its conclusion.

Every line of the source proof is revisited and a proof of box<line> is
emitted:

* main-axiom lines: the computation axiom ax:T(<code>), the jump axiom, a
  forall-elim instance, and two modus ponens steps;
* the jump axiom itself and computation-axiom lines: restate the line, then
  capture and one modus ponens;
* quantified modus ponens lines: the box distribution chain -- unfold the
  quantifiers through box (box-forall-fwd), conjoin the two premise families,
  recombine pointwise with box-imp, and fold the quantifiers back
  (box-forall-bwd).

The transformer is instance-wise: it realizes, per theorem, the procedure
behind the single internal soundness sentence, which is out of scope for the
kernel itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .syntax import (
    And, Box, Forall, Formula, Imp, Rel, Var,
    FALSUM, box_quote, close_over, encode_sentence, neg, numeral_of,
    quote_term, quotes_code,
)
from .kernel import (
    Builder, KernelError, MPStep, ProofObject, ProofStore,
    Record, TheoryConfig, accept, capture_axiom,
    jump_axiom_of, mp_match, proof_code_valid,
)
from .derive import apply_s, conj, syllogism

__all__ = [
    "ReflectionTrace", "MPChainTrace", "reflect_theorem", "reflect_iterated",
    "assertible_consistency_instance", "consistency_predicate",
]


class MPChainTrace(Record):
    """The displayed box-distribution chain for one modus ponens line."""

    __slots__ = ("source_index", "premises_boxed", "unfolded", "conjoined",
                 "recombined", "folded")

    def __init__(self, source_index: int, premises_boxed: tuple[Formula, Formula],
                 unfolded: tuple[Formula, Formula], conjoined: Formula,
                 recombined: Formula, folded: Formula):
        self._init(source_index, premises_boxed, unfolded, conjoined, recombined,
                   folded)

    def milestones(self) -> tuple[Formula, ...]:
        return (*self.premises_boxed, *self.unfolded, self.conjoined,
                self.recombined, self.folded)


class ReflectionTrace(Record):
    __slots__ = ("source", "output",
                 "line_map",    # source line -> output line of box<..>
                 "segments",    # source line -> emitted span
                 "mp_chains")

    def __init__(self, source: ProofObject, output: ProofObject,
                 line_map: tuple[tuple[int, int], ...],
                 segments: tuple[tuple[int, int], ...],
                 mp_chains: tuple[MPChainTrace, ...]):
        self._init(source, output, line_map, segments, mp_chains)

    @property
    def conclusion(self) -> Formula:
        return self.output.conclusion


def reflect_theorem(t: TheoryConfig, proof: ProofObject,
                    store: Optional[ProofStore] = None) -> ReflectionTrace:
    """Accepted proof of A -> accepted proof of box<A>, exact box_quote
    conclusion.  The source is accepted (accept) in ``t`` and ``store``
    first, so a Theorem from them is not judged again."""
    if not t.jump_axiom:
        raise KernelError("reflection needs a theory with the jump axiom")
    proof = accept(t, proof, store)
    b = Builder(t, store)
    jump = jump_axiom_of(t)
    boxed: list[int] = []
    segments: list[tuple[int, int]] = []
    chains: list[MPChainTrace] = []
    for idx, (line, record) in enumerate(zip(proof.lines, proof.records)):
        start = len(b.lines)
        a = line.sentence
        if record.rule == "mp":
            chain, out = _reflect_mp(b, proof, idx, line.step, boxed)
            chains.append(chain)
        elif record.rule == "jump":
            src = b.axiom(a)
            out = b.mp(src, b.axiom(capture_axiom(a)))
        elif record.rule.startswith("comp-"):
            src = b.compute(a)
            out = b.mp(src, b.axiom(capture_axiom(a)))
        else:
            out = _reflect_main_axiom(b, t, jump, a)
        s = b.sentence(out)               # box<a>: its argument quotes a's code
        if not (isinstance(s, Box) and quotes_code(s.arg, encode_sentence(a), a.free)):
            raise AssertionError("reflection emitted the wrong box sentence")
        boxed.append(out)
        segments.append((start, len(b.lines)))
    output = b.conclude(boxed[-1])
    return ReflectionTrace(proof, output, tuple(enumerate(boxed)),
                           tuple(segments), tuple(chains))


def _reflect_main_axiom(b: Builder, t: TheoryConfig, jump: Formula,
                        a: Formula) -> int:
    gn = quote_term(a)
    ax_claim = Rel(f"ax:{t.name}", (gn,))
    c1 = b.compute(ax_claim)
    c2 = b.axiom(jump)
    c3 = b.axiom(Imp(jump, Imp(ax_claim, Box(gn))))   # forall-elim at <code>
    c4 = b.mp(c2, c3)
    return b.mp(c1, c4)


def _reflect_mp(b: Builder, proof: ProofObject, idx: int, step: MPStep,
                boxed: Sequence[int]) -> tuple[MPChainTrace, int]:
    minor, major = proof.lines[step.minor].sentence, proof.lines[step.major].sentence
    m = mp_match(minor, major)
    if m is None:
        raise KernelError("unreconstructible modus ponens line")
    prefix, am, bm = m
    # every formula quoted below but B's foldings is a part of a premise,
    # whose code the premise's own reflection computed: A -> B is the major
    # premise's matrix, and unfold walks each premise's own prefix
    ab = major
    for _ in prefix:
        ab = ab.body
    bi, bj = boxed[step.minor], boxed[step.major]
    premises = (b.sentence(bi), b.sentence(bj))

    if not prefix:
        ax5 = b.axiom(Imp(Box(quote_term(ab)), Imp(Box(quote_term(am)), Box(quote_term(bm)))))
        x = b.mp(bj, ax5)
        out = b.mp(bi, x)
        chain = MPChainTrace(idx, premises, premises,
                             b.sentence(out), b.sentence(out), b.sentence(out))
        return chain, out

    # unfold the quantifiers through box, one variable at a time
    def unfold(cur: int, q: Formula) -> int:
        # q is the premise (forall prefix) C, then each body down to C
        for i, v in enumerate(prefix):
            ax = b.axiom(close_over(prefix[:i], Imp(Box(quote_term(q)),
                                                    Forall(v, Box(quote_term(q.body))))))
            cur = b.mp(cur, ax)
            q = q.body
        return cur

    u = unfold(bi, minor)                    # (prefix) box<A>
    v_ = unfold(bj, major)                   # (prefix) box<A -> B>
    unfolded = (b.sentence(u), b.sentence(v_))
    w = conj(b, prefix, u, v_)               # (prefix)(box<A> and box<A->B>)
    chi = And(Box(quote_term(am)), Box(quote_term(ab)))
    el = b.axiom(close_over(prefix, Imp(chi, chi.left)))
    er = b.axiom(close_over(prefix, Imp(chi, chi.right)))
    a5 = b.axiom(close_over(prefix, Imp(Box(quote_term(ab)),
                                        Imp(Box(quote_term(am)), Box(quote_term(bm))))))
    s1 = syllogism(b, prefix, er, a5)        # chi -> (box<A> -> box<B>)
    s2 = apply_s(b, prefix, s1, el)          # chi -> box<B>
    cur = b.mp(w, s2)                        # (prefix) box<B>
    recombined = b.sentence(cur)

    # fold the quantifiers back under a single box
    for i in range(len(prefix) - 1, -1, -1):
        v = prefix[i]
        outer = prefix[:i]
        inner = close_over(prefix[i + 1:], bm)
        ax = b.axiom(close_over(outer,
                                Imp(Forall(v, Box(quote_term(inner))),
                                    Box(quote_term(Forall(v, inner))))))
        cur = b.mp(cur, ax)
    chain = MPChainTrace(idx, premises, unfolded, b.sentence(w),
                         recombined, b.sentence(cur))
    return chain, cur


def reflect_iterated(t: TheoryConfig, proof: ProofObject, k: int,
                     store: Optional[ProofStore] = None) -> ProofObject:
    """The source accepted (accept) in ``t`` and ``store``, then reflected k
    times; k = 0 returns the accepted source.  Each stage's output is a
    Theorem, which the next stage does not judge again."""
    if k < 0:
        raise KernelError("iteration count must be >= 0")
    out = accept(t, proof, store)
    for _ in range(k):
        out = reflect_theorem(t, out, store).output
    return out


def consistency_predicate(t: TheoryConfig) -> Formula:
    """The designated arithmetization of 'g is not the code of a proof of
    0 = 1 in this theory', as an open formula over codes in g."""
    falsum_numeral = numeral_of(encode_sentence(FALSUM))
    return neg(Rel(f"proofof:{t.name}", (Var("g"), falsum_numeral)))


def assertible_consistency_instance(t: TheoryConfig, g: int,
                                    store: Optional[ProofStore] = None) -> ProofObject:
    """A checked proof of box<A(<g>)>, A the designated consistency
    predicate: the computation axiom for the instance plus capture."""
    falsum_code = encode_sentence(FALSUM)
    if proof_code_valid(t, g, falsum_code):
        raise KernelError(
            f"{g} codes a proof of 0 = 1 in {t.name}; the base is unsound")
    claim = neg(Rel(f"proofof:{t.name}",
                    (numeral_of(g), numeral_of(falsum_code))))
    b = Builder(t, store)
    i1 = b.compute(claim)
    out = b.mp(i1, b.axiom(capture_axiom(claim)))
    if b.sentence(out) != box_quote(claim):
        raise AssertionError("wrong conclusion in consistency instance")
    return b.checked_proof()
