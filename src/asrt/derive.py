"""Derived rules: proof construction outside the trusted core.

Every rule here is a function whose first argument is a kernel Builder.  It
appends axiom, computation and modus ponens lines and judges none of them;
a finished proof leaves the Builder only through kernel.accept, which
judges it.  So a fault in this module can make a construction fail, never
make a proof accepted.  Where one rule repeats another it calls it, so the
combinator plumbing has one implementation.  With (p) for the closure
prefix (forall p1) ... (forall pk), k >= 0:

    k_lift       (p) M                              |-  (p)(h -> M)
    apply_s      (p)(P -> (Q -> R)),  (p)(P -> Q)   |-  (p)(P -> R)
    syllogism    (p)(P -> Q),  (p)(Q -> R)          |-  (p)(P -> R)
    identity                                        |-  (p)(P -> P)
    conj         (p) A,  (p) B                      |-  (p)(A and B)
    cases        (p)(A -> C),  (p)(B -> C)          |-  (p)((A or B) -> C)
    push_inside  (p)(forall v)(A -> B), v not in A  |-  (p)(A -> (forall v) B)

A hypothetical derivation is a proof whose (hyp) lines state a closed
hypothesis H.  check_proof accepts such a line only when it is given H,
which only discharge_hypothesis does; the deduction theorem then compiles
the derivation into a proof of H -> C, using dist_lemma to carry H across
quantified modus ponens.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .syntax import And, Forall, Formula, Imp, Or, close_over
from .kernel import (
    Builder, ComputeStep, KernelError, MPStep, ProofObject, ProofStore,
    Theorem, TheoryConfig, _strip_prefix, check_proof, mp_match,
)

__all__ = [
    "InvalidDerivation", "k_lift", "syllogism", "apply_s", "identity", "conj",
    "cases", "push_inside", "dist_lemma", "discharge_hypothesis", "absorb_proof",
]


class InvalidDerivation(KernelError):
    """A hypothetical derivation handed to discharge_hypothesis is broken."""


def k_lift(b: Builder, prefix: Sequence[str], h: Formula, idx: int) -> int:
    """From (forall p) M derive (forall p) (h -> M)."""
    m = _strip_prefix(b.sentence(idx), prefix)
    kx = b.axiom(close_over(prefix, Imp(m, Imp(h, m))))
    return b.mp(idx, kx)


def apply_s(b: Builder, prefix: Sequence[str], i_pqr: int, i_pq: int) -> int:
    """From (forall p)(P -> (Q -> R)) and (forall p)(P -> Q) derive
    (forall p)(P -> R)."""
    pqr = _strip_prefix(b.sentence(i_pqr), prefix)
    p, q, r = pqr.left, pqr.right.left, pqr.right.right
    s1 = b.axiom(close_over(prefix, Imp(Imp(p, Imp(q, r)),
                                        Imp(Imp(p, q), Imp(p, r)))))
    x = b.mp(i_pqr, s1)
    return b.mp(i_pq, x)


def syllogism(b: Builder, prefix: Sequence[str], i_pq: int, i_qr: int) -> int:
    """From (forall p)(P -> Q) and (forall p)(Q -> R) derive
    (forall p)(P -> R)."""
    pq = _strip_prefix(b.sentence(i_pq), prefix)
    qr = _strip_prefix(b.sentence(i_qr), prefix)
    if not (isinstance(pq, Imp) and isinstance(qr, Imp) and pq.right == qr.left):
        raise KernelError("syllogism premises do not chain")
    x1 = k_lift(b, prefix, pq.left, i_qr)           # (P -> (Q -> R))
    return apply_s(b, prefix, x1, i_pq)


def identity(b: Builder, prefix: Sequence[str], p: Formula) -> int:
    """(forall prefix) (p -> p)."""
    target = close_over(prefix, Imp(p, p))
    if target in b._memo:
        return b._memo[target]
    q = Imp(p, p)
    s1 = b.axiom(close_over(prefix, Imp(Imp(p, Imp(q, p)),
                                        Imp(Imp(p, q), Imp(p, p)))))
    k1 = b.axiom(close_over(prefix, Imp(p, Imp(q, p))))
    x = b.mp(k1, s1)
    k2 = b.axiom(close_over(prefix, Imp(p, q)))
    return b.mp(k2, x)


def conj(b: Builder, prefix: Sequence[str], i_a: int, i_b: int) -> int:
    """From (forall p) A and (forall p) B derive (forall p)(A and B)."""
    a = _strip_prefix(b.sentence(i_a), prefix)
    c = _strip_prefix(b.sentence(i_b), prefix)
    ai = b.axiom(close_over(prefix, Imp(a, Imp(c, And(a, c)))))
    x = b.mp(i_a, ai)
    return b.mp(i_b, x)


def cases(b: Builder, prefix: Sequence[str], i_ac: int, i_bc: int) -> int:
    """From (forall p)(A -> C) and (forall p)(B -> C) derive
    (forall p)((A or B) -> C)."""
    ac = _strip_prefix(b.sentence(i_ac), prefix)
    bc = _strip_prefix(b.sentence(i_bc), prefix)
    either = Imp(Or(ac.left, bc.left), ac.right)
    oe = b.axiom(close_over(prefix, Imp(ac, Imp(bc, either))))
    x = b.mp(i_ac, oe)
    return b.mp(i_bc, x)


def push_inside(b: Builder, outer: Sequence[str], i_imp: int) -> int:
    """From (forall outer)(forall v)(A -> B), with v not free in A, derive
    (forall outer)(A -> (forall v) B) via a generalization implication."""
    cur = _strip_prefix(b.sentence(i_imp), outer)
    gi = b.axiom(close_over(outer, Imp(cur, Imp(cur.body.left,
                                                Forall(cur.var, cur.body.right)))))
    return b.mp(i_imp, gi)


def dist_lemma(b: Builder, prefix: Sequence[str], a: Formula, bm: Formula) -> int:
    """Emit a proof of the closed distribution sentence

        (forall p)(A -> B)  ->  ((forall p) A -> (forall p) B)

    built from forall-elim at prefix variables, the combinators, and the
    generalization implications.  Needed to discharge hypotheses across
    quantified modus ponens."""
    prefix = list(prefix)
    if not prefix:
        raise KernelError("dist_lemma needs a nonempty prefix")
    y0 = close_over(prefix, Imp(a, bm))
    x0 = close_over(prefix, a)

    # (forall prefix)(Y0 -> (A -> B)) and (forall prefix)(X0 -> A), by
    # chaining forall-elim at the prefix variables themselves
    def chain(closed: Formula, matrix: Formula) -> int:
        idx = None
        cur = closed
        for v in prefix:
            nxt = _strip_prefix(cur, (v,))
            step = b.axiom(close_over(prefix, Imp(cur, nxt)))
            idx = step if idx is None else syllogism(b, prefix, idx, step)
            cur = nxt
        assert cur == matrix
        return idx

    c1 = chain(y0, Imp(a, bm))
    c2 = chain(x0, a)

    # (prefix)(Y0 -> (X0 -> B)): compose c1 and c2 pointwise
    kx = b.axiom(close_over(prefix, Imp(Imp(a, bm), Imp(x0, Imp(a, bm)))))
    sx = b.axiom(close_over(prefix, Imp(Imp(x0, Imp(a, bm)),
                                        Imp(Imp(x0, a), Imp(x0, bm)))))
    lift = syllogism(b, prefix, kx, sx)   # (A -> B) -> ((X0 -> A) -> (X0 -> B))
    step = syllogism(b, prefix, c1, lift)  # Y0 -> ((X0 -> A) -> (X0 -> B))
    c2y = k_lift(b, prefix, y0, c2)       # Y0 -> (X0 -> A)
    d = apply_s(b, prefix, step, c2y)     # (prefix)(Y0 -> (X0 -> B))

    # peel the prefix off innermost-first; each peeled quantifier lands
    # directly around the consequent, so the original order is preserved
    inner: Formula = bm
    rest = list(prefix)
    while rest:
        v = rest.pop()
        d = push_inside(b, rest, d)       # (rest)(Y0 -> (forall v)(X0 -> inner))
        gi = b.axiom(close_over(rest, Imp(Forall(v, Imp(x0, inner)),
                                          Imp(x0, Forall(v, inner)))))
        d = syllogism(b, rest, d, gi)
        inner = Forall(v, inner)
    return d


def discharge_hypothesis(t: TheoryConfig, h: Formula, derivation: ProofObject,
                         store: Optional[ProofStore] = None) -> Theorem:
    """Compile a hypothetical derivation (a proof in ``t`` whose (hyp) lines
    state the closed hypothesis ``h``) into a Theorem of h -> C, C the
    derivation's last line.  check_proof judges every derivation line; only
    intuitionistic schemes are used."""
    if h.free:
        raise InvalidDerivation("hypothesis must be closed")
    report = check_proof(t, derivation, store, hypothesis=h)
    if not report.accepted:
        at = "" if report.failed_at is None else f" at line {report.failed_at}"
        raise InvalidDerivation(f"derivation rejected{at}: {report.reason}")
    lines = derivation.lines
    b = Builder(t, store)
    mapped: list[int] = []   # index of h -> L_i in the output
    for line, record in zip(lines, report.records):
        if record.rule == "hyp":
            mapped.append(identity(b, (), h))
        elif record.rule == "mp":
            i, j = line.step.minor, line.step.major
            prefix, am, bm = mp_match(lines[i].sentence, lines[j].sentence)
            # h -> (X0 -> Z0), X0 the minor premise and Z0 the conclusion;
            # under a prefix, dist_lemma turns h -> (major premise) into it
            hxz = mapped[j]
            if prefix:
                hxz = syllogism(b, (), hxz, dist_lemma(b, prefix, am, bm))
            mapped.append(apply_s(b, (), hxz, mapped[i]))
        else:
            # an axiom or computation line, weakened under h
            a = line.sentence
            idx = b.compute(a) if record.rule.startswith("comp-") else b.axiom(a)
            mapped.append(k_lift(b, (), h, idx))
    return b.conclude(mapped[-1])


def absorb_proof(b: Builder, proof: ProofObject) -> int:
    """Replay a proof's lines into a Builder (deduplicated)."""
    remap: dict[int, int] = {}
    for i, line in enumerate(proof.lines):
        s = line.step
        if isinstance(s, MPStep):
            remap[i] = b.mp(remap[s.minor], remap[s.major])
        elif isinstance(s, ComputeStep):
            remap[i] = b.compute(line.sentence)
        else:
            remap[i] = b.axiom(line.sentence)
    return remap[len(proof.lines) - 1]
