"""Proof checking: axioms, trusted computations, quantified modus ponens,
and the deduction theorem.

Run:  python demos/02_checking_proofs.py
"""

from asrt.syntax import (
    FALSUM, Imp, Or, close_over, fmt, parse_formula, parse_sentence,
)
from asrt.kernel import Builder, check_proof, proof_to_sexp, sbox_pa
from asrt.derive import discharge_hypothesis

t = sbox_pa()

# A proof is a sequence of closed sentences. The only rule is modus ponens
# under a shared universal prefix. Here: from (forall n)(n = n) and
# (forall n)(n = n -> n = n or 0 = 1), infer (forall n)(n = n or 0 = 1).
nn = parse_formula("(= n n)")
b = Builder(t)
i1 = b.axiom(parse_sentence("(forall n (= n n))"))
i2 = b.axiom(close_over(("n",), Imp(nn, Or(nn, FALSUM))))
b.mp(i1, i2)
proof = b.checked_proof()
print(proof_to_sexp(proof))

report = check_proof(t, proof)
print("accepted:", report.accepted)
for record in report.records:
    print("  line", record.index, "by", record.rule)

# Decidable closed claims enter as computation axioms backed by the trusted
# evaluator -- and false ones do not.
b = Builder(t)
b.compute(parse_sentence("(= (* 25 25) 625)"))
print("computation accepted:", check_proof(t, b.proof()).accepted)

# Release is not an axiom: the kernel refuses box<A> -> A.
from asrt.kernel import is_axiom
from asrt.syntax import box_quote
a0 = parse_sentence("(= 0 0)")
print("release recognized as axiom:", is_axiom(t, Imp(box_quote(a0), a0)))

# The deduction theorem compiles "assume H ... conclude C" into H -> C using
# only intuitionistic schemes. The derivation is built like any proof, plus
# hyp lines stating H; the checker judges each line when H is discharged.
h = parse_sentence("(forall n (not (= n n)))")   # an absurd hypothesis
d = Builder(t)
d.mp(d.axiom(parse_sentence("(forall n (= n n))")), d.hyp(h))
discharged = discharge_hypothesis(t, h, d.proof())
print("discharged:", fmt(discharged.conclusion))
print("lines:", len(discharged.lines), "accepted:",
      check_proof(t, discharged).accepted)
