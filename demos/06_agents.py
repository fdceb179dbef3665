"""Licensing and delegation: the box rule, the four trust scenarios, the
negative control, and the graded delegation chain.

Run:  python demos/06_agents.py
"""

from asrt.syntax import box_quote, encode_sentence, fmt, parse_sentence
from asrt.kernel import Builder, ProofStore, sbox_pa, sstar
from asrt.reflection import reflect_theorem
from asrt.agency import (
    SCENARIOS, LicensingPolicy, delegation_derivation, licenses,
    too_much_demo, trust_demo,
)

t = sbox_pa()
store = ProofStore()

# A policy maps criterion sentences to actions. The box rule: a quotation of
# a criterion licenses the same actions.
a0 = parse_sentence("(forall x (= x x))")
policy = LicensingPolicy.of((a0, "alpha-0"))
b = Builder(t, store)
b.axiom(a0)
proof = b.checked_proof()
store.register(t, proof)
boxed = reflect_theorem(t, proof, store).output
store.register(t, boxed)
print("A0 licenses:       ", sorted(licenses(policy, a0, store)))
print("box<A0> licenses:  ", sorted(licenses(policy, box_quote(a0), store)))

# Provability alone licenses nothing -- one must pass through assertibility.
from asrt.syntax import Rel, numeral_of
prov = Rel("prov:sbox-pa", (numeral_of(encode_sentence(a0)),))
bb = Builder(t, store)
bb.compute(prov)
store.register(t, bb.checked_proof())
print("prov<A0> licenses: ", sorted(licenses(policy, prov, store)))
print()

# The four trust scenarios, each ending in a licensed action.
for scenario in SCENARIOS:
    result = trust_demo(scenario, ProofStore())
    print(f"{scenario:13s} -> {fmt(result.proof.conclusion)[:46]:46s} "
          f"licenses {sorted(result.licensed)}")
print()

# Negative control: a provable implication between provability claims does
# not license the action tied to the implication with the provability
# predicates removed.
negative = too_much_demo(ProofStore())
print("negative control licenses:", sorted(negative.licensed), "(empty is right)")
print()

# Delegation: agent 1, licensed by act1(n) -> box^(kappa_1)<goal>, proves
# that activating agent 2 meets its own criterion, from three hypotheses:
# agent 2's licensing condition, activation-implies-action, and universal
# soundness.
result = delegation_derivation(sstar(2), 7)
print("delegation hypotheses:")
for h in result.hypotheses:
    print("   ", fmt(h)[:86])
print("chain milestones:")
for m in result.milestones:
    print("   ", fmt(m)[:86])
print("conclusion:", fmt(result.proof.conclusion))
print("licensed:  ", sorted(result.licensed))

# The graded criteria are exact-match: their quotations license nothing.
st = ProofStore()
r2 = delegation_derivation(sstar(2), 7, store=st)
t2 = st.theory(r2.theory)
boxed2 = reflect_theorem(t2, r2.proof, st).output
st.register(t2, boxed2)
print("boxed criterion licenses:", sorted(licenses(r2.policy, boxed2.conclusion, st)),
      "(graded criteria do not follow the box rule)")
