"""Licensing engine and agent-delegation machinery.

A policy maps criterion sentences to opaque action identifiers.  Licensing
obeys the box rule: a criterion's assertibility quote, to any depth, grants
the same actions as the criterion itself.  Nothing else is ever stripped:
provability atoms, implications, and quantifiers around a criterion license
nothing.  Agent criteria of the form

    act_i(n) -> box (iterbox kappa_i <goal>)

deliberately opt out of box stripping (exact match only): graded criteria do
not respect the box rule.

The delegation derivation licenses agent i to activate agent i+1.  It runs
from three named hypotheses: the successor's licensing condition, activation
implies some action, and the universal soundness sentence
(forall g)(prov g -> box g), whose internal proof is out of the kernel's
scope.  The chain combines the hypotheses, applies soundness under the
quantifier, pushes the box through the existential and the conjunction,
collapses the nested quote with the iterbox defining axioms, and finally
rewrites kappa_{i+1} + 1 to kappa_i by equality replacement.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Kappa, Or, Rel, Succ,
    Term, Var,
    FALSUM, Tokens, box_quote, close_over, encode_sentence,
    eval_term, fmt, neg, numeral_of, parse_formula_stream, quote_term,
    strip_box, substitute,
)
from .kernel import (
    Builder, KernelError, ProofObject, ProofStore, Record, TheoryConfig,
    capture_axiom, extend_theory, sbox_pa,
)
from .reflection import reflect_theorem
from .derive import (
    absorb_proof, apply_s, cases, identity, k_lift, push_inside, syllogism,
)

__all__ = [
    "PolicyEntry", "LicensingPolicy", "licenses", "SCENARIOS",
    "AgentSpec", "finite_fragment_model",
    "TrustDemoResult", "trust_demo", "too_much_demo",
    "DelegationResult", "delegation_derivation",
    "policy_to_sexp", "policy_from_sexp",
]


# ---------------------------------------------------------------------------
# Policies and the box rule
# ---------------------------------------------------------------------------

class PolicyEntry(Record):
    __slots__ = ("criterion", "action",
                 "box_rule")   # False: exact match only (graded agent criteria)

    def __init__(self, criterion: Formula, action: str, box_rule: bool = True):
        if criterion.free:
            raise KernelError("licensing criteria must be sentences")
        if not action:
            raise KernelError("action identifiers must be nonempty")
        self._init(criterion, action, box_rule)


class LicensingPolicy(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[PolicyEntry, ...]):
        pairs = {(e.criterion, e.action) for e in entries}
        if len(pairs) != len(entries):
            raise KernelError("duplicate (criterion, action) pair in policy")
        self._init(entries)

    @staticmethod
    def of(*pairs: tuple[Formula, str], box_rule: bool = True) -> "LicensingPolicy":
        return LicensingPolicy(tuple(PolicyEntry(c, a, box_rule) for c, a in pairs))


def licenses(policy: LicensingPolicy, proved: Formula,
             store: ProofStore) -> set[str]:
    """Actions licensed by a proved sentence: box quotes are peeled (box rule)
    and each peel is matched against the criteria; exact-match entries ignore
    the peeling.  The sentence must have a registered accepted proof."""
    if not store.has_code(encode_sentence(proved)):
        raise KernelError("no registered proof of " + fmt(proved))
    peels = [proved]
    probe: Optional[Formula] = proved
    while True:
        probe = strip_box(probe)
        if probe is None:
            break
        peels.append(probe)
    out = set()
    for entry in policy.entries:
        if entry.box_rule:
            if any(p == entry.criterion for p in peels):
                out.add(entry.action)
        elif proved == entry.criterion:
            out.add(entry.action)
    return out


def policy_to_sexp(policy: LicensingPolicy) -> str:
    rows = ["(policy"]
    for e in policy.entries:
        flag = "" if e.box_rule else " exact"
        rows.append(f"  (entry {fmt(e.criterion)} {e.action}{flag})")
    rows.append(")")
    return "\n".join(rows)


def policy_from_sexp(text: str) -> LicensingPolicy:
    ts = Tokens(text)
    ts.expect("(")
    ts.expect("policy")
    entries = []
    while True:
        tok = ts.next()
        if tok == ")":
            break
        if tok != "(":
            raise ts.error(f"expected (entry ...), found {tok!r}")
        ts.expect("entry")
        criterion = parse_formula_stream(ts)
        action = ts.next()
        if action in ("(", ")"):
            raise ts.error("expected an action identifier")
        box_rule = True
        tok = ts.next()
        if tok == "exact":
            box_rule = False
            tok = ts.next()
        if tok != ")":
            raise ts.error("expected end of entry")
        entries.append(PolicyEntry(criterion, action, box_rule))
    ts.finish()
    return LicensingPolicy(tuple(entries))


# ---------------------------------------------------------------------------
# Agent specifications and the kappa-graded theory
# ---------------------------------------------------------------------------

GOAL = Rel("gamma", ())


class AgentSpec(Record):
    """Agent i acts only when acting provably reaches the goal at grade
    kappa_i."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise KernelError("agent indices start at 1")
        self._init(index)

    def action_atom(self, t: Term) -> Formula:
        return Rel(f"act{self.index}", (t,))

    def graded_goal(self) -> Formula:
        return Box(Fn("iterbox", (Kappa(self.index), _goal_numeral())))

    def criterion(self, n: int) -> Formula:
        return Imp(self.action_atom(numeral_of(n)), self.graded_goal())

    def open_criterion(self) -> Formula:
        """The criterion over the free variable n."""
        return Imp(self.action_atom(Var("n")), self.graded_goal())

    def policy(self, n: int, action: str) -> LicensingPolicy:
        # graded criteria do not respect the box rule: exact match only
        return LicensingPolicy.of((self.criterion(n), action), box_rule=False)


def _goal_numeral() -> Term:
    return numeral_of(encode_sentence(GOAL))


def finite_fragment_model(j: int) -> dict[int, int]:
    """A numeric assignment validating every kappa axiom of the j-constant
    fragment under term evaluation: kappa_i maps to j - i."""
    env = {i: j - i for i in range(1, j + 1)}
    for i in range(1, j):
        axiom = Eq(Kappa(i), Succ(Kappa(i + 1)))
        if eval_term(axiom.left, env) != eval_term(axiom.right, env):
            raise AssertionError(f"fragment model fails {fmt(axiom)}")
    return env


# ---------------------------------------------------------------------------
# Trust scenarios
# ---------------------------------------------------------------------------

class TrustDemoResult(Record):
    __slots__ = ("scenario", "theory", "hypotheses", "proof", "milestones",
                 "policy", "licensed", "evidence")

    def __init__(self, scenario: str, theory: str, hypotheses: tuple[Formula, ...],
                 proof: ProofObject, milestones: tuple[Formula, ...],
                 policy: LicensingPolicy, licensed: frozenset[str],
                 evidence: tuple[Formula, ...] = ()):
        self._init(scenario, theory, hypotheses, proof, milestones, policy,
                   licensed, evidence)

    def manifest(self) -> list[dict]:
        rows = [{"kind": "demo", "scenario": self.scenario, "theory": self.theory,
                 "conclusion": fmt(self.proof.conclusion),
                 "licensed": sorted(self.licensed)}]
        rows += [{"kind": "hypothesis", "sentence": fmt(h)} for h in self.hypotheses]
        rows += [{"kind": "milestone", "sentence": fmt(m)} for m in self.milestones]
        rows += [{"kind": "evidence", "sentence": fmt(e)} for e in self.evidence]
        return rows


SCENARIOS = ("naturalistic", "reflective", "coherent", "disjunctive")

_A0 = Forall("x", Eq(Var("x"), Var("x")))
_ACTION = "alpha-0"


def _register_fixture(t: TheoryConfig, store: ProofStore) -> ProofObject:
    b = Builder(t, store)
    b.axiom(_A0)
    proof = b.checked_proof()
    store.register(t, proof)
    return proof


def trust_demo(scenario: str, store: ProofStore) -> TrustDemoResult:
    """Mechanized resolution of one trust paradox in sbox-pa.  The fixture (a
    registered proof of the actionable sentence) is installed when the store
    lacks it."""
    t = sbox_pa()
    if scenario in ("naturalistic", "reflective"):
        return _direct_trust(scenario, t, store)
    if scenario == "coherent":
        return _coherent_trust(t, store)
    if scenario == "disjunctive":
        return _disjunctive_trust(t, store)
    raise KernelError(f"unknown scenario {scenario!r}; pick one of {SCENARIOS}")


def _require_fixture(t: TheoryConfig, store: ProofStore) -> int:
    g = encode_sentence(_A0)
    if not store.has(t.name, g):
        _register_fixture(t, store)
    return g


def _direct_trust(scenario: str, t: TheoryConfig, store: ProofStore) -> TrustDemoResult:
    """An assistant (or an earlier self) supplied a proof of the actionable
    sentence; reflection turns it into assertibility, which licenses.  The
    reflected proof is registered, and a registered proof of box<A0> is
    reused rather than made and judged again."""
    g = _require_fixture(t, store)
    reflected = store.get(t.name, encode_sentence(box_quote(_A0)))
    if reflected is None:
        reflected = reflect_theorem(t, store.get(t.name, g), store).output
        store.register(t, reflected)
    milestones: list[Formula] = []
    proof: ProofObject = reflected
    if scenario == "reflective":
        # knowing provability alone is already actionable: prov<A0> holds by
        # computation and implies box<A0> by weakening the reflected proof
        prov = Rel(f"prov:{t.name}", (numeral_of(g),))
        b = Builder(t, store)
        i1 = b.compute(prov)
        i2 = absorb_proof(b, reflected)
        x = k_lift(b, (), prov, i2)
        proof = b.conclude(b.mp(i1, x))
        milestones.append(Imp(prov, box_quote(_A0)))
    policy = LicensingPolicy.of((_A0, _ACTION))
    granted = licenses(policy, box_quote(_A0), store)
    return TrustDemoResult(scenario, t.name, (), proof,
                           (box_quote(_A0), *milestones), policy,
                           frozenset(granted))


def _coherent_trust(t: TheoryConfig, store: ProofStore) -> TrustDemoResult:
    """From (forall n) prov<A(n)> and the soundness hypothesis, conclude
    box<(forall n) A(n)> through the box-forall axiom."""
    body = Eq(Var("n"), Var("n"))                      # A(n)
    all_a = Forall("n", body)
    q = quote_term(body)                               # (sub <code A> n)
    prov_inst = Rel(f"prov:{t.name}", (q,))
    h1 = Forall("n", prov_inst)
    u = _soundness_sentence(t)
    demo = extend_theory(t, f"{t.name}-demo-coherent", (h1, u))

    b = Builder(demo, store)
    d5 = _sound_under_n(b, u, prov_inst, q)            # (forall n)(prov -> box)
    d6 = b.axiom(h1)
    d7 = b.mp(d6, d5)                                  # (forall n) box<A(n)>
    d8 = b.axiom(Imp(Forall("n", Box(q)), box_quote(all_a)))   # box-forall
    proof = b.conclude(b.mp(d7, d8))
    store.register(demo, proof)

    # instance-wise evidence that the soundness hypothesis is per-instance
    # realizable: for sampled n, a registered proof of A(n) yields prov and,
    # by reflection, box
    evidence = []
    for n in range(4):
        inst = substitute(body, "n", numeral_of(n))
        ib = Builder(t, store)
        ib.compute(inst)
        ip = ib.checked_proof()
        gi = store.register(t, ip)
        reflect_theorem(t, ip, store)
        evidence.append(Rel(f"prov:{t.name}", (numeral_of(gi),)))

    policy = LicensingPolicy.of((all_a, _ACTION))
    granted = licenses(policy, proof.conclusion, store)
    return TrustDemoResult("coherent", demo.name, (h1, u), proof,
                           (b.sentence(d5), b.sentence(d7), proof.conclusion),
                           policy, frozenset(granted), tuple(evidence))


def _disjunctive_trust(t: TheoryConfig, store: ProofStore) -> TrustDemoResult:
    """From A0 or prov<A0>, conclude box<A0> by cases: capture on the left,
    the reflected registered proof on the right."""
    g = _require_fixture(t, store)
    prov = Rel(f"prov:{t.name}", (numeral_of(g),))
    h = Or(_A0, prov)
    demo = extend_theory(t, f"{t.name}-demo-disjunctive", (h,))
    box_a = box_quote(_A0)

    b = Builder(demo, store)
    i_h = b.axiom(h)
    # prov<A0> -> box<A0>: computation plus reflection inside the demo theory
    i_prov = b.compute(prov)
    fb = Builder(demo, store)
    fb.axiom(_A0)
    i_box = absorb_proof(b, reflect_theorem(demo, fb.checked_proof(), store).output)
    i_pb = k_lift(b, (), prov, i_box)                  # prov -> box<A0>
    # step 1: (A0 or prov) -> (A0 or box<A0>)
    mid = Or(_A0, box_a)
    o1 = b.axiom(Imp(_A0, mid))
    o2 = b.axiom(Imp(box_a, mid))
    i_pm = syllogism(b, (), i_pb, o2)                  # prov -> mid
    s1 = cases(b, (), o1, i_pm)                        # h -> mid
    i_mid = b.mp(i_h, s1)
    # step 2: (A0 or box<A0>) -> (box<A0> or box<A0>)
    both = Or(box_a, box_a)
    i_cap = b.axiom(capture_axiom(_A0))
    o3 = b.axiom(Imp(box_a, both))
    i_cm = syllogism(b, (), i_cap, o3)                 # A0 -> both
    s2 = cases(b, (), i_cm, o3)                        # mid -> both
    i_both = b.mp(i_mid, s2)
    # step 3: contract the disjunction
    i_id = identity(b, (), box_a)
    s3 = cases(b, (), i_id, i_id)                      # both -> box<A0>
    proof = b.conclude(b.mp(i_both, s3))
    store.register(demo, proof)

    policy = LicensingPolicy.of((_A0, _ACTION))
    granted = licenses(policy, box_a, store)
    milestones = (h, mid, both, box_a)
    return TrustDemoResult("disjunctive", demo.name, (h,), proof, milestones,
                           policy, frozenset(granted))


def _soundness_sentence(t: TheoryConfig) -> Formula:
    return Forall("g", Imp(Rel(f"prov:{t.name}", (Var("g"),)), Box(Var("g"))))


def _sound_under_n(b: Builder, u: Formula, prov_q: Formula, q: Term) -> int:
    """(forall n)(prov_q -> box q) from the soundness sentence u: forall-elim
    of u under n, pushed inside by the generalization implication, then
    modus ponens with u itself."""
    w = Imp(prov_q, Box(q))
    d1 = b.axiom(close_over(("n",), Imp(u, w)))        # forall-elim under n
    d2 = push_inside(b, (), d1)                        # u -> (forall n) w
    return b.mp(b.axiom(u), d2)


def too_much_demo(store: ProofStore) -> TrustDemoResult:
    """The negative control: a provable implication between provability
    claims does not license the action tied to the claim with the
    provability predicates removed."""
    t = sbox_pa()
    falsum_n = numeral_of(encode_sentence(FALSUM))
    con = neg(Rel("prov:pa", (falsum_n,)))             # consistency sentence
    criterion = Imp(con, FALSUM)
    proved = Imp(Rel("prov:pa", (numeral_of(encode_sentence(con)),)),
                 Rel("prov:pa", (falsum_n,)))
    demo = extend_theory(t, f"{t.name}-demo-toomuch", (proved,))
    b = Builder(demo, store)
    proof = b.conclude(b.axiom(proved))
    store.register(demo, proof)
    policy = LicensingPolicy.of((criterion, "alpha"))
    granted = licenses(policy, proved, store)
    return TrustDemoResult("too-much", demo.name, (proved,), proof,
                           (criterion, proved), policy, frozenset(granted))


# ---------------------------------------------------------------------------
# Delegation
# ---------------------------------------------------------------------------

class DelegationResult(Record):
    __slots__ = ("level", "action_index", "theory", "hypotheses", "proof",
                 "milestones", "policy", "licensed")

    def __init__(self, level: int, action_index: int, theory: str,
                 hypotheses: tuple[Formula, ...], proof: ProofObject,
                 milestones: tuple[Formula, ...], policy: LicensingPolicy,
                 licensed: frozenset[str]):
        self._init(level, action_index, theory, hypotheses, proof, milestones,
                   policy, licensed)

    def manifest(self) -> list[dict]:
        rows = [{"kind": "delegation", "level": self.level,
                 "theory": self.theory,
                 "conclusion": fmt(self.proof.conclusion),
                 "licensed": sorted(self.licensed)}]
        rows += [{"kind": "hypothesis", "sentence": fmt(h)} for h in self.hypotheses]
        rows += [{"kind": "milestone", "sentence": fmt(m)} for m in self.milestones]
        return rows


def delegation_derivation(t: TheoryConfig, n0: int, level: int = 1,
                          store: Optional[ProofStore] = None) -> DelegationResult:
    """Checked derivation that activating the successor agent is licensed:
    the conclusion is exactly act_i(<n0>) -> box (iterbox kappa_i <goal>)."""
    i, j = level, level + 1
    if t.kappa_count < j:
        raise KernelError(
            f"delegation at level {level} needs kappa constants up to {j}; "
            f"theory {t.name} has {t.kappa_count}")
    store = store if store is not None else ProofStore()
    me, successor = AgentSpec(i), AgentSpec(j)
    gG = _goal_numeral()

    act1_n0 = me.action_atom(numeral_of(n0))
    act2 = successor.action_atom(Var("n"))
    psi = successor.open_criterion()                   # act_j(n) -> graded goal
    q = quote_term(psi)
    prov_q = Rel(f"prov:{t.name}", (q,))
    h1 = Forall("n", Imp(act2, prov_q))
    h2 = Imp(act1_n0, Exists("n", act2))
    u = _soundness_sentence(t)
    demo = extend_theory(t, f"{t.name}-delegation-l{level}-n{n0}", (h1, h2, u))
    nvec = ("n",)

    b = Builder(demo, store)
    milestones: list[Formula] = []

    # combine the two hypotheses: act1(n0) -> (exists n)(act2 and prov<psi(n)>)
    chi = And(act2, prov_q)
    a1 = b.axiom(h1)
    ai = b.axiom(close_over(nvec, Imp(act2, Imp(prov_q, chi))))
    a2 = apply_s(b, nvec, ai, a1)                      # act2 -> chi
    e1 = b.axiom(close_over(nvec, Imp(chi, Exists("n", chi))))
    a3 = syllogism(b, nvec, a2, e1)
    ge = b.axiom(Imp(Forall("n", Imp(act2, Exists("n", chi))),
                     Imp(Exists("n", act2), Exists("n", chi))))
    a4 = b.mp(a3, ge)
    a5 = b.axiom(h2)
    a6 = syllogism(b, (), a5, a4)
    milestones.append(b.sentence(a6))

    # soundness under the quantifier: (forall n)(prov<psi(n)> -> box<psi(n)>)
    d5 = _sound_under_n(b, u, prov_q, q)

    # monotone step under the existential: chi -> chi'
    chi2 = And(act2, Box(q))
    el = b.axiom(close_over(nvec, Imp(chi, act2)))
    er = b.axiom(close_over(nvec, Imp(chi, prov_q)))
    m1 = syllogism(b, nvec, er, d5)                    # chi -> box<psi(n)>
    ai2 = b.axiom(close_over(nvec, Imp(act2, Imp(Box(q), chi2))))
    m2 = syllogism(b, nvec, el, ai2)
    m3 = apply_s(b, nvec, m2, m1)                      # chi -> chi'
    e2 = b.axiom(close_over(nvec, Imp(chi2, Exists("n", chi2))))
    m4 = syllogism(b, nvec, m3, e2)
    ge2 = b.axiom(Imp(Forall("n", Imp(chi, Exists("n", chi2))),
                      Imp(Exists("n", chi), Exists("n", chi2))))
    m5 = b.mp(m4, ge2)
    a7 = syllogism(b, (), a6, m5)
    milestones.append(b.sentence(a7))

    # push the box through the conjunction and the existential
    sigma_m = And(act2, psi)
    sigma = Exists("n", sigma_m)
    cap_act = b.axiom(capture_axiom(act2))             # act2 -> box<act2(n)>
    qa = quote_term(act2)
    p1 = b.axiom(close_over(nvec, Imp(chi2, act2)))
    p2 = b.axiom(close_over(nvec, Imp(chi2, Box(q))))
    p3 = syllogism(b, nvec, p1, cap_act)               # chi' -> box<act2(n)>
    bb = And(Box(qa), Box(q))
    ai3 = b.axiom(close_over(nvec, Imp(Box(qa), Imp(Box(q), bb))))
    p4 = syllogism(b, nvec, p3, ai3)
    p5 = apply_s(b, nvec, p4, p2)                      # chi' -> box.. and box..
    bw = b.axiom(close_over(nvec, Imp(bb, Box(quote_term(sigma_m)))))
    p6 = syllogism(b, nvec, p5, bw)                    # chi' -> box<sigma_m(n)>
    e3 = b.axiom(close_over(nvec, Imp(Box(quote_term(sigma_m)),
                                      Exists("n", Box(quote_term(sigma_m))))))
    p7 = syllogism(b, nvec, p6, e3)
    ge3 = b.axiom(Imp(Forall("n", Imp(chi2, Exists("n", Box(quote_term(sigma_m))))),
                      Imp(Exists("n", chi2), Exists("n", Box(quote_term(sigma_m))))))
    p8 = b.mp(p7, ge3)
    bex = b.axiom(Imp(Exists("n", Box(quote_term(sigma_m)))
                      , box_quote(sigma)))
    p9 = syllogism(b, (), p8, bex)
    a8 = syllogism(b, (), a7, p9)                      # act1(n0) -> box<sigma>
    milestones.append(b.sentence(a8))

    # internal modus ponens: box<sigma -> graded goal> via capture
    goal_j = successor.graded_goal()
    th_el = b.axiom(close_over(nvec, Imp(sigma_m, act2)))
    th_er = b.axiom(close_over(nvec, Imp(sigma_m, psi)))
    th_1 = apply_s(b, nvec, th_er, th_el)              # sigma_m -> graded goal
    ge4 = b.axiom(Imp(Forall("n", Imp(sigma_m, goal_j)),
                      Imp(sigma, goal_j)))
    theta = b.mp(th_1, ge4)                            # sigma -> graded goal
    cap_t = b.axiom(capture_axiom(b.sentence(theta)))
    bt = b.mp(theta, cap_t)                            # box<theta>
    a5x = b.axiom(Imp(Box(quote_term(Imp(sigma, goal_j))),
                      Imp(Box(quote_term(sigma)), Box(quote_term(goal_j)))))
    x1 = b.mp(bt, a5x)
    a9 = syllogism(b, (), a8, x1)                      # act1 -> box<box iterbox..>
    milestones.append(b.sentence(a9))

    # collapse the quoted box and rewrite the grade
    tj = Fn("iterbox", (Kappa(j), gG))
    nb = Fn("numboxed", (tj,))
    col = b.axiom(Imp(Box(numeral_of(encode_sentence(Box(tj)))), Box(nb)))
    a10 = syllogism(b, (), a9, col)
    ti = Fn("iterbox", (Kappa(i), gG))
    ts = Fn("iterbox", (Succ(Kappa(j)), gG))
    dd = b.axiom(Eq(ts, nb))                           # iterbox-succ
    kax = b.axiom(Eq(Kappa(i), Succ(Kappa(j))))        # kappa axiom
    rf = b.axiom(Eq(ti, ti))
    lb1 = b.axiom(Imp(Eq(Kappa(i), Succ(Kappa(j))), Imp(Eq(ti, ti), Eq(ti, ts))))
    x2 = b.mp(kax, lb1)
    x3 = b.mp(rf, x2)                                  # ti = ts
    tr_ = b.axiom(Imp(Eq(ti, ts), Imp(Eq(ts, nb), Eq(ti, nb))))
    x4 = b.mp(x3, tr_)
    x5 = b.mp(dd, x4)                                  # ti = nb
    sy = b.axiom(Imp(Eq(ti, nb), Eq(nb, ti)))
    x6 = b.mp(x5, sy)
    lb2 = b.axiom(Imp(Eq(nb, ti), Imp(Box(nb), Box(ti))))
    x7 = b.mp(x6, lb2)
    final = syllogism(b, (), a10, x7)
    milestones.append(b.sentence(final))
    if b.sentence(final) != me.criterion(n0):
        raise AssertionError("delegation reached the wrong conclusion")
    proof = b.conclude(final)
    store.register(demo, proof)
    action = f"activate-m{j}"
    policy = me.policy(n0, action)
    granted = licenses(policy, proof.conclusion, store)
    return DelegationResult(level, n0, demo.name, (h1, h2, u), proof,
                            tuple(milestones), policy, frozenset(granted))
