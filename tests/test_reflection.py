import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from asrt.syntax import (
    Imp, Or, FALSUM, box_quote, close_over, encode_sentence, fmt,
    parse_formula, parse_sentence, strip_box,
)
from asrt.kernel import (
    Builder, KernelError, check_proof, preset_theory,
    jump_axiom_of, sbox_pa_incon,
)
from asrt.reflection import (
    assertible_consistency_instance, consistency_predicate, reflect_iterated,
    reflect_theorem,
)


def _one_axiom_proof(t, sentence):
    b = Builder(t)
    b.axiom(sentence)
    return b.checked_proof()


def test_reflect_jump_axiom_uses_capture(t_box):
    proof = _one_axiom_proof(t_box, jump_axiom_of(t_box))
    trace = reflect_theorem(t_box, proof)
    assert trace.conclusion == box_quote(jump_axiom_of(t_box))
    rules = {r.rule for r in check_proof(t_box, trace.output).records}
    assert "capture" in rules and "comp-ax" not in rules


def test_reflect_main_axiom_uses_jump(t_box):
    proof = _one_axiom_proof(t_box, parse_sentence("(forall x (= x x))"))
    trace = reflect_theorem(t_box, proof)
    assert trace.conclusion == box_quote(proof.conclusion)
    rules = [r.rule for r in check_proof(t_box, trace.output).records]
    assert "comp-ax" in rules and "jump" in rules and "forall-elim" in rules


def test_reflect_computation_line(t_box):
    b = Builder(t_box)
    b.compute(parse_sentence("(= (+ 2 2) 4)"))
    trace = reflect_theorem(t_box, b.checked_proof())
    assert trace.conclusion == box_quote(parse_sentence("(= (+ 2 2) 4)"))


def test_reflect_mp_chain_has_displayed_milestones(t_box):
    nn = parse_formula("(= n n)")
    orn = Or(nn, FALSUM)
    b = Builder(t_box)
    i1 = b.axiom(parse_sentence("(forall n (= n n))"))
    i2 = b.axiom(close_over(("n",), Imp(nn, orn)))
    b.mp(i1, i2)
    proof = b.checked_proof()
    trace = reflect_theorem(t_box, proof)
    assert trace.conclusion == box_quote(proof.conclusion)
    (chain,) = trace.mp_chains
    # the five displayed stations: boxed premises, unfolded families, the
    # conjunction, the recombined family, the folded conclusion
    b1, b2 = chain.premises_boxed
    assert strip_box(b1) == proof.lines[0].sentence
    assert strip_box(b2) == proof.lines[1].sentence
    u1, u2 = chain.unfolded
    assert fmt(u1).startswith("(forall n (box")
    assert fmt(u2).startswith("(forall n (box")
    assert fmt(chain.conjoined).startswith("(forall n (and (box")
    assert fmt(chain.recombined).startswith("(forall n (box")
    assert chain.folded == box_quote(proof.conclusion)
    assert check_proof(t_box, trace.output).accepted


def test_reflect_requires_jump_theory(t_pa):
    proof = _one_axiom_proof(t_pa, parse_sentence("(forall x (= x x))"))
    with pytest.raises(KernelError):
        reflect_theorem(t_pa, proof)


def test_reflect_rejects_rejected_source(t_box):
    from asrt.kernel import AxiomStep, ProofLine, ProofObject
    bad = ProofObject("sbox-pa", (ProofLine(FALSUM, AxiomStep()),))
    with pytest.raises(KernelError, match="proof rejected at line 0: not an axiom"):
        reflect_theorem(t_box, bad)


def test_reflect_iterated_zero_is_identity(t_box):
    proof = _one_axiom_proof(t_box, parse_sentence("(forall x (= x x))"))
    assert reflect_iterated(t_box, proof, 0) is proof


def test_reflect_iterated_two_layers(t_box):
    proof = _one_axiom_proof(t_box, parse_sentence("(forall x (= x x))"))
    out = reflect_iterated(t_box, proof, 2)
    assert strip_box(strip_box(out.conclusion)) == proof.conclusion
    assert check_proof(t_box, out).accepted


def test_reflect_iterated_judges_each_stage_once(t_box, check_proof_calls):
    """The source is judged once; each stage's output is judged when it is
    concluded and not again as the next stage's source."""
    from asrt.kernel import proof_from_sexp
    proof = proof_from_sexp("(proof (theory sbox-pa) (step (forall x (= x x)) (axiom)))")
    out = reflect_iterated(t_box, proof, 3)
    assert len(check_proof_calls) == 4
    assert len(set(check_proof_calls)) == 4
    assert check_proof_calls[0] == proof and check_proof_calls[-1] == out


def test_reflection_totality_over_corpus(corpus, session_store):
    worst = 0.0
    for proof in corpus:
        t = session_store.theory(proof.theory) or preset_theory(proof.theory)
        start = time.time()
        trace = reflect_theorem(t, proof, session_store)
        worst = max(worst, time.time() - start)
        assert trace.conclusion == box_quote(proof.conclusion)
        assert check_proof(t, trace.output, session_store).accepted
    assert worst < 10.0


def test_reflection_size_ratio_regression(corpus, session_store):
    """Engineering budget: output stays within a measured constant factor of
    the input, tracked so growth regressions surface."""
    worst = 0.0
    for proof in corpus:
        t = session_store.theory(proof.theory) or preset_theory(proof.theory)
        trace = reflect_theorem(t, proof, session_store)
        worst = max(worst, len(trace.output.lines) / len(proof.lines))
    assert worst <= 40.0, worst


def test_unsound_base_scenario():
    t = sbox_pa_incon()
    b = Builder(t)
    b.axiom(FALSUM)
    proof = b.checked_proof()
    out = reflect_iterated(t, proof, 1)
    assert out.conclusion == box_quote(FALSUM)


def test_consistency_predicate_shape(t_box):
    a = consistency_predicate(t_box)
    assert a.free == {"g"}
    assert "proofof" in fmt(a)


def test_consistency_instances_small(t_box):
    for g in (0, 1, 17):
        proof = assertible_consistency_instance(t_box, g)
        assert check_proof(t_box, proof).accepted
        inner = strip_box(proof.conclusion)
        assert "proofof" in fmt(inner)


def test_consistency_instance_of_real_proof_code(t_box):
    """The code of an actual proof of 0 = 0 is not a proof of 0 = 1."""
    from asrt.syntax import _list_code
    g = _list_code([encode_sentence(parse_sentence("(= 0 0)"))])
    proof = assertible_consistency_instance(t_box, g)
    assert check_proof(t_box, proof).accepted


def test_consistency_instance_refuses_unsound():
    t = sbox_pa_incon()
    from asrt.syntax import _list_code
    g = _list_code([encode_sentence(FALSUM)])   # one-line proof of 0=1 there
    with pytest.raises(KernelError):
        assertible_consistency_instance(t, g)


# Reflects the 57 sbox-pa corpus entries and then not-liar three deep, as the
# reflect benchmark does, and prints the corpus size and how often each
# syntax function named on the command line was called during reflection,
# through any asrt module that holds it (syntax's own globals too)
_COUNT_CALLS = """
import sys
from collections import Counter
from asrt import corpus, diagonal, kernel, reflection
store, t = kernel.ProofStore(), kernel.sbox_pa()
sources = [p for p in corpus.build_corpus(store) if p.theory == t.name]
proof = diagonal.liar_suite(t, store).not_liar
calls = Counter()
modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "asrt"]
for name in sys.argv[1:]:
    inner = getattr(sys.modules["asrt.syntax"], name)
    def counted(*args, _inner=inner, _name=name):
        calls[_name] += 1
        return _inner(*args)
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is inner:
                setattr(m, attr, counted)
for p in sources:
    reflection.reflect_theorem(t, p, store)
for _ in range(3):
    proof = reflection.reflect_theorem(t, proof, store).output
print(len(sources), len(proof.lines), *(calls[name] for name in sys.argv[1:]))
"""


def test_reflection_quotes_each_formula_once():
    """A count, not a timing: reflection reuses the codes that the formulas
    it quotes already carry, and the kernel's quotation rows compare codes
    without quoting, so quote_term and pair are called no more often than
    this (3,567 and 4,243 times when the major premise's implication was
    rebuilt and every row quoted).  The count runs in a fresh process, whose
    nodes carry no code from other tests."""
    import asrt
    env = {**os.environ, "PYTHONPATH": str(Path(asrt.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _COUNT_CALLS, "quote_term", "pair"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    sources, lines, quotes, pairs = map(int, out.stdout.split())
    assert (sources, lines) == (57, 954)
    assert quotes <= 1_804 and pairs <= 3_291, (quotes, pairs)
