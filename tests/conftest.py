import sys

import pytest

from asrt.kernel import ProofStore, pa, sbox_pa
from asrt.corpus import build_corpus, build_unsound_corpus
from asrt.syntax import encode_sentence, parse_formula


@pytest.fixture(scope="session")
def t_pa():
    return pa()


@pytest.fixture(scope="session")
def t_box():
    return sbox_pa()


@pytest.fixture(scope="session")
def session_store():
    return ProofStore()


@pytest.fixture(scope="session")
def corpus(session_store):
    return build_corpus(session_store)


@pytest.fixture(scope="session")
def unsound_corpus():
    return build_unsound_corpus()


@pytest.fixture(scope="session")
def nested_sub():
    """The text of t(d): t(0) is 5 and t(d+1) is (sub g t(d)), g the code of
    a formula with eight free occurrences of x, so each level multiplies
    the value's size by about eight (t(5) has 826,168 bits, t(6) would have
    6,609,714)."""
    g = encode_sentence(parse_formula("(and (and (= x x) (= x x)) (and (= x x) (= x x)))"))

    def term(d: int) -> str:
        return "5" if d == 0 else f"(sub {g} {term(d - 1)})"
    return term


@pytest.fixture
def check_proof_calls(monkeypatch):
    """The proofs handed to kernel.check_proof while the test runs, counted
    in every asrt module that holds the function."""
    import asrt.kernel as kernel
    calls = []
    inner = kernel.check_proof

    def counted(t, proof, *args, **kwargs):
        calls.append(proof)
        return inner(t, proof, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "asrt" and getattr(module, "check_proof", None) is inner:
            monkeypatch.setattr(module, "check_proof", counted)
    return calls
