import sys

import pytest

from asrt.kernel import ProofStore, pa, sbox_pa
from asrt.corpus import build_corpus, build_unsound_corpus


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
