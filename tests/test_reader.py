"""The reader against tests/reference_parser.py, the regex scanner it
replaced: on every input both give equal trees, or errors with equal message
and position."""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import reference_parser as ref
from asrt import agency, kernel, reflection, syntax
from asrt.syntax import MAX_NESTING, ParseError

TOKEN = re.compile(r"[()]|[^\s()]+")


def outcome(read, text):
    try:
        return "ok", read(text)
    except Exception as e:     # the type, message and position are compared
        return "raised", type(e).__name__, str(e), getattr(e, "pos", None)


READERS = {
    "proof": (ref.proof_from_sexp, kernel.proof_from_sexp),
    "policy": (ref.policy_from_sexp, agency.policy_from_sexp),
    "formula": (ref.parse_formula, syntax.parse_formula),
    "term": (ref.parse_term, syntax.parse_term),
}


def assert_agree(kind, text):
    want, got = (outcome(read, text) for read in READERS[kind])
    assert got == want, (kind, text[:200])
    if got[0] == "ok":
        assert_shared(got[1])
    return got


def _parts(x):
    """The nodes directly below a term or formula, or the sentences of a
    proof or policy."""
    if isinstance(x, kernel.ProofObject):
        return [line.sentence for line in x.lines]
    if isinstance(x, agency.LicensingPolicy):
        return [e.criterion for e in x.entries]
    if isinstance(x, (syntax.Fn, syntax.Rel)):
        return list(x.args)
    if isinstance(x, (syntax.Succ, syntax.Box)):
        return [x.arg]
    if isinstance(x, syntax._Quant):
        return [x.body]
    return [getattr(x, side) for side in ("left", "right") if hasattr(x, side)]


def assert_shared(read):
    """Equal subterms and subformulas of one text are one object."""
    first = {}
    todo = _parts(read) if not isinstance(read, (syntax.Term, syntax.Formula)) else [read]
    while todo:
        x = todo.pop()
        assert first.setdefault(x, x) is x, syntax.fmt(x)[:200]
        todo.extend(_parts(x))


@pytest.fixture(scope="module")
def texts(corpus, session_store):
    """Every corpus script, the reflections of the sbox-pa ones, a policy
    over the corpus conclusions and the printed conclusions themselves."""
    t = kernel.sbox_pa()
    sources = [p for p in corpus if p.theory == t.name]
    reflected = [reflection.reflect_theorem(t, p, session_store).output
                 for p in sources]
    scripts = [kernel.proof_to_sexp(p) for p in list(corpus) + reflected]
    conclusions = sorted({p.conclusion for p in corpus if not p.conclusion.free},
                         key=syntax.fmt)
    policy = agency.LicensingPolicy(tuple(
        agency.PolicyEntry(c, f"act-{i}", i % 3 != 0) for i, c in enumerate(conclusions)))
    return {"proof": scripts, "policy": [agency.policy_to_sexp(policy)],
            "formula": [syntax.fmt(c) for c in conclusions],
            "term": ["(+ (s x) (* 2 (num-of (godel (= 0 1)))))", "12345", "(kappa 3)"]}


def test_every_corpus_text_reads_alike(texts):
    for kind, items in texts.items():
        for text in items:
            assert assert_agree(kind, text)[0] == "ok"


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

def _spans(text):
    return [m.span() for m in TOKEN.finditer(text)]


def _drop_paren(text, data):
    spans = [s for s in _spans(text) if text[s[0]] in "()"]
    if not spans:
        return text
    i, _ = data.draw(st.sampled_from(spans))
    return text[:i] + text[i + 1:]


def _extra_paren(text, data):
    i = data.draw(st.integers(0, len(text)))
    return text[:i] + data.draw(st.sampled_from("()")) + text[i:]


def _swap(text, data):
    spans = _spans(text)
    if len(spans) < 2:
        return text
    a, b = sorted(data.draw(st.lists(st.integers(0, len(spans) - 1), min_size=2,
                                     max_size=2, unique=True)))
    (a0, a1), (b0, b1) = spans[a], spans[b]
    return text[:a0] + text[b0:b1] + text[a1:b0] + text[a0:a1] + text[b1:]


def _truncate(text, data):
    return text[:data.draw(st.integers(0, len(text)))]


def _trailing(text, data):
    return text + data.draw(st.sampled_from([" junk", " (", " )", " 7", ")", "(= 0 0)",
                                             " (step (= 0 0) (axiom))"]))


def _replace_token(text, data):
    spans = _spans(text)
    if not spans:
        return text
    i, j = data.draw(st.sampled_from(spans))
    new = data.draw(st.sampled_from(["0", "x", "gamma", "(", ")", "step", "mp", "=",
                                     "kappa", "３", "٣", "12a", "-1", "not"]))
    return text[:i] + new + text[j:]


MUTATIONS = [_drop_paren, _extra_paren, _swap, _truncate, _trailing, _replace_token]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_texts_read_alike(texts, data):
    kind = data.draw(st.sampled_from(sorted(texts)))
    text = data.draw(st.sampled_from(texts[kind]))
    for _ in range(data.draw(st.integers(1, 3))):
        text = data.draw(st.sampled_from(MUTATIONS))(text, data)
    assert_agree(kind, text)


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("text", ["", "   ", "\n", "(", ")", "()", "x", "0 0"])
def test_short_texts_read_alike(kind, text):
    assert_agree(kind, text)


# ---------------------------------------------------------------------------
# Limits: nesting and literal length
# ---------------------------------------------------------------------------

def _nested(depth, wrap, leaf):
    return wrap * depth + leaf + ")" * depth


@pytest.mark.parametrize("open_parens", [255, 256, 257])
def test_nesting_at_the_cap_reads_alike(open_parens):
    """``open_parens`` parentheses are open at the innermost atom."""
    formula = _nested(open_parens - 1, "(not ", "(= 0 0)")
    term = "(= " + _nested(open_parens - 1, "(s ", "0") + " 0)"
    proof = ("(proof (theory sbox-pa) (step "
             + _nested(open_parens - 3, "(-> (= 0 0) ", "(= 0 0)") + " (axiom)))")
    policy = "(policy (entry " + _nested(open_parens - 3, "(not ", "(= 0 0)") + " a))"
    ok = open_parens <= MAX_NESTING
    for kind, text in (("formula", formula), ("formula", term), ("proof", proof),
                       ("policy", policy), ("term", _nested(open_parens, "(s ", "0"))):
        got = assert_agree(kind, text)
        assert (got[0] == "ok") is ok, (kind, got[:3])
        if not ok:
            assert f"nesting deeper than {MAX_NESTING}" in got[2]


def test_nesting_past_the_end_of_a_script_is_not_read():
    """The reader counts nesting over the tokens it reads only.  Past a
    script's closing parenthesis it reads one token, so deep text after it
    is trailing input, not nesting, as in the reference."""
    text = "(proof (theory sbox-pa) (step (= 0 0) (axiom)))" + "(" * 300
    got = assert_agree("proof", text)
    assert got[0] == "raised" and got[2].startswith("trailing input '('")


@pytest.mark.parametrize("kind, text", [
    ("proof", "(proof (theory pa) (step (= 0 0) (axiom)))\n(proof (theory pa))"),
    ("proof", "(proof (theory pa)) )"),
    ("policy", "(policy (entry (= 0 0) alpha-0)) (entry junk"),
    ("policy", "(policy) policy"),
])
def test_a_script_ends_at_its_closing_parenthesis(kind, text):
    got = assert_agree(kind, text)
    assert got[0] == "raised" and "trailing input" in got[2]


def test_over_long_literals_read_alike():
    limit = sys.get_int_max_str_digits()
    over = "9" * (limit + 1)
    for kind, text in (("formula", f"(= {over} 0)"), ("term", over),
                       ("proof", f"(proof (theory pa) (step (= {over} 0) (axiom)))"),
                       ("proof", f"(proof (theory pa) (step (= 0 0) (mp {over} 0)))"),
                       ("proof", f"(proof (theory pa) (step (= 0 0) (mp 0 {over})))"),
                       ("formula", f"(act {over} 0)")):
        got = assert_agree(kind, text)
        assert got[0] == "raised" and f"{limit}-digit limit" in got[2]


# ---------------------------------------------------------------------------
# Tokens and literals
# ---------------------------------------------------------------------------

def test_tokens_split_where_the_regex_does():
    """The reader splits text at exactly the characters the regex's \\s
    matches, over every code point."""
    text = "a".join(map(chr, range(sys.maxunicode + 1)))
    assert syntax.Tokens(text).toks == TOKEN.findall(text)


@pytest.mark.parametrize("literal", ["３", "٣", "²", "\U0001d7e5"])
def test_literals_are_ascii_digits(literal):
    for text in (f"(= {literal} 3)", f"(= (s {literal}) 0)"):
        with pytest.raises(ParseError, match="expected a term"):
            syntax.parse_formula(text)
    with pytest.raises(ParseError, match="mp expects two line indices"):
        kernel.proof_from_sexp(f"(proof (theory pa) (step (= 0 0) (mp {literal} 0)))")


def test_each_literal_text_is_one_term():
    a = syntax.parse_formula("(and (= 123456789 123456789) (= x 123456789))")
    assert a.left.left is a.left.right is a.right.right


def test_equal_parts_of_a_script_are_one_object():
    """Equal subterms and subformulas are one node, also where the text
    writes them two ways: 1 and (s 0), (not A) and (-> A (= 0 1))."""
    text = ("(proof (theory sbox-pa)"
            " (step (forall x (= (s x) (+ x 1))) (axiom))"
            " (step (-> (forall x (= (s x) (+ x (s 0)))) (not (= 0 1))) (axiom))"
            " (step (-> (forall x (= (s x) (+ x 1))) (-> (= 0 1) (= 0 1))) (axiom))"
            " (step (and gamma gamma) (axiom)))")
    p = assert_agree("proof", text)[1]
    a, b, c, d = (line.sentence for line in p.lines)
    assert b.left is a and c is b and d.left is d.right
    assert b.right.left is b.right.right is syntax.FALSUM
    assert a.body.right.right is syntax.ONE
