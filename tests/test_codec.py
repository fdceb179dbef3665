"""Codec contract: golden values frozen from the independent reference
encoder, exact roundtrips, and failure off the image."""

import random
import re
from pathlib import Path

import pytest

from hypothesis import example, given, settings, strategies as st
from reference_codec import (
    printed_levels, ref_decode, ref_encode, ref_encode_term, ref_pair, ref_unpair,
)

from asrt import syntax
from asrt.diagonal import liar_suite
from asrt.reflection import reflect_iterated
from asrt.syntax import (
    Box, Eq, Fn, Forall, Imp, Kappa, Num, Rel, Succ, Term, Var,
    FALSUM, ONE, ZERO, Formula, NotAFormula, MAX_NESTING,
    box_quote, decode_code, decode_term_code, encode_sentence, encode_term,
    fmt, neg, numeral_of, pair, parse_formula, quote_term, unpair,
)

# frozen once from the reference encoder; the scheme is fixed, so these are
# stable across runs and platforms
GOLDEN = {
    "(= 0 0)": 14479,
    "(= 0 1)": 231695,
    "(forall x (= x x))": 257232087984885112,
    "(forall g (-> (ax sbox-pa g) (box g)))":
        1367667958521453477991333498655999796589955485575032167,
}
GOLDEN_BOX_FALSUM = 1903134991
GOLDEN_TERMS = {"5": 221, "(s 1)": 783}


def test_golden_values_match_reference_encoder():
    for text, want in GOLDEN.items():
        a = parse_formula(text)
        assert encode_sentence(a) == want
        assert ref_encode(a) == want
    assert encode_sentence(box_quote(FALSUM)) == GOLDEN_BOX_FALSUM
    assert ref_encode(box_quote(FALSUM)) == GOLDEN_BOX_FALSUM
    for text, want in GOLDEN_TERMS.items():
        from asrt.syntax import parse_term
        t = parse_term(text)
        assert encode_term(t) == want
        assert ref_encode_term(t) == want


def test_docs_codec_lists_the_regular_rows_in_order():
    """The rows of docs/codec.md's tag table coded as pair(tag, code(part))
    or pair(tag, pair(code(left), code(right))) are syntax._ROWS, in order:
    the same tags, heads and part sorts (t and u terms, A and B formulas)."""
    text = (Path(__file__).parents[1] / "docs" / "codec.md").read_text(encoding="utf-8")
    table = text.split("\n## Tag table\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) \| `\((\S+) ([^`]*)\)` \| "
                      r"`(?:code\(\w\)|pair\(code\(\w\), code\(\w\)\))` \|$", table, re.M)
    assert len(rows) == 12
    assert [(int(tag), head, tuple(Term if p.islower() else Formula for p in parts.split()))
            for tag, head, parts in rows] == [row[:3] for row in syntax._ROWS]


def test_reference_encoder_agrees_on_random_asts():
    from test_syntax import _random_formula
    rnd = random.Random(77)
    for _ in range(2000):
        a = _random_formula(rnd, 4, [])
        assert ref_encode(a) == encode_sentence(a)


def test_roundtrip_count():
    from test_syntax import _random_formula
    rnd = random.Random(99)
    for _ in range(10_000):
        a = _random_formula(rnd, rnd.randrange(1, 8), [])
        assert decode_code(encode_sentence(a)) == a


def test_decode_zero_not_a_formula():
    out = decode_code(0)
    assert isinstance(out, NotAFormula) and not out


def test_small_codes_never_decode_then_reencode_elsewhere():
    """Enumeration oracle: on 0..4000, decode is the partial inverse of
    encode -- whenever decode succeeds, re-encoding returns the same code,
    and 0 is not in the image."""
    hits = 0
    for c in range(4000):
        a = decode_code(c)
        if not isinstance(a, NotAFormula):
            hits += 1
            assert a._code == c and ref_encode(a) == c
        t = decode_term_code(c)
        if t is not None:
            assert encode_term(t) == c
    assert hits > 0


def test_noncanonical_numeral_codes_rejected():
    # a structural encoding of the canonical numeral 2 is off the image
    two_structural = pair(3, pair(encode_term(parse_formula_term("(s (s 0))")),
                                  encode_term(ONE)))
    assert decode_term_code(two_structural) is None


def parse_formula_term(text):
    from asrt.syntax import parse_term
    return parse_term(text)


def test_pair_unpair_partial_inverse():
    rnd = random.Random(3)
    for _ in range(5000):
        a = rnd.randrange(0, 1 << rnd.randrange(1, 128))
        b = rnd.randrange(0, 1 << rnd.randrange(1, 128))
        assert unpair(pair(a, b)) == (a, b)
    assert unpair(0) is None


def _of_string_length(rnd, length):
    """A natural whose bit string (the binary of n + 1 without its leading
    1) is ``length`` bits long: all zeros, all ones, or random."""
    low = (1 << length) - 1
    return low + rnd.choice((0, low, rnd.getrandbits(length) if length else 0))


def test_pair_matches_the_reference_on_long_inputs():
    """pair against ref_pair, which writes the bit layout out: at 0 and 1,
    at strings 2**k - 1, 2**k and 2**k + 1 bits long, where the string of
    the first input's length gains a bit, and at random lengths up to
    20,000 bits."""
    rnd = random.Random(11)
    values = [0, 1] + [_of_string_length(rnd, (1 << k) + d) for k in range(15) for d in (-1, 0, 1)]
    cases = [(a, b) for a in values for b in (0, 1, rnd.choice(values))]
    cases += [(1, a) for a in values]
    cases += [tuple(_of_string_length(rnd, rnd.randrange(20_001)) for _ in "ab")
              for _ in range(40)]
    for a, b in cases:
        assert pair(a, b) == ref_pair(a, b), (a.bit_length(), b.bit_length())


def test_unpair_matches_the_reference_on_every_small_natural():
    for n in range(1 << 16):
        assert unpair(n) == ref_unpair(n), n


def _with_leading_ones(rnd, ones, length):
    """The natural whose string is 1^ones 0 followed by random bits, of
    ``length`` bits in all."""
    tail = length - ones - 1
    bits = (((1 << ones) - 1) << (tail + 1)) | rnd.getrandbits(tail) if tail > 0 \
        else ((1 << ones) - 1) << max(tail + 1, 0)
    return bits + (1 << length) - 1       # the string back to a natural


def test_unpair_matches_the_reference_on_long_codes():
    """Seeded naturals up to 20k bits: pairs of random halves, arbitrary
    values (mostly off the image), and strings opening with runs of ones
    around the 63 bits unpair reads at once."""
    rnd = random.Random(12)
    cases = []
    for _ in range(300):
        a = rnd.getrandbits(rnd.randrange(1, 10_000))
        b = rnd.getrandbits(rnd.randrange(1, 10_000))
        cases.append(pair(a, b))
        cases.append(rnd.getrandbits(rnd.randrange(1, 20_000)))
    for ones in (0, 1, 2, 30, 61, 62, 63, 64, 65, 100):
        for length in (ones, ones + 1, ones + 2, 2 * ones + 1, 2 * ones + 40, 20_000):
            if length >= 1:
                cases.append(_with_leading_ones(rnd, min(ones, length), length))
    for n in cases:
        assert unpair(n) == ref_unpair(n), n


def test_decoded_formula_carries_its_code():
    from test_syntax import _random_formula
    rnd = random.Random(31)
    for _ in range(500):
        c = ref_encode(_random_formula(rnd, rnd.randrange(1, 6), []))
        a = decode_code(c)
        assert a._code == c and ref_encode(a) == c


def test_codes_stable_across_quotation_layers():
    """Code growth per quotation layer is bounded by a constant number of
    bits, which keeps deeply iterated boxes representable."""
    a = FALSUM
    sizes = []
    for _ in range(8):
        a = box_quote(a)
        sizes.append(encode_sentence(a).bit_length())
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    assert max(deltas) < 64


def test_kappa_and_rel_codes_roundtrip():
    for a in (Box(Kappa(2)), Rel("prov:sstar-2", (numeral_of(5),)),
              Rel("gamma", ()), Rel("act3", (Succ(Var("n")),))):
        if a.free:
            continue
        assert decode_code(encode_sentence(a)) == a


# naturals of every shape the decoder branches on: arbitrary, tagged, and
# relation codes whose argument list may lie off the list image
_NATURALS = st.one_of(
    st.integers(min_value=0),
    st.builds(pair, st.integers(0, 20), st.integers(min_value=0)),
    st.builds(lambda name, args: pair(18, pair(name, args)),
              st.integers(min_value=1), st.integers(min_value=0)),
)


@settings(max_examples=500, deadline=None)
@given(_NATURALS)
@example(1031293316863023811)   # (gamma) with the argument list code 1
def test_decode_is_total(n):
    a = decode_code(n)
    assert isinstance(a, (Formula, NotAFormula))
    if isinstance(a, Formula):
        assert a._code == n and ref_encode(a) == n


# ---------------------------------------------------------------------------
# The formula a numeral quotes
# ---------------------------------------------------------------------------

def _as_ref(x):
    """decode_code's answer in the reference decoder's terms."""
    return None if isinstance(x, NotAFormula) else x


def test_live_numerals_carry_what_their_value_decodes_to(corpus, t_box, session_store):
    """Quoting sets the formula a numeral carries, and decoding sets it when
    quoting did not; either way it is what the reference decoder reads."""
    from test_syntax import _random_formula
    deep = reflect_iterated(t_box, liar_suite(t_box, session_store).not_liar, 3,
                            session_store)
    rnd = random.Random(13)
    keep = []
    for _ in range(500):
        a = _random_formula(rnd, rnd.randrange(1, 7), [])
        keep.append(quote_term(a))
        if not a.free:
            keep.append(box_quote(a))
        # numerals made without quoting: decoding their values sets them
        for n in (numeral_of(encode_sentence(Imp(a, a))),
                  numeral_of(rnd.getrandbits(rnd.randrange(2, 400)) | 2)):
            decode_code(n.canon)
            assert n.quoted is not None
            keep.append(n)
    carrying = [n for n in list(syntax._NUMERALS.values()) if n.quoted is not None]
    assert len(carrying) > 1000 and deep.conclusion and corpus
    for n in carrying:
        assert _as_ref(n.quoted) == ref_decode(n.canon), n.canon
        if isinstance(n.quoted, Formula):
            assert n.quoted._code == n.canon


def _term_chain(k):
    """A closed term printed k parentheses deep: (num (num ... 0))."""
    t = ZERO
    for _ in range(k):
        t = Fn("num", (t,))
    return t


def _shapes(levels):
    """Formulas built in-process (not parsed) whose printed text nests
    exactly ``levels`` parentheses deep."""
    atom = Eq(ZERO, ZERO)
    imps = atom
    for _ in range(levels - 1):
        imps = Imp(atom, imps)
    succs = Var("x")
    for _ in range(levels - 2):
        succs = Succ(succs)
    alls = Eq(Var("x"), Var("x"))
    for _ in range(levels - 1):
        alls = Forall("x", alls)
    nots = Rel("gamma", ())       # the innermost (not gamma) sits at the cap
    for _ in range(levels):
        nots = neg(nots)
    return {
        "->": imps,
        "s": Forall("x", Eq(succs, ZERO)),
        "forall": alls,
        "box": Box(_term_chain(levels - 1)),
        "relation": Rel("act1", (_term_chain(levels - 1),)),
        "not": nots,
    }


def _text_levels(text):
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


@pytest.mark.parametrize("levels", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
def test_quoting_at_the_nesting_cap(levels):
    """Quoted at the cap, a formula decodes from its code, carried or read
    afresh; one level past it, it is off the image either way."""
    for shape, a in _shapes(levels).items():
        text = fmt(a)
        assert _text_levels(text) == printed_levels(a) == levels, shape
        assert (text.count("(not ") == levels) == (shape == "not")
        n = box_quote(a).arg
        c = encode_sentence(a)
        assert n.canon == c and type(n) is Num
        want = ref_decode(c)
        assert (want == a) == (levels <= MAX_NESTING), shape
        assert _as_ref(n.quoted) == want, shape
        assert _as_ref(decode_code(c)) == want, shape
        assert syntax._decode_formula(c) == want, shape


# atoms the printer would not write back as themselves: gamma with an
# argument, act1 with two, prov:pa with none, an unknown name, an act index
# with a leading zero, a theory name the parser does not read
_UNPRINTABLE_ATOMS = {
    "gamma 5": (Rel("gamma", (numeral_of(5),)), 8448354851741891082334),
    "act1 5 6": (Rel("act1", (numeral_of(5), numeral_of(6))), 135172991024148254275680),
    "prov:pa": (Rel("prov:pa", ()), 33793710189318942388321),
    "foo": (Rel("foo", ()), 1966992682863),
    "act01 5": (Rel("act01", (numeral_of(5),)), 8448354430086441384030),
    "ax:PA 5": (Rel("ax:PA", (numeral_of(5),)), 8448354435796734883934),
}


def test_relation_atoms_that_do_not_print_back_do_not_decode():
    """Only atoms that print back decode; a formula holding another atom
    is off the image, and quoting it carries not-a-formula."""
    for label, (atom, code) in _UNPRINTABLE_ATOMS.items():
        assert ref_encode(atom) == encode_sentence(atom) == code, label
        assert ref_decode(code) is None and atom.height > MAX_NESTING, label
        for x in (atom, Imp(Eq(ZERO, ZERO), atom), Forall("x", neg(atom))):
            c = encode_sentence(x)
            assert isinstance(decode_code(c), NotAFormula), label
            assert box_quote(x).arg.quoted is syntax.NOT_A_FORMULA, label
            assert syntax._decode_formula(c) is None, label
    for text in ("gamma", "(act 0 x)", "(act 12 5)", "(prov sbox-pa 3)",
                 "(ax sstar-4 x)", "(proofof pa x y)"):
        a = parse_formula(text)
        assert decode_code(encode_sentence(a)) == a and a.height <= 1, text
        assert ref_decode(encode_sentence(a)) == a, text


def test_gamma_with_arguments_is_off_the_image_at_every_depth():
    """gamma prints as a leaf with no arguments, so gamma applied to any
    term is off the image however shallow; the carried answer agrees."""
    for levels in (1, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        a = Rel("gamma", (_term_chain(levels - 1),))
        wrapped = Imp(Eq(ZERO, ZERO), a)
        for x in (a, wrapped):
            n = box_quote(x).arg
            assert ref_decode(n.canon) is None
            assert n.quoted is syntax.NOT_A_FORMULA
            assert syntax._decode_formula(n.canon) is None


def test_decoding_agrees_with_and_without_the_numeral_alive():
    """A live numeral never carries a formula that a fresh decode refuses,
    nor refuses one that a fresh decode gives."""
    from test_syntax import _random_formula
    rnd = random.Random(23)
    cases = [atom for atom, _ in _UNPRINTABLE_ATOMS.values()]
    cases += [_random_formula(rnd, rnd.randrange(1, 6), []) for _ in range(300)]
    for levels in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        cases += _shapes(levels).values()
    compared = 0
    for a in cases:
        for x in (a, Imp(Eq(ZERO, ZERO), a), neg(a)):
            c = encode_sentence(x)
            if syntax._NUMERALS.get(c) is not None:
                continue                  # not a fresh decode
            compared += 1
            fresh = _as_ref(decode_code(c))
            assert fresh == ref_decode(c)
            n = syntax._quote_numeral(x)
            assert _as_ref(n.quoted) == fresh
            assert _as_ref(decode_code(c)) == fresh
            # a live numeral that carries nothing yet: the decode sets it
            del n
            m = numeral_of(c)
            assert m.quoted is None
            assert _as_ref(decode_code(c)) == fresh
            assert _as_ref(m.quoted) == fresh
    assert compared > 800


# ---------------------------------------------------------------------------
# Height and reuse of carried sub-codes at the cap
# ---------------------------------------------------------------------------

def test_height_is_the_printed_nesting():
    from test_syntax import _random_formula
    for x, want in ((ONE, 0), (parse_formula_term("(s 0)"), 0), (ZERO, 0),
                    (numeral_of(9), 0), (Var("x"), 0), (Kappa(2), 1),
                    (parse_formula_term("(s 1)"), 1), (Rel("gamma", ()), 0),
                    (neg(Rel("gamma", ())), 1), (FALSUM, 1), (neg(FALSUM), 2),
                    (Imp(FALSUM, Rel("gamma", ())), 2)):
        assert x.height == printed_levels(x) == _text_levels(fmt(x)) == want, fmt(x)
    for levels in (3, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        for shape, a in _shapes(levels).items():
            assert a.height == printed_levels(a) == levels, shape
    rnd = random.Random(41)
    for _ in range(2000):
        a = _random_formula(rnd, rnd.randrange(1, 9), [])
        assert a.height == printed_levels(a) == _text_levels(fmt(a))


def _subformulas(a, depth=0):
    """(b, depth) for every subformula b of a, depth the printed levels
    above it."""
    yield a, depth
    if isinstance(a, syntax._Quant):
        yield from _subformulas(a.body, depth + 1)
    elif isinstance(a, (syntax.And, syntax.Or, Imp)):
        yield from _subformulas(a.left, depth + 1)
        if not (isinstance(a, Imp) and a.right == FALSUM):
            yield from _subformulas(a.right, depth + 1)


_WRAPPERS = {
    "->": lambda a: Imp(Eq(ZERO, ZERO), a),
    "forall": lambda a: Forall("y", a),
    "not": neg,
    "and": lambda a: syntax.And(a, Rel("gamma", ())),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_shapes(3))),
       st.sampled_from([MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]),
       st.lists(st.sampled_from(sorted(_WRAPPERS)), max_size=3), st.data())
def test_carried_sub_codes_decode_as_the_reference_reads(shape, levels, wraps, data):
    """Live numerals quote random subformulas of a shape at the cap, or
    are made without quoting; the shape is wrapped a few levels deeper.
    decode_code reads the wrapped code as the reference decoder does, which
    reuses nothing, and a numeral whose subformula fails only for its depth
    is left unset."""
    a = _shapes(levels)[shape]
    subs = list(_subformulas(a))
    picks = st.lists(st.integers(0, len(subs) - 1), max_size=6)
    quoted = [syntax._quote_numeral(subs[i][0]) for i in data.draw(picks)]
    plain = {}
    for i in data.draw(picks):
        b, depth = subs[i]
        n = numeral_of(encode_sentence(b))
        if n.quoted is None:
            plain[n] = (b, depth + len(wraps))
    w = a
    for kind in wraps:
        w = _WRAPPERS[kind](w)
    c = encode_sentence(w)
    assert _as_ref(decode_code(c)) == ref_decode(c)
    for n in quoted:
        assert _as_ref(n.quoted) == ref_decode(n.canon)
    for n, (b, depth) in plain.items():
        if b.height <= MAX_NESTING < depth + b.height:
            assert n.quoted is None
        elif n.quoted is not None:
            assert _as_ref(n.quoted) == ref_decode(n.canon)
