import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from asrt.syntax import (
    Add, And, Box, Eq, Exists, Fn, Forall, Formula, Imp, Kappa, Mul, Or, Rel,
    Succ, Term, Var,
    FALSUM, ONE, TWO, ZERO,
    CaptureError, EvalError, FreeVariableError, ParseError,
    box_quote, close_over, decode_code, dyadic_view, encode_sentence, encode_term,
    eval_term, fmt, numeral_of, parse_formula, parse_sentence,
    parse_term, quote_term, sorted_vars, strip_box, substitute,
)


def test_parse_smallest_sentence():
    a = parse_sentence("(= 0 0)")
    assert a == Eq(ZERO, ZERO)


def test_parse_box_of_godel_code():
    a = parse_sentence("(box (num-of (godel (= 0 1))))")
    assert a == box_quote(FALSUM)
    assert isinstance(a, Box) and a.arg.canon == encode_sentence(FALSUM)


def test_parse_quantified_implication():
    a = parse_sentence("(forall n (-> (= n n) (= n n)))")
    assert isinstance(a, Forall) and isinstance(a.body, Imp)
    assert parse_sentence(fmt(a)) == a


def test_parse_rejects_open_formula():
    with pytest.raises(FreeVariableError) as e:
        parse_sentence("(= n 0)")
    assert "n" in str(e.value)
    assert parse_formula("(= n 0)").free == {"n"}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_sentence("(= 0")
    with pytest.raises(ParseError):
        parse_sentence("(= 0 0) junk")
    with pytest.raises(ParseError):
        parse_sentence("(frobnicate 0)")


def test_negation_is_notation():
    a = parse_sentence("(not (= 0 0))")
    assert a == Imp(Eq(ZERO, ZERO), FALSUM)
    assert fmt(a) == "(not (= 0 0))"


def test_substitute_numeral_basic():
    a = parse_formula("(= n 0)")
    assert substitute(a, "n", numeral_of(0)) == parse_sentence("(= 0 0)")


def test_substitute_numeral_bound_shadowing():
    a = parse_formula("(forall n (= n n))")
    assert substitute(a, "n", numeral_of(5)) == a


def test_substitute_action_antecedent():
    a = parse_formula("(act 1 n)")
    out = substitute(a, "n", numeral_of(9))
    assert out == Rel("act1", (numeral_of(9),))


def test_substitution_commutes_for_distinct_variables():
    rnd = random.Random(11)
    a = parse_formula("(and (= n m) (forall k (-> (= k n) (= m k))))")
    for _ in range(50):
        i, j = rnd.randrange(40), rnd.randrange(40)
        one = substitute(substitute(a, "n", numeral_of(i)), "m", numeral_of(j))
        other = substitute(substitute(a, "m", numeral_of(j)), "n", numeral_of(i))
        assert one == other


def test_substitute_capture_rejected():
    a = parse_formula("(forall m (= n m))")
    with pytest.raises(CaptureError):
        substitute(a, "n", Var("m"))


def test_numeral_values():
    assert numeral_of(0) == ZERO
    assert numeral_of(1) == Succ(ZERO)
    assert numeral_of(2) == Mul(TWO, ONE)
    for n in [0, 1, 2, 3, 17, 255, 1024]:
        assert eval_term(numeral_of(n)) == n
    # equal numerals are one object; the dyadic view has canonical children
    assert numeral_of(2 ** 70) is numeral_of(2 ** 70) is Mul(TWO, numeral_of(2 ** 69))
    odd, even = dyadic_view(numeral_of(17)), dyadic_view(numeral_of(34))
    assert isinstance(odd, Succ) and odd.arg is numeral_of(16)
    assert isinstance(even, Mul) and even.left == TWO and even.right is numeral_of(17)


def test_numeral_soundness_random_256_bit():
    rnd = random.Random(2)
    for _ in range(100):
        n = rnd.getrandbits(256)
        assert eval_term(numeral_of(n)) == n


def test_numeral_soundness_to_one_million():
    for n in range(1_000_001):
        assert numeral_of(n).canon == n
    # spot-check the evaluator against an independent recursive evaluator
    # that unfolds numerals one dyadic view at a time
    def slow_eval(t):
        t = dyadic_view(t)
        if isinstance(t, Succ):
            return slow_eval(t.arg) + 1
        if isinstance(t, Mul):
            return slow_eval(t.left) * slow_eval(t.right)
        if isinstance(t, Add):
            return slow_eval(t.left) + slow_eval(t.right)
        assert t == ZERO
        return 0
    for n in range(0, 1_000_001, 9973):
        t = numeral_of(n)
        assert eval_term(t) == slow_eval(t) == n


def test_numeral_size_is_logarithmic():
    # size of the dyadic tree, unfolded one view at a time
    def size(t):
        if t.canon in (0, 1):
            return 1 + (t.canon or 0)
        v = dyadic_view(t)
        return 1 + size(v.right if isinstance(v, Mul) else v.arg)
    assert size(numeral_of(2 ** 64)) < 200


def test_eval_arithmetic():
    t = parse_term("(* (s (s 0)) (s (s 0)))")
    assert eval_term(t) == 4
    assert eval_term(parse_term("(+ 3 4)")) == 7


def test_eval_kappa_requires_assignment():
    t = Kappa(1)
    with pytest.raises(EvalError):
        eval_term(t)
    assert eval_term(t, {1: 9}) == 9
    assert eval_term(Succ(Kappa(2)), {2: 3}) == 4


def test_eval_open_term_rejected():
    with pytest.raises(EvalError):
        eval_term(Var("n"))


def test_eval_iterbox_matches_double_encode():
    g = encode_sentence(FALSUM)
    t = Fn("iterbox", (numeral_of(2), numeral_of(g)))
    assert eval_term(t) == encode_sentence(box_quote(box_quote(FALSUM)))


def test_eval_num_matches_encoder():
    for n in [0, 1, 2, 7, 100]:
        t = Fn("num", (numeral_of(n),))
        assert eval_term(t) == encode_term(numeral_of(n))


def test_eval_sub_substitutes_first_variable():
    a = parse_formula("(-> (act 1 n) gamma)")
    g = encode_sentence(a)
    t = Fn("sub", (numeral_of(g), numeral_of(7)))
    assert eval_term(t) == encode_sentence(substitute(a, "n", numeral_of(7)))


def test_eval_sub_result_past_the_budget_fails(nested_sub):
    """A sub result has at most _EVAL_BIT_BUDGET bits: t(6) would have
    6,609,714 and is refused before it is built; a formula code already past
    the budget is refused once substituted into."""
    from asrt.syntax import _EVAL_BIT_BUDGET
    assert eval_term(parse_term(nested_sub(5))).bit_length() == 826_168
    with pytest.raises(EvalError, match=r"evaluation budget exceeded \(sub\)"):
        eval_term(parse_term(nested_sub(6)))
    big = encode_sentence(Eq(Var("x"), numeral_of(2 ** _EVAL_BIT_BUDGET)))
    with pytest.raises(EvalError, match=r"evaluation budget exceeded \(sub\)"):
        eval_term(Fn("sub", (numeral_of(big), ZERO)))


def test_eval_sub_identity_off_image():
    t = Fn("sub", (ZERO, ZERO))
    assert eval_term(t) == 0   # 0 codes no formula; identity fallback


def test_box_quote_strip_box():
    a = parse_sentence("(forall x (= x x))")
    b = box_quote(a)
    assert strip_box(b) == a
    assert strip_box(box_quote(b)) == b
    assert strip_box(parse_sentence("(= 0 0)")) is None
    assert strip_box(Box(Kappa(1))) is None         # kappa term: no strip
    assert strip_box(Box(Var("n"))) is None         # open term: no strip


def test_box_quote_requires_sentence():
    with pytest.raises(FreeVariableError):
        box_quote(parse_formula("(= n n)"))


def test_quote_term_open_formula():
    a = parse_formula("(and (= n m) (= m n))")
    q = quote_term(a)
    assert isinstance(q, Fn) and q.name == "sub"
    # chain substitutes in canonical order: first m, then n? order is shortlex
    assert sorted_vars(a.free) == ["m", "n"]


def test_close_over_vacuous_ok():
    a = close_over(("m", "n"), parse_formula("(= n n)"))
    assert a.closed and isinstance(a, Forall) and a.var == "m"


def _random_term(rnd, depth, vars_):
    if depth == 0 or rnd.random() < 0.3:
        choice = rnd.random()
        if vars_ and choice < 0.35:
            return Var(rnd.choice(vars_))
        if choice < 0.5:
            return Kappa(rnd.randrange(1, 4))
        return numeral_of(rnd.randrange(0, 40))
    k = rnd.randrange(6)
    if k == 0:
        return Succ(_random_term(rnd, depth - 1, vars_))
    if k == 1:
        return Add(_random_term(rnd, depth - 1, vars_),
                   _random_term(rnd, depth - 1, vars_))
    if k == 2:
        return Mul(_random_term(rnd, depth - 1, vars_),
                   _random_term(rnd, depth - 1, vars_))
    if k == 3:
        return Fn("sub", (_random_term(rnd, depth - 1, vars_),
                          _random_term(rnd, depth - 1, vars_)))
    if k == 4:
        return Fn("num", (_random_term(rnd, depth - 1, vars_),))
    return Fn("iterbox", (_random_term(rnd, depth - 1, vars_),
                          _random_term(rnd, depth - 1, vars_)))


def _random_formula(rnd, depth, vars_):
    if depth == 0 or rnd.random() < 0.3:
        k = rnd.randrange(4)
        if k == 0:
            return Eq(_random_term(rnd, 2, vars_), _random_term(rnd, 2, vars_))
        if k == 1:
            return Box(_random_term(rnd, 2, vars_))
        if k == 2:
            return Rel("gamma", ())
        return Rel(f"act{rnd.randrange(1, 4)}", (_random_term(rnd, 1, vars_),))
    k = rnd.randrange(6)
    if k < 3:
        return [And, Or, Imp][k](_random_formula(rnd, depth - 1, vars_),
                                 _random_formula(rnd, depth - 1, vars_))
    if k == 3:
        return Rel(f"prov:sbox-pa", (_random_term(rnd, 1, vars_),))
    v = rnd.choice("nmgk") + (str(rnd.randrange(3)) if rnd.random() < 0.4 else "")
    q = Forall if k == 4 else Exists
    return q(v, _random_formula(rnd, depth - 1, vars_ + [v]))


def test_roundtrip_print_parse_and_codec_random():
    rnd = random.Random(42)
    for _ in range(10_000):
        a = _random_formula(rnd, rnd.randrange(1, 9), [])
        assert parse_formula(fmt(a)) == a
        assert decode_code(encode_sentence(a)) == a


def test_box_quote_injective_on_random_corpus():
    rnd = random.Random(5)
    seen = {}
    for _ in range(500):
        a = _random_formula(rnd, 3, [])
        if a.free:
            a = close_over(sorted_vars(a.free), a)
        b = box_quote(a)
        key = encode_sentence(b)
        assert seen.setdefault(key, a) == a


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_substitute_replaces_each_token_of_the_variable(rnd, term):
    """Against an oracle on text: for a term or formula x in which no
    quantifier binds v (the generator binds only n, m, g and k) and a closed
    r, the text of x[v := r] is the text of x with each token v replaced by
    the text of r.  An r that could make a constructor normalize its result
    is left out: a canonical numeral, as (s 4) is the term 5, or 2 written
    (s (s 0)), as (* 2 3) is the term 6.  Capture still raises."""
    make = _random_term if term else _random_formula
    x = make(rnd, rnd.randrange(0, 6), ["v"])
    r = _random_term(rnd, rnd.randrange(0, 4), [])
    assume(r.canon is None and r != TWO)
    want = re.sub(r"(?<![^\s()])v(?![^\s()])", lambda _: fmt(r), fmt(x))
    assert fmt(substitute(x, "v", r)) == want
    # w is free in the new term and bound above an occurrence of v
    inner = Eq(Var("v"), Var("w"))
    with pytest.raises(CaptureError):
        substitute(Forall("w", inner if term else And(inner, x)), "v", Add(r, Var("w")))


def test_infer_subst_term_recovers_a_substituted_term():
    """For c = a[x := t], forall-elim's matcher finds a term that
    substitutes back to c."""
    from asrt.kernel import _infer_subst_term
    from asrt.syntax import CaptureError
    rnd = random.Random(19)
    found = 0
    for _ in range(3000):
        x = rnd.choice(["n", "m"])
        a = _random_formula(rnd, rnd.randrange(1, 6), [x])
        t = _random_term(rnd, rnd.randrange(0, 4), ["k"] if rnd.random() < 0.2 else [])
        try:
            c = substitute(a, x, t)
        except CaptureError:
            continue
        out = _infer_subst_term(a, x, c)
        assert out is not None, (fmt(a), x, fmt(t))
        assert substitute(a, x, out) == c
        found += 1
    assert found > 2500


def _has_agent_walk(a):
    """The recursive walk a ``has_agent`` flag replaces."""
    if isinstance(a, Rel):
        return a.name.startswith("act") or a.name == "gamma"
    if isinstance(a, (And, Or, Imp)):
        return _has_agent_walk(a.left) or _has_agent_walk(a.right)
    if isinstance(a, (Forall, Exists)):
        return _has_agent_walk(a.body)
    return False


def test_has_agent_flag_equals_the_walk(corpus):
    sentences = [line.sentence for proof in corpus for line in proof.lines]
    rnd = random.Random(23)
    sentences += [_random_formula(rnd, rnd.randrange(0, 7), []) for _ in range(3000)]
    agents = 0
    for a in sentences:
        assert a.has_agent is _has_agent_walk(a), fmt(a)
        agents += a.has_agent
    assert 0 < agents < len(sentences)


def _concrete_classes(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        out.append(cls)
    return out


def test_every_node_class_is_immutable():
    x = Var("x")
    eq = Eq(x, ZERO)
    nodes = [ZERO, ONE, TWO, numeral_of(9), Add(x, ONE), Mul(x, x), x, Kappa(1),
             Fn("num", (x,)), eq, Box(x), Rel("gamma", ()), And(eq, eq), Or(eq, eq),
             Imp(eq, eq), Forall("x", eq), Exists("x", eq)]
    classes = {type(n) for n in nodes}
    for base in (Term, Formula):
        # every class that makes nodes has one above; only the bases and the
        # shared binary classes make none themselves
        for cls in _concrete_classes(base):
            assert cls in classes or cls.__name__ in (
                "Term", "Formula", "_Bin", "_BinF", "_Quant"), cls
    for node in nodes:
        names = {name for cls in type(node).__mro__
                 for name in getattr(cls, "__slots__", ())} | {"other"}
        for name in names - {"__weakref__"}:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node == node and hash(node) == node.h

    class Shadow(Var):
        """A node class that writes __eq__ and no __hash__."""
        __slots__ = ()

        def __eq__(self, other):
            return Var.__eq__(self, other)

    y = Shadow("y")
    assert hash(y) == y.h and {y: 1}[Shadow("y")] == 1


def test_hash_values_follow_the_node_recipe():
    """A node's hash is that of its tag and its children's hashes."""
    x, n = Var("x"), numeral_of(7)
    eq = Eq(x, n)
    assert ZERO.h == hash(("t0",))
    assert Succ(x).h == hash(("t1", x.h))
    assert Add(x, n).h == hash(("t2", x.h, n.h))
    assert n.h == hash(("tn", 7)) and x.h == hash(("t4", "x"))
    assert Kappa(2).h == hash(("t5", 2))
    assert Fn("sub", (n, x)).h == hash(("t6", "sub", n.h, x.h))
    assert eq.h == hash(("f0", x.h, n.h))
    assert Box(n).h == hash(("f1", n.h))
    assert Rel("act1", (x,)).h == hash(("f2", "act1", x.h))
    assert Imp(eq, eq).h == hash(("f5", eq.h, eq.h))
    assert Forall("x", eq).h == hash(("f6", "x", eq.h))


def _code(x):
    return encode_term(x) if isinstance(x, Term) else encode_sentence(x)


def _parts(x):
    """The children of a node, read off its fields."""
    out = [getattr(x, name) for name in ("arg", "left", "right", "body")
           if hasattr(x, name)]
    return out + list(getattr(x, "args", ()))


def test_node_equality_is_code_equality(corpus, session_store):
    """a == b exactly when a and b have one class and one code, and equal
    nodes hash alike.  The nodes are every part of the corpus's lines and
    of its sbox-pa entries' reflections, of random formulas, and of the
    dyadic views of numerals."""
    from asrt.reflection import reflect_theorem
    proofs = list(corpus)
    proofs += [reflect_theorem(p.config, p, session_store).output
               for p in corpus if p.theory == "sbox-pa"]
    rnd = random.Random(31)
    todo = [line.sentence for p in proofs for line in p.lines]
    todo += [_random_formula(rnd, rnd.randrange(1, 7), []) for _ in range(2000)]
    todo += [dyadic_view(numeral_of(rnd.randrange(2, 1 << rnd.randrange(2, 200))))
             for _ in range(200)]
    seen = {}
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            todo.extend(_parts(x))
    groups = {}
    for x in seen.values():
        groups.setdefault((type(x), _code(x)), []).append(x)

    def same(a, b, equal):
        assert (a == b) is equal and (b == a) is equal, (fmt(a), fmt(b))
        assert not equal or hash(a) == hash(b)

    # one class and one code: each node equals the first and the next
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            same(a, members[0], True)
            same(a, b, True)
    # another code: the groups of one class nearest in code, the nodes of
    # one hash, and random pairs
    reps = sorted(groups, key=lambda k: (k[0].__name__, k[1]))
    for i, key in enumerate(reps):
        for other in reps[i + 1:i + 4]:
            same(groups[key][0], groups[other][0], False)
    by_hash = {}
    for key in reps:
        by_hash.setdefault(hash(groups[key][0]), []).append(key)
    for keys in by_hash.values():
        for i, key in enumerate(keys):
            for other in keys[i + 1:]:
                same(groups[key][0], groups[other][0], False)
    nodes = list(seen.values())
    for _ in range(100_000):
        a, b = rnd.choice(nodes), rnd.choice(nodes)
        same(a, b, type(a) is type(b) and _code(a) == _code(b))
    assert len(groups) > 10_000 and len(nodes) > len(groups)


def test_a_numeral_is_one_object_however_it_is_made():
    """Numerals compare by identity: each reader and the decoder give the
    one interned leaf of a value."""
    text = "(= 123456789123456789 x)"
    a, b = parse_formula(text), parse_formula(text)
    c = decode_code(encode_sentence(a))
    assert a.left is b.left is c.left is numeral_of(123456789123456789)
