"""Independent reference implementation of the published code scheme, used
as the oracle for golden values and for decoding.  Written against
docs/codec.md only; shares no code with the package but its node
constructors."""

import re

from asrt import syntax as s

TAGS = {
    "zero": 0, "succ": 1, "add": 2, "mul": 3, "var": 4, "kappa": 5,
    "numeral": 6, "sub": 7, "num": 8, "iterbox": 9, "numboxed": 10,
    "eq": 11, "box": 12, "and": 13, "or": 14, "imp": 15,
    "forall": 16, "exists": 17, "rel": 18,
}


def to_bits(n):
    out = []
    m = n + 1
    while m > 1:
        out.append(m & 1)
        m >>= 1
    out.reverse()
    return out


def from_bits(bits):
    m = 1
    for b in bits:
        m = (m << 1) | b
    return m - 1


def ref_pair(a, b):
    sa, sb = to_bits(a), to_bits(b)
    sl = to_bits(len(sa))
    return from_bits([1] * len(sl) + [0] + sl + sa + sb)


def ref_unpair(n):
    """Partial inverse of ref_pair, read off the bit layout: (a, b) when the
    string of n is 1^k 0 s(L) s(a) s(b) with |s(L)| = k and L = |s(a)|,
    None otherwise.  Works on strings of '0'/'1' so that it stays fast on
    codes of many thousand bits."""
    bits = bin(n + 1)[3:]                 # binary of n + 1, leading 1 removed
    k = len(bits) - len(bits.lstrip("1"))
    if k == len(bits):
        return None                       # no zero delimiter
    rest = bits[k + 1:]
    if len(rest) < k:
        return None
    la, rest = int("1" + rest[:k], 2) - 1, rest[k:]
    if len(rest) < la:
        return None
    return int("1" + rest[:la], 2) - 1, int("1" + rest[la:], 2) - 1


def ref_name(name):
    return int.from_bytes(name.encode("utf-8"), "big")


def ref_list(codes):
    out = 0
    for c in reversed(codes):
        out = ref_pair(c, out) + 1
    return out


def canonical_value(t):
    """Value of a canonical numeral term by pure pattern matching, or None."""
    if isinstance(t, s.Term) and type(t).__name__ == "_Zero":
        return 0
    if isinstance(t, s.Succ):
        inner = t.arg
        if type(inner).__name__ == "_Zero":
            return 1
        if isinstance(inner, s.Mul):
            m = _canonical_double(inner)
            return 2 * m + 1 if m is not None else None
        return None
    if isinstance(t, s.Mul):
        m = _canonical_double(t)
        return 2 * m if m is not None else None
    return None


def _canonical_double(t):
    # (s (s 0)) * <canonical m>, m >= 1
    two = t.left
    if not (isinstance(two, s.Succ) and isinstance(two.arg, s.Succ)
            and type(two.arg.arg).__name__ == "_Zero"):
        return None
    m = canonical_value(t.right)
    return m if m is not None and m >= 1 else None


def ref_encode_term(t):
    c = canonical_value(t)
    if c is not None and c >= 2:
        return ref_pair(TAGS["numeral"], c)
    name = type(t).__name__
    if name == "Num":
        # a canonical numeral >= 2 held as one leaf carrying its value
        return ref_pair(TAGS["numeral"], t.canon)
    if name == "_Zero":
        return ref_pair(TAGS["zero"], 0)
    if name == "Succ":
        return ref_pair(TAGS["succ"], ref_encode_term(t.arg))
    if name == "Add":
        return ref_pair(TAGS["add"], ref_pair(ref_encode_term(t.left),
                                              ref_encode_term(t.right)))
    if name == "Mul":
        return ref_pair(TAGS["mul"], ref_pair(ref_encode_term(t.left),
                                              ref_encode_term(t.right)))
    if name == "Var":
        return ref_pair(TAGS["var"], ref_name(t.name))
    if name == "Kappa":
        return ref_pair(TAGS["kappa"], t.index)
    if name == "Fn":
        tag = TAGS["numboxed" if t.name == "numboxed" else t.name]
        if len(t.args) == 1:
            return ref_pair(tag, ref_encode_term(t.args[0]))
        return ref_pair(tag, ref_pair(ref_encode_term(t.args[0]),
                                      ref_encode_term(t.args[1])))
    raise AssertionError(name)


def ref_encode(a):
    name = type(a).__name__
    if name == "Eq":
        return ref_pair(TAGS["eq"], ref_pair(ref_encode_term(a.left),
                                             ref_encode_term(a.right)))
    if name == "Box":
        return ref_pair(TAGS["box"], ref_encode_term(a.arg))
    if name in ("And", "Or", "Imp"):
        return ref_pair(TAGS[name.lower()],
                        ref_pair(ref_encode(a.left), ref_encode(a.right)))
    if name in ("Forall", "Exists"):
        return ref_pair(TAGS[name.lower()],
                        ref_pair(ref_name(a.var), ref_encode(a.body)))
    if name == "Rel":
        return ref_pair(TAGS["rel"],
                        ref_pair(ref_name(a.name),
                                 ref_list([ref_encode_term(x) for x in a.args])))
    raise AssertionError(name)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

class _Off(Exception):
    """The code is not in the image of the encoder."""


def _ref_name_of(n):
    if n == 0:
        raise _Off
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    try:
        name = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise _Off
    if "\x00" in name:
        raise _Off
    return name


def _ref_list_of(n):
    out = []
    while n:
        parts = ref_unpair(n - 1)
        if parts is None:
            raise _Off
        out.append(parts[0])
        n = parts[1]
    return out


def _halves(n):
    parts = ref_unpair(n)
    if parts is None:
        raise _Off
    return parts


def _structural(t):
    """A decoded term, refused when the constructors normalized it to a
    numeral leaf: such a term encodes through tag 6, not structurally."""
    if type(t).__name__ == "Num":
        raise _Off
    return t


_TAG_NAMES = {v: k for k, v in TAGS.items()}

# Every node of a path from the root adds a printed level except gamma (at
# most one on a path) and the (= 0 1) of a negation (at most one), so a
# tree deeper than this prints deeper than the cap; giving up here only
# bounds the recursion.
_TREE_CAP = s.MAX_NESTING + 3


def _term_of(n, level):
    if level > _TREE_CAP:
        raise _Off
    tag, p = _halves(n)
    kind = _TAG_NAMES.get(tag)
    if kind == "zero" and p == 0:
        return s.ZERO
    if kind == "numeral" and p >= 2:
        return s.numeral_of(p)
    if kind == "var":
        return s.Var(_ref_name_of(p))
    if kind == "kappa" and p >= 1:
        return s.Kappa(p)
    if kind == "succ":
        return _structural(s.Succ(_term_of(p, level + 1)))
    if kind in ("add", "mul"):
        a, b = _halves(p)
        make = s.Add if kind == "add" else s.Mul
        return _structural(make(_term_of(a, level + 1), _term_of(b, level + 1)))
    if kind in ("num", "numboxed"):
        return s.Fn(kind, (_term_of(p, level + 1),))
    if kind in ("sub", "iterbox"):
        a, b = _halves(p)
        return s.Fn(kind, (_term_of(a, level + 1), _term_of(b, level + 1)))
    raise _Off


def _formula_of(n, level):
    if level > _TREE_CAP:
        raise _Off
    tag, p = _halves(n)
    kind = _TAG_NAMES.get(tag)
    if kind == "eq":
        a, b = _halves(p)
        return s.Eq(_term_of(a, level + 1), _term_of(b, level + 1))
    if kind == "box":
        return s.Box(_term_of(p, level + 1))
    if kind in ("and", "or", "imp"):
        a, b = _halves(p)
        make = {"and": s.And, "or": s.Or, "imp": s.Imp}[kind]
        return make(_formula_of(a, level + 1), _formula_of(b, level + 1))
    if kind in ("forall", "exists"):
        a, b = _halves(p)
        make = s.Forall if kind == "forall" else s.Exists
        return make(_ref_name_of(a), _formula_of(b, level + 1))
    if kind == "rel":
        a, b = _halves(p)
        name, codes = _ref_name_of(a), _ref_list_of(b)
        if not prints_back(name, len(codes)):
            raise _Off
        return s.Rel(name, [_term_of(c, level + 1) for c in codes])
    raise _Off


_THEORY_NAME = re.compile(r"[a-z][a-z0-9-]*")
_THEORY_FAMILIES = (("prov:", 1), ("ax:", 1), ("proofof:", 2))


def prints_back(name, count):
    """Whether a relation atom of this name and argument count is one the
    printer writes and the parser reads back (docs/codec.md): gamma with no
    arguments, act<i> with i written without leading zeros and one
    argument, prov:T and ax:T with one, proofof:T with two."""
    if name == "gamma":
        return count == 0
    if name.startswith("act"):
        index = name[3:]
        return (count == 1 and index.isascii() and index.isdigit()
                and (index == "0" or not index.startswith("0")))
    for family, arity in _THEORY_FAMILIES:
        if name.startswith(family):
            return count == arity and _THEORY_NAME.fullmatch(name[len(family):]) is not None
    return False


def _is_leaf(x):
    """Printed without parentheses: a canonical numeral (0, 1 and the
    leaves), a variable, gamma."""
    name = type(x).__name__
    return (name in ("_Zero", "Num", "Var") or canonical_value(x) is not None
            or (name == "Rel" and x.name == "gamma" and not x.args))


def _children(x):
    name = type(x).__name__
    if name in ("Succ", "Box"):
        return [x.arg]
    if name in ("Add", "Mul", "Eq", "And", "Or"):
        return [x.left, x.right]
    if name == "Imp":       # (-> A (= 0 1)) prints as (not A)
        return [x.left] if x.right == s.FALSUM else [x.left, x.right]
    if name in ("Forall", "Exists"):
        return [x.body]
    if name in ("Fn", "Rel"):
        return list(x.args)
    return []


def printed_levels(x):
    """How many parentheses deep the printed text of x nests (x holds only
    relation atoms that print back)."""
    if _is_leaf(x):
        return 0
    return 1 + max((printed_levels(c) for c in _children(x)), default=0)


def ref_decode(n):
    """The formula whose code is n, or None when n is off the image: read
    by the tag table, and refused when it holds a relation atom that does
    not print back or would print more than MAX_NESTING parentheses deep."""
    try:
        a = _formula_of(n, 0)
    except _Off:
        return None
    return a if printed_levels(a) <= s.MAX_NESTING else None
