"""Independent reference implementation of the published code scheme, used
as the oracle for golden values.  Written against docs/codec.md only; shares
no code with the package."""

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
