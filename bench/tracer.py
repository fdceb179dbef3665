"""Span tracing around calls into the asrt modules, installed from outside.

Each traced function is rebound in every ``asrt.*`` namespace that holds it,
so ``from .syntax import numeral_of`` call sites and recursive calls through
module globals are covered; methods are rebound on their class.  A span's
parent is the span open below it on the stack.  Spans are folded into
per-function aggregates as they close, because a falsity run opens millions
of them: ``calls``, ``total_s`` (outermost spans only, so recursion is not
counted twice) and ``self_s`` (span time minus the time of child spans).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module, qualified name; the layers are the package modules
TRACED = (
    ("syntax", "numeral_of"),
    ("syntax", "encode_sentence"),
    ("syntax", "decode_code"),
    ("syntax", "substitute"),
    ("syntax", "eval_term"),
    ("kernel", "proof_from_sexp"),
    ("kernel", "check_proof"),
    ("kernel", "is_axiom"),
    ("kernel", "admit_computation"),
    ("kernel", "proof_code_valid"),
    ("kernel", "ProofStore.register"),
    ("kernel", "Builder.axiom"),
    ("kernel", "Builder.compute"),
    ("kernel", "Builder.mp"),
    ("reflection", "reflect_theorem"),
    ("semantics", "FalsityLedger.member"),
    ("semantics", "audit_corpus"),
    ("corpus", "build_corpus"),
    ("diagonal", "liar_suite"),
    ("agency", "trust_demo"),
    ("agency", "delegation_derivation"),
)

# decode_code calls that raised: the known defect of ROADMAP item 2
DECODE_RAISED = "syntax.decode_code.raised"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}        # name -> [calls, total_s, self_s]
        self.outcomes: Counter = Counter()      # outcome counter -> count
        self._stack: list[list[float]] = []     # [start, child_s] per open span
        self._active: Counter = Counter()

    def install(self) -> None:
        """Import every asrt module and rebind each traced function."""
        import importlib
        for mod in {mod for mod, _ in TRACED}:
            importlib.import_module("asrt." + mod)
        from asrt.semantics import Verdict
        from asrt.syntax import NotAFormula
        # traced function -> (outcome counter, test on its result)
        rules = {
            "kernel.check_proof": ("kernel.check_proof.rejected", lambda r: not r.accepted),
            "kernel.is_axiom": ("kernel.is_axiom.hits", lambda r: r is not None),
            "semantics.FalsityLedger.member":
                ("semantics.member.indeterminate", lambda r: r is Verdict.INDETERMINATE),
            "syntax.decode_code":
                ("syntax.decode_code.not_a_formula", lambda r: isinstance(r, NotAFormula)),
        }
        self.outcomes.update({key: 0 for key, _ in rules.values()})
        self.outcomes[DECODE_RAISED] = 0
        namespaces = [m for name, m in sys.modules.items()
                      if name == "asrt" or name.startswith("asrt.")]
        for mod, qualname in TRACED:
            name = f"{mod}.{qualname}"
            owner = sys.modules["asrt." + mod]
            if "." in qualname:
                cls, attr = qualname.split(".")
                owner = getattr(owner, cls)
                setattr(owner, attr, self._wrap(name, vars(owner)[attr], rules.get(name)))
                continue
            orig = getattr(owner, qualname)
            wrapped = self._wrap(name, orig, rules.get(name))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapped)

    def _wrap(self, name, fn, outcome):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, counts = self._stack, self._active, self.outcomes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [clock(), 0.0]
            stack.append(span)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "syntax.decode_code":
                    counts[DECODE_RAISED] += 1
                raise
            finally:
                dur = clock() - span[0]
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                stats[2] += dur - span[1]
                if not active[name]:
                    stats[1] += dur
                if stack:
                    stack[-1][1] += dur
            if outcome is not None and outcome[1](result):
                counts[outcome[0]] += 1
            return result
        return traced

    def report(self) -> dict:
        """Aggregates as flat ``<module>.<function>.<field>`` numbers."""
        out = {}
        for mod, qualname in TRACED:
            name = f"{mod}.{qualname}"
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        out.update(self.outcomes)
        return out
