"""Batch command line: check proof scripts, reflect theorems, audit the
falsity ledger, run the named demos, query licensing, and drive the codec.

All machine output is JSON lines on stdout, one record per line; a trailing
record carries the summary.  Exit codes: 0 success, 1 check or audit
failure, 2 usage error, 3 internal error.  Records carry a timestamp field
unless --no-timestamp is given, so reruns are byte-identical.

ASRT_PROOF_STORE names a directory of proof scripts loaded (and re-checked)
into the session store at startup; registered provability facts come from
there.  A proof names its theory: a preset, or a theory file
``<name>.theory.json`` beside it in a store or ``falsity --corpus``
directory.  ``demo --outdir`` writes one such file for each theory of a
written proof that is not a preset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

# the trusted core only: each subcommand imports the layers it runs
from .syntax import (
    FALSUM, DigitLimitError, EvalError, FreeVariableError, NotAFormula, ParseError,
    _THEORY_RE, Tokens, box_quote, decimal, decode_code, encode_sentence, encode_term,
    fmt, parse_formula, parse_sentence, parse_term,
)
from .kernel import (
    KernelError, ProofObject, ProofStore, TheoryConfig, UnknownTheoryError,
    preset_theory, proof_from_sexp, proof_to_sexp, sstar,
)

__all__ = ["main", "run"]

DEMOS = ("liar-suite", "release-hazard", "em-hazard",
         "naturalistic-trust", "reflective-trust", "coherent-trust",
         "disjunctive-trust", "too-much", "delegation", "unsound-base",
         "consistency-sample", "corpus")


class _Out:
    def __init__(self, timestamp: bool):
        self.timestamp = timestamp

    def emit(self, record: dict) -> None:
        if self.timestamp:
            record = {**record, "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
        sys.stdout.write(json.dumps(record) + "\n")


def _load_store(out: _Out) -> ProofStore:
    store = ProofStore()
    named = os.environ.get("ASRT_PROOF_STORE")
    if not named:
        return store
    root = _directory(named, "ASRT_PROOF_STORE")
    theories = _load_theories(root)
    for path in sorted(root.glob("*.sexp")):
        try:
            proof = proof_from_sexp(_read_text(path))
            store.register(_theory(proof.theory, store, theories), proof)
        except (KernelError, ParseError, ValueError) as e:
            out.emit({"kind": "store-skip", "file": str(path), "reason": str(e)})
    return store


def _theory(name: str, store: ProofStore,
            theories: Optional[dict[str, TheoryConfig]] = None) -> TheoryConfig:
    """The configuration called ``name`` (a proof's theory or --theory):
    one loaded from a theory file, the one the session store holds under
    that name, or a preset."""
    t = (theories or {}).get(name) or store.theory(name)
    return t if t is not None else preset_theory(name)


def _directory(path: str, what: str) -> Path:
    """``path``, which must name an existing directory."""
    if not Path(path).is_dir():
        raise NotADirectoryError(f"{what} {path!r} is not a directory")
    return Path(path)


def _read_text(path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text", e.start) from None


_THEORY_FLAGS = ("classical", "allow_box", "jump_axiom", "allow_agent",
                 "iterbox_axioms")


def _is_preset(name: str) -> bool:
    try:
        preset_theory(name)
    except UnknownTheoryError:
        return False
    return True


def _theory_from_file(path) -> TheoryConfig:
    try:
        spec = json.loads(_read_text(path))
    except RecursionError:
        # json nests through the interpreter stack
        raise ParseError(f"{path} nests too deeply", 0) from None
    if not isinstance(spec, dict) or not isinstance(spec.get("name"), str):
        raise ParseError(f"{path} is not a JSON object with a string \"name\"", 0)
    if not _THEORY_RE.fullmatch(spec["name"]):
        # a name that scripts and formulas cannot write
        raise ParseError(f"{path}: theory name {spec['name']!r} must be a lowercase "
                         "ASCII letter followed by lowercase letters, digits or '-'", 0)
    if _is_preset(spec["name"]):
        raise ParseError(f"{path}: {spec['name']!r} is the name of a preset theory", 0)
    for key in _THEORY_FLAGS:
        if not isinstance(spec.get(key, False), bool):
            raise ParseError(f"{path}: \"{key}\" must be true or false", 0)
    kappa_count = spec.get("kappa_count", 0)
    if type(kappa_count) is not int or kappa_count < 0:
        raise ParseError(f"{path}: \"kappa_count\" must be a natural number", 0)
    extra = spec.get("extra_axioms", [])
    if not isinstance(extra, list) or not all(isinstance(s, str) for s in extra):
        raise ParseError(f"{path}: \"extra_axioms\" must be a list of strings", 0)
    return TheoryConfig(
        name=spec["name"],
        classical=spec.get("classical", True),
        allow_box=spec.get("allow_box", True),
        jump_axiom=spec.get("jump_axiom", True),
        allow_agent=spec.get("allow_agent", False),
        kappa_count=kappa_count,
        iterbox_axioms=spec.get("iterbox_axioms", False),
        extra_axioms=tuple(parse_sentence(s) for s in extra))


def _theory_file_text(t: TheoryConfig) -> str:
    """``t`` in the theory file format, every field written out."""
    spec = {name: getattr(t, name) for name in t._fields}
    spec["extra_axioms"] = [fmt(a) for a in t.extra_axioms]
    return json.dumps(spec, indent=2) + "\n"


def _load_theories(root: Path) -> dict[str, TheoryConfig]:
    """The theories of the theory files ``*.theory.json`` in ``root``."""
    theories: dict[str, TheoryConfig] = {}
    for path in sorted(root.glob("*.theory.json")):
        t = _theory_from_file(path)
        if theories.setdefault(t.name, t) != t:
            raise ParseError(f"{path}: another file defines {t.name!r} differently", 0)
    return theories


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args, out: _Out, store: ProofStore) -> int:
    t = _theory_from_file(args.theory_file) if args.theory_file else _theory(args.theory, store)
    failures = 0
    for path in args.files:
        proof = proof_from_sexp(_read_text(path))
        # accepted files are registered: later files may cite them through
        # prov facts
        report = store.submit(t, proof)
        for r in report.records:
            out.emit({"kind": "line", "file": path, "index": r.index,
                      "rule": r.rule, "note": r.note})
        record = {"kind": "verdict", "file": path, "accepted": report.accepted,
                  "lines": len(proof.lines)}
        if not report.accepted:
            record.update(failed_at=report.failed_at, reason=report.reason)
            failures += 1
        else:
            try:
                record["conclusion"] = fmt(proof.conclusion)
            except DigitLimitError as e:
                # the file's verdict cannot be written; the next files are checked
                record = {"kind": "error", "file": path, "reason": str(e)}
                failures += 1
        out.emit(record)
    return 1 if failures else 0


def _cmd_reflect(args, out: _Out, store: ProofStore) -> int:
    from .reflection import reflect_iterated, reflect_theorem
    t = _theory_from_file(args.theory_file) if args.theory_file else _theory(args.theory, store)
    proof = proof_from_sexp(_read_text(args.file))
    if args.iterate == 1:
        trace = reflect_theorem(t, proof, store)
        result = trace.output
        maps = [{"kind": "map", "source": src, "boxed_line": dst,
                 "segment": list(trace.segments[src])} for src, dst in trace.line_map]
    else:
        result, maps = reflect_iterated(t, proof, args.iterate, store), []
    # the text is made before anything is emitted or written: a numeral past
    # the digit limit (DigitLimitError) leaves no record and no -o file
    text = proof_to_sexp(result)
    for record in maps:
        out.emit(record)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    out.emit({"kind": "reflected", "iterate": args.iterate,
              "lines": len(result.lines), "conclusion": fmt(result.conclusion)})
    return 0


def _cmd_falsity(args, out: _Out, store: ProofStore) -> int:
    from .semantics import FalsityLedger, audit_corpus
    ledger = FalsityLedger(stages=args.stages, bound=args.bound)
    proofs: list[ProofObject] = []
    paths: list[Path] = []
    theories: dict[str, TheoryConfig] = {}
    if args.corpus:
        root = _directory(args.corpus, "--corpus")
        paths += sorted(root.glob("*.sexp"))
        theories = _load_theories(root)
    paths += [Path(f) for f in args.files]
    for path in paths:
        proof = proof_from_sexp(_read_text(path))
        t = _theory(proof.theory, store, theories)
        # registered in session order: later entries may cite it
        report = store.submit(t, proof)
        if not report.accepted:
            out.emit({"kind": "verdict", "file": str(path), "accepted": False,
                      "failed_at": report.failed_at, "reason": report.reason})
            return 1
        proofs.append(proof)
    audit = audit_corpus(ledger, proofs, args.stages)
    for row in audit.rows():
        out.emit(row)
    return 0 if audit.ok else 1


def _cmd_license(args, out: _Out, store: ProofStore) -> int:
    from .agency import licenses, policy_from_sexp
    policy = policy_from_sexp(_read_text(args.policy))
    proof = proof_from_sexp(_read_text(args.proved))
    t = _theory(proof.theory, store)
    store.register(t, proof)
    actions = licenses(policy, proof.conclusion, store)
    out.emit({"kind": "license", "proved": fmt(proof.conclusion),
              "actions": sorted(actions)})
    return 0


def _cmd_codec(args, out: _Out, store: ProofStore) -> int:
    text = _read_text(args.file) if args.file else sys.stdin.read()
    if args.direction == "encode":
        try:
            code = encode_sentence(parse_formula(text))
        except ParseError as formula_error:
            try:
                code = encode_term(parse_term(text))
            except ParseError as term_error:
                # the parse that read further names the fault
                if formula_error.pos > term_error.pos:
                    raise formula_error from None
                raise
        out.emit({"kind": "code", "code": decimal(code)})
        return 0
    # one literal, as scripts write them: ASCII digits within the digit limit
    ts = Tokens(text)
    code = ts.literal(ts.next()) if ts.peek() is not None else None
    if code is None:
        raise ParseError("expected a decimal natural number", 0)
    ts.finish()
    result = decode_code(code)
    if isinstance(result, NotAFormula):
        out.emit({"kind": "decoded", "ok": False, "reason": result.reason})
        return 1
    out.emit({"kind": "decoded", "ok": True, "sentence": fmt(result)})
    return 0


def _write_proofs(outdir: Optional[str], named: list[tuple[str, ProofObject]],
                  out: _Out, store: ProofStore) -> None:
    """Write each proof, and each theory of a proof that is not a preset,
    taking its configuration from the session store."""
    if not outdir:
        return
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    for name, proof in named:
        (root / f"{name}.sexp").write_text(proof_to_sexp(proof) + "\n")
        out.emit({"kind": "wrote", "file": str(root / f"{name}.sexp")})
    for name in sorted({proof.theory for _, proof in named}):
        if not _is_preset(name):
            text = _theory_file_text(store.theory(name))
            (root / f"{name}.theory.json").write_text(text)


def _cmd_demo(args, out: _Out, store: ProofStore) -> int:
    from .corpus import build_corpus, build_unsound_corpus
    from .agency import delegation_derivation, too_much_demo, trust_demo
    from .diagonal import hazard_demos, liar_suite
    from .reflection import assertible_consistency_instance
    from .semantics import FalsityLedger, audit_corpus
    name = args.name
    if name not in DEMOS:
        out.emit({"kind": "error", "reason": f"unknown demo {name!r}",
                  "available": list(DEMOS)})
        return 2
    t = preset_theory("sbox-pa")
    named: list[tuple[str, ProofObject]] = []
    if name == "liar-suite":
        suite = liar_suite(t, store)
        named = [("not-liar", suite.not_liar),
                 ("boxed-not-liar", suite.boxed_not_liar),
                 ("collapse", suite.collapse)]
        for label, proof in named:
            out.emit({"kind": "theorem", "name": label,
                      "conclusion": fmt(proof.conclusion),
                      "lines": len(proof.lines)})
        out.emit({"kind": "non-goals", "never-derived":
                  [fmt(s) for s in suite.excluded_conclusions()]})
    elif name in ("release-hazard", "em-hazard"):
        release, em = hazard_demos(t, store)
        proof = release if name == "release-hazard" else em
        named = [(name, proof)]
        out.emit({"kind": "theorem", "name": name,
                  "conclusion": fmt(proof.conclusion), "lines": len(proof.lines)})
    elif name.endswith("-trust"):
        result = trust_demo(name[:-len("-trust")], store)
        named = [(name, result.proof)]
        for row in result.manifest():
            out.emit(row)
    elif name == "too-much":
        result = too_much_demo(store)
        named = [(name, result.proof)]
        for row in result.manifest():
            out.emit(row)
    elif name == "delegation":
        # agent i delegates to agent i+1 in sstar-<agents>: kappa_1..kappa_agents
        if not 1 <= args.level < args.agents:
            out.emit({"kind": "error", "reason": "demo delegation needs "
                      f"1 <= --level < --agents, got --level {args.level} "
                      f"and --agents {args.agents}"})
            return 2
        result = delegation_derivation(sstar(args.agents), args.action,
                                       level=args.level, store=store)
        named = [(name, result.proof)]
        for row in result.manifest():
            out.emit(row)
    elif name == "unsound-base":
        proofs = build_unsound_corpus(store)
        named = [(f"unsound-{i}", p) for i, p in enumerate(proofs)]
        ledger = FalsityLedger(stages=5, bound=64)
        audit = audit_corpus(ledger, proofs, 1)
        for row in audit.rows():
            out.emit(row)
        out.emit({"kind": "expected", "flagged": fmt(box_quote(FALSUM))})
    elif name == "consistency-sample":
        for g in range(args.instances):
            proof = assertible_consistency_instance(t, g, store)
            named.append((f"consistency-{g}", proof))
        out.emit({"kind": "consistency", "instances": args.instances,
                  "all_accepted": True})
    elif name == "corpus":
        proofs = build_corpus(store)
        named = [(f"corpus-{i:03d}", p) for i, p in enumerate(proofs)]
        out.emit({"kind": "corpus", "size": len(proofs)})
    _write_proofs(args.outdir, named, out, store)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="asrt",
        description="proof kernel for a self-applicative assertibility logic")
    p.add_argument("--no-timestamp", action="store_true",
                   help="suppress timestamps for reproducible output")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="check proof scripts")
    c.add_argument("--theory", default="sbox-pa")
    c.add_argument("--theory-file")
    c.add_argument("files", nargs="+")

    r = sub.add_parser("reflect", help="transform a proof of A into a proof of box<A>")
    r.add_argument("--theory", default="sbox-pa")
    r.add_argument("--theory-file")
    r.add_argument("--iterate", type=int, default=1)
    r.add_argument("-o", "--output")
    r.add_argument("file")

    f = sub.add_parser("falsity", help="audit proofs against the falsity ledger")
    f.add_argument("--stages", type=int, default=5)
    f.add_argument("--bound", type=int, default=64)
    f.add_argument("--corpus", help="directory of .sexp proof scripts")
    f.add_argument("files", nargs="*")

    d = sub.add_parser("demo", help="run a named scenario")
    d.add_argument("name")
    d.add_argument("--outdir")
    d.add_argument("--agents", type=int, default=2)
    d.add_argument("--level", type=int, default=1)
    d.add_argument("--action", type=int, default=7)
    d.add_argument("--instances", type=int, default=10)

    l = sub.add_parser("license", help="query a policy with a proved sentence")
    l.add_argument("--policy", required=True)
    l.add_argument("--proved", required=True)

    k = sub.add_parser("codec", help="encode or decode sentences")
    k.add_argument("direction", choices=("encode", "decode"))
    k.add_argument("file", nargs="?")
    return p


# integer options that count or name naturals
_NATURAL_OPTIONS = ("stages", "bound", "iterate", "agents", "level", "action",
                    "instances")


def _negative_options(args) -> list[str]:
    """The natural-number options given a negative value, as flags."""
    return [f"--{name}" for name in _NATURAL_OPTIONS
            if getattr(args, name, 0) < 0]


_COMMANDS = {
    "check": _cmd_check,
    "reflect": _cmd_reflect,
    "falsity": _cmd_falsity,
    "demo": _cmd_demo,
    "license": _cmd_license,
    "codec": _cmd_codec,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    out = _Out(timestamp=not args.no_timestamp)
    negative = _negative_options(args)
    if negative:
        out.emit({"kind": "error",
                  "reason": " and ".join(negative) + " must be naturals"})
        return 2
    try:
        store = _load_store(out)
        return _COMMANDS[args.command](args, out, store)
    except (ParseError, FreeVariableError, UnknownTheoryError, OSError,
            json.JSONDecodeError) as e:
        out.emit({"kind": "error", "reason": str(e)})
        return 2
    except (KernelError, EvalError, DigitLimitError) as e:
        out.emit({"kind": "error", "reason": str(e)})
        return 1
    except Exception as e:   # pragma: no cover - defensive
        out.emit({"kind": "internal-error", "reason": repr(e)})
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
