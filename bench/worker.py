"""One cold benchmark process: set up a workload's inputs, run its timed
phase once, check the outputs against known answers, and print one JSON
record on the last line of stdout.  ``run.py`` starts it; see NOTES.md.

    python3 bench/worker.py ROLE --t0 T --seed N --work DIR [--trace]

ROLE is ``reflect``, ``check`` or ``falsity`` for a timed repetition,
``setup-reflect``/``setup-check``/``setup-falsity`` for a set-up-only probe,
and ``gen`` to write the proof scripts the ``check`` workload reads.  T is
the parent's ``time.perf_counter()`` just before it started this process
(the clock is system-wide on Linux), so set-up time includes interpreter
start and imports.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

clock = time.perf_counter

# The relation code pair(TAG_REL, pair(name("gamma"), 1)): its argument-list
# payload 1 is off the list image, so it codes no formula.
OFF_IMAGE_REL_CODE = 1031293316863023811
MUTATIONS_PER_KIND = 4
RANDOM_DECODE_PROBES = 400
ITERATE = 3

# Known answers for the falsity workload, counted by hand from the corpus
# at stages=5, bound=64 (see NOTES.md).
SOUND_AUDIT = {"flagged": 0, "out": 49, "indeterminate": 10, "skipped": 1, "mp_checked": 200}
STAGES, BOUND, MP_SAMPLES = 5, 64, 200


class Ops:
    """Operation tally: a raise or a wrong answer is a failed operation.

    The one exception is a decode probe that raises the known defect (an
    off-image argument list makes ``decode_code`` raise TypeError, ROADMAP
    item 2): it is tallied in ``defects`` and printed by run.py instead, so
    that every run fails no operation and the defect still shows."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.errors: list[str] = []
        self.defects: list[str] = []

    def run(self, label, fn, expect, known_defect=None):
        """Call ``fn``; ``expect(result)`` returns an error text or None.
        A raise of type ``known_defect`` is a defect hit, not a failure."""
        self.attempted += 1
        try:
            result = fn()
        except Exception as e:   # a raise is a counted failure, not an abort
            text = f"{label}: raised {type(e).__name__}: {e}"[:300]
            if known_defect is not None and type(e) is known_defect:
                self.defects.append(text)
            else:
                self.failed += 1
                self.errors.append(text)
            return None
        problem = expect(result)
        if problem:
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"{label}: {problem}"[:300])
        return result


def timed_items(ops, items, fn):
    """Run ``fn(item)`` for each item in a closed loop; return ms per item."""
    ms = []
    for label, item, expect in items:
        start = clock()
        ops.run(label, lambda: fn(item), expect)
        ms.append((clock() - start) * 1000.0)
    return ms


# ---------------------------------------------------------------------------
# reflect: the write path
# ---------------------------------------------------------------------------

def setup_reflect(seed, work):
    from asrt import corpus, diagonal, kernel
    store = kernel.ProofStore()
    entries = corpus.build_corpus(store)
    t = kernel.sbox_pa()
    sources = [p for p in entries if p.theory == t.name]
    not_liar = diagonal.liar_suite(t, store).not_liar
    return t, store, sources, not_liar


def run_reflect(inputs, ops):
    from asrt import kernel, reflection, syntax
    t, store, sources, not_liar = inputs
    outputs = []
    lines = 0

    def reflect(proof):
        nonlocal lines
        lines += len(proof.lines)
        out = reflection.reflect_theorem(t, proof, store).output
        outputs.append(out)
        return out

    def concludes_box_of(proof):
        want = syntax.box_quote(proof.conclusion)
        return lambda out: None if out.conclusion == want else "wrong conclusion"

    start = clock()
    ms = timed_items(ops, [(f"corpus[{i}]", p, concludes_box_of(p))
                           for i, p in enumerate(sources)], reflect)
    # reflect_iterated(t, not_liar, 3), one reflect_theorem call per stage
    proof = not_liar
    for k in range(1, ITERATE + 1):
        done = len(outputs)
        ms += timed_items(ops, [(f"not_liar^{k}", proof, concludes_box_of(proof))], reflect)
        if len(outputs) == done:
            break
        proof = outputs[-1]
    run_s = clock() - start
    # every output must be accepted by the kernel (outside the timed phase)
    for out in outputs:
        ops.run("recheck reflected output", lambda: kernel.check_proof(t, out, store),
                lambda r: None if r.accepted else f"rejected at {r.failed_at}")
    return run_s, ms, lines


# ---------------------------------------------------------------------------
# check: the read path
# ---------------------------------------------------------------------------

def gen_scripts(work):
    """Write the sbox-pa corpus entries and their reflections as proof
    scripts, in session order (``asrt check`` registers each accepted one)."""
    from asrt import corpus, kernel, reflection
    store = kernel.ProofStore()
    entries = corpus.build_corpus(store)
    t = kernel.sbox_pa()
    sources = [p for p in entries if p.theory == t.name]
    reflected = [reflection.reflect_theorem(t, p, store).output for p in sources]
    work.mkdir(parents=True, exist_ok=True)
    for i, proof in enumerate(sources + reflected):
        kind = "source" if i < len(sources) else "reflected"
        (work / f"{i:03d}-{kind}.sexp").write_text(kernel.proof_to_sexp(proof) + "\n")


_JUST = re.compile(r" \((?:axiom|compute|hyp|mp \d+ \d+)\)\)$")


def _mutate(text, rng, kind):
    """A copy of a script rejected, by construction, at the returned line."""
    rows = text.splitlines()
    steps = len(rows) - 3          # "(proof", "(theory ..)", steps, ")"
    line = rng.randrange(steps)
    row = rows[line + 2]
    if kind == "false-eq":
        a = rng.randrange(1000)
        rows[line + 2] = f"  (step (= {a} {a + 1 + rng.randrange(1000)}) (compute))"
    elif kind == "mp-forward":      # a premise index >= the line's own index
        rows[line + 2] = _JUST.sub(f" (mp {line + rng.randrange(steps - line)} 0))", row)
    else:
        rows[line + 2] = _JUST.sub(" (hyp))", row)
    return "\n".join(rows) + "\n", line


def setup_check(seed, work):
    from asrt import kernel   # importing asrt raises the int-string digit limit
    scripts = [(p.name, p.read_text()) for p in sorted(work.glob("*.sexp"))]
    if not scripts:
        raise SystemExit("no proof scripts in " + str(work))
    rng = random.Random(seed)
    # mutate source scripts only: they are small, so the seed barely changes
    # how much text a run parses
    sources = [(n, s) for n, s in scripts if n.endswith("-source.sexp")]
    mutants = []
    for kind in ("false-eq", "mp-forward", "hyp"):
        for _ in range(MUTATIONS_PER_KIND):
            name, text = sources[rng.randrange(len(sources))]
            mutated, line = _mutate(text, rng, kind)
            mutants.append((f"{name}:{kind}@{line}", mutated, line))
    codes, seen = [], set()
    for _, text in scripts:
        for m in re.finditer(r"\(box (\d+)\)", text):
            if m.group(1) not in seen:
                seen.add(m.group(1))
                codes.append(int(m.group(1)))
    randoms = [rng.getrandbits(rng.randrange(1, 129)) for _ in range(RANDOM_DECODE_PROBES)]
    return kernel.sbox_pa(), scripts, mutants, codes, randoms + [OFF_IMAGE_REL_CODE]


def run_check(inputs, ops):
    from asrt import kernel, syntax
    t, scripts, mutants, codes, probes = inputs
    store = kernel.ProofStore()
    lines = 0

    def check(text):
        """What ``asrt check`` does per file."""
        nonlocal lines
        proof = kernel.proof_from_sexp(text)
        lines += len(proof.lines)
        report = kernel.check_proof(t, proof, store)
        if report.accepted:
            store.register(t, proof)
        return report

    def accepted(report):
        return None if report.accepted else f"rejected at {report.failed_at}: {report.reason}"

    def rejected_at(line):
        return lambda r: (None if not r.accepted and r.failed_at == line
                          else f"expected rejection at {line}, got {r.accepted}/{r.failed_at}")

    def sentence(r):
        return None if isinstance(r, syntax.Formula) and not r.free else "not a sentence"

    def verdict(r):
        return None if isinstance(r, (syntax.Formula, syntax.NotAFormula)) else "no verdict"

    def off_image(r):
        return None if isinstance(r, syntax.NotAFormula) else "decoded an off-image code"

    start = clock()
    ms = timed_items(ops, [(n, s, accepted) for n, s in scripts], check)
    ms += timed_items(ops, [(n, s, rejected_at(line)) for n, s, line in mutants], check)
    for c in codes:
        ops.run(f"decode box code of {c.bit_length()} bits", lambda: syntax.decode_code(c), sentence)
    for c in probes[:-1]:
        ops.run(f"decode {c}", lambda: syntax.decode_code(c), verdict, TypeError)
    ops.run(f"decode {probes[-1]}", lambda: syntax.decode_code(probes[-1]), off_image,
            TypeError)
    return clock() - start, ms, lines


# ---------------------------------------------------------------------------
# falsity: the stratified ledger
# ---------------------------------------------------------------------------

def setup_falsity(seed, work):
    from asrt import corpus
    return corpus.build_corpus(), corpus.build_unsound_corpus()


def run_falsity(inputs, ops):
    """audit_corpus(FalsityLedger(5, 64), build_corpus(), 5), one call per
    entry on a shared ledger so each theorem's time to verdict is an item;
    the MP sample budget carries over, so the work is the single call's.
    Then the unsound corpus at stage 1."""
    from asrt import semantics, syntax
    sound, unsound = inputs

    def audit_each(name, proofs, stage, expects):
        ledger = semantics.FalsityLedger(stages=STAGES, bound=BOUND)
        reports = []

        def call(proof):
            left = MP_SAMPLES - sum(r.mp_checked for r in reports)
            reports.append(semantics.audit_corpus(ledger, [proof], stage, mp_samples=left))
            return reports[-1]
        items = [(f"{name}[{i}]", p, e) for i, (p, e) in enumerate(zip(proofs, expects))]
        return timed_items(ops, items, call), reports

    def not_flagged(r):
        return None if not r.flagged else "a theorem judged false"

    falsum = syntax.box_quote(syntax.FALSUM)

    def flags_falsum(r):
        return None if [f for f, _ in r.flagged] == [falsum] else "box<0=1> not flagged"

    start = clock()
    ms, reports = audit_each("sound", sound, STAGES, [not_flagged] * len(sound))
    ms += audit_each("unsound", unsound, 1, [flags_falsum, not_flagged])[0]
    run_s = clock() - start
    totals = {
        "flagged": sum(len(r.flagged) for r in reports),
        "out": sum(r.out_count for r in reports),
        "indeterminate": sum(r.indeterminate_count for r in reports),
        "skipped": sum(r.skipped for r in reports),
        "mp_checked": sum(r.mp_checked for r in reports),
    }
    ops.run("sound audit totals", lambda: totals,
            lambda got: None if got == SOUND_AUDIT else f"totals {got}")
    return run_s, ms, sum(len(p.lines) for p in sound + unsound)


WORKLOADS = {
    "reflect": (setup_reflect, run_reflect),
    "check": (setup_check, run_check),
    "falsity": (setup_falsity, run_falsity),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("role")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    record = {}
    if args.role == "gen":
        gen_scripts(args.work)
        record["setup_s"] = clock() - args.t0
    else:
        workload = args.role.removeprefix("setup-")
        setup, run = WORKLOADS[workload]
        inputs = setup(args.seed, args.work)
        record["setup_s"] = clock() - args.t0
        if not args.role.startswith("setup-"):
            ops = Ops()
            run_s, items_ms, lines = run(inputs, ops)
            record.update(run_s=run_s, items_ms=items_ms, lines=lines,
                          attempted=ops.attempted, failed=ops.failed,
                          wrong=ops.wrong, errors=ops.errors, defects=ops.defects)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["trace"] = tracer.report()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
