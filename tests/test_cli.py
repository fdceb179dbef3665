import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import settings, given, strategies as st

from asrt import cli
from asrt.cli import DEMOS, run
from asrt.kernel import (
    SSTAR_MAX_KAPPA, ProofStore, check_proof, pa, proof_from_sexp, sbox_pa,
)
from asrt.syntax import (
    FALSUM, MAX_NESTING, DigitLimitError, Imp, decimal, encode_sentence, fmt_prefix,
    parse_formula,
)

DEMO_DIGESTS = Path(__file__).with_name("demo_digests.json")


@pytest.fixture()
def refl_proof(tmp_path):
    path = tmp_path / "refl.sexp"
    path.write_text("(proof\n  (theory sbox-pa)\n"
                    "  (step (forall x (= x x)) (axiom)))\n")
    return path


def _records(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")]


def test_check_accepts(refl_proof, capsys):
    code = run(["--no-timestamp", "check", str(refl_proof)])
    rows = _records(capsys)
    assert code == 0
    assert rows[-1]["accepted"] is True


def test_check_rejects_bad_proof(tmp_path, capsys):
    path = tmp_path / "bad.sexp"
    path.write_text("(proof (theory sbox-pa) (step (= 0 1) (axiom)))\n")
    code = run(["--no-timestamp", "check", str(path)])
    rows = _records(capsys)
    assert code == 1
    assert rows[-1]["accepted"] is False and rows[-1]["failed_at"] == 0


def test_check_runs_the_checker_once_per_script(refl_proof, tmp_path, monkeypatch,
                                               capsys):
    """An accepted script is checked once and registered by that check."""
    from asrt import kernel
    calls = []
    check = kernel.check_proof

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)
    monkeypatch.setattr(kernel, "check_proof", counted)
    bad = tmp_path / "bad.sexp"
    bad.write_text("(proof (theory sbox-pa) (step (= 0 1) (axiom)))\n")
    assert run(["--no-timestamp", "check", str(refl_proof), str(bad)]) == 1
    assert len(calls) == 2
    assert [r["accepted"] for r in _records(capsys) if r["kind"] == "verdict"] == [
        True, False]


@pytest.mark.parametrize("argv, store", [
    (["falsity", "--corpus", "missing"], None),
    (["falsity", "--corpus", "refl.sexp"], None),
    (["check", "refl.sexp"], "missing"),
    (["check", "refl.sexp"], "refl.sexp"),
])
def test_missing_directory_is_a_usage_error(argv, store, refl_proof, monkeypatch,
                                            capsys):
    # a corpus or store path that names no directory used to read as empty
    monkeypatch.chdir(refl_proof.parent)
    if store is None:
        monkeypatch.delenv("ASRT_PROOF_STORE", raising=False)
    else:
        monkeypatch.setenv("ASRT_PROOF_STORE", store)
    assert run(["--no-timestamp", *argv]) == 2
    rows = _records(capsys)
    assert len(rows) == 1 and rows[0]["kind"] == "error"
    assert "is not a directory" in rows[0]["reason"]


@pytest.mark.parametrize("argv, path", [
    (["check", "adir"], "adir"),
    (["check", "--theory-file", "adir", "refl.sexp"], "adir"),
    (["reflect", "-o", "adir", "refl.sexp"], "adir"),
    (["license", "--policy", "adir", "--proved", "refl.sexp"], "adir"),
    (["demo", "corpus", "--outdir", "afile"], "afile"),
])
def test_a_path_of_the_wrong_kind_is_a_usage_error(argv, path, refl_proof, monkeypatch,
                                                   capsys):
    # a directory where a file is read or written, or a file where a
    # directory is made, used to end in internal-error (exit 3)
    monkeypatch.chdir(refl_proof.parent)
    monkeypatch.delenv("ASRT_PROOF_STORE", raising=False)
    (refl_proof.parent / "adir").mkdir()
    (refl_proof.parent / "afile").write_text("")
    assert run(["--no-timestamp", *argv]) == 2
    last = _records(capsys)[-1]
    assert last["kind"] == "error" and repr(path) in last["reason"]


def test_check_refuses_a_second_configuration_before_checking(tmp_path, monkeypatch,
                                                               capsys):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    (store_dir / "x.theory.json").write_text('{"name": "x"}')
    script = store_dir / "zero.sexp"
    script.write_text("(proof (theory x) (step (= 0 0) (axiom)))\n")
    other = tmp_path / "other.json"
    other.write_text('{"name": "x", "classical": false}')
    monkeypatch.setenv("ASRT_PROOF_STORE", str(store_dir))
    assert run(["--no-timestamp", "check", "--theory-file", str(other), str(script)]) == 1
    rows = _records(capsys)
    assert [r["kind"] for r in rows] == ["error"]
    assert "registered differently" in rows[0]["reason"]


def test_check_unknown_theory_usage_error(refl_proof, capsys):
    assert run(["--no-timestamp", "check", "--theory", "bogus",
                str(refl_proof)]) == 2


def test_unknown_command_usage_error(capsys):
    assert run(["--no-timestamp", "frobnicate"]) == 2


def test_reflect_writes_checked_proof(refl_proof, tmp_path, capsys):
    out = tmp_path / "boxed.sexp"
    assert run(["--no-timestamp", "reflect", str(refl_proof),
                "-o", str(out)]) == 0
    assert run(["--no-timestamp", "check", str(out)]) == 0


def test_reflect_iterate(refl_proof, tmp_path, capsys):
    out = tmp_path / "boxed2.sexp"
    assert run(["--no-timestamp", "reflect", "--iterate", "2",
                str(refl_proof), "-o", str(out)]) == 0
    proof = proof_from_sexp(out.read_text())
    from asrt.syntax import strip_box
    assert strip_box(strip_box(proof.conclusion)) is not None


@pytest.mark.parametrize("k", ["0", "1"])
def test_reflect_judges_the_source_at_every_iterate(k, tmp_path, capsys):
    """Every iterate count judges the source: a rejected script is not
    printed back, even at --iterate 0."""
    path = tmp_path / "bad.sexp"
    path.write_text("(proof (theory sbox-pa) (step (= 0 1) (axiom)))\n")
    assert run(["--no-timestamp", "reflect", "--iterate", k, str(path)]) == 1
    out = capsys.readouterr().out
    assert "(proof" not in out
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["kind"] for r in rows] == ["error"]
    assert rows[0]["reason"].startswith("proof rejected at line 0: ")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _asrt_env() -> dict:
    import asrt
    # run the package this test imported, wherever it was found
    return {**os.environ, "PYTHONPATH": str(Path(asrt.__file__).parents[1])}


def _demo_digests(name: str, cwd: Path) -> dict:
    """sha256 of the stdout of one cold ``python -m asrt --no-timestamp demo``
    run in ``cwd`` and of every file it writes under the relative outdir."""
    out = subprocess.run([sys.executable, "-m", "asrt", "--no-timestamp", "demo",
                          name, "--outdir", "out"], cwd=cwd, env=_asrt_env(),
                         capture_output=True, timeout=600)
    assert out.returncode == 0, (name, out.stderr.decode()[-2000:])
    outdir = cwd / "out"
    files = {p.relative_to(outdir).as_posix(): _sha256(p.read_bytes())
             for p in sorted(outdir.rglob("*")) if p.is_file()}
    return {"stdout": _sha256(out.stdout), "files": files}


def test_demo_names_all_run(tmp_path):
    # every demo's output and written proofs, byte for byte, against digests
    # taken from a reference tree
    expected = {name: entry for name, entry in json.loads(DEMO_DIGESTS.read_text()).items()
                if not name.startswith("demos/")}
    got = {}
    for name in DEMOS:
        cwd = tmp_path / name
        cwd.mkdir()
        got[name] = _demo_digests(name, cwd)
    assert got == expected, "new digests:\n" + json.dumps(got, indent=1, sort_keys=True)


DEMO_SCRIPTS = sorted(Path(__file__).parents[1].glob("demos/*.py"))


@pytest.mark.parametrize("script", DEMO_SCRIPTS, ids=[p.name for p in DEMO_SCRIPTS])
def test_demo_script_output(script, tmp_path):
    # the stdout of each narrative script, byte for byte
    expected = json.loads(DEMO_DIGESTS.read_text())[f"demos/{script.name}"]
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=_asrt_env(),
                         capture_output=True, timeout=600)
    assert out.returncode == 0, out.stderr.decode()[-2000:]
    assert {"stdout": _sha256(out.stdout)} == expected, out.stdout.decode()


def test_demo_unknown_name(capsys):
    assert run(["--no-timestamp", "demo", "nonsense"]) == 2


def _cold_asrt(cwd: Path, *argv: str, **env: str) -> subprocess.CompletedProcess:
    """One cold ``python -m asrt --no-timestamp`` run in ``cwd``."""
    return subprocess.run([sys.executable, "-m", "asrt", "--no-timestamp", *argv],
                          cwd=cwd, env={**_asrt_env(), **env}, capture_output=True,
                          text=True, timeout=600)


def test_falsity_on_written_corpus(tmp_path):
    # two cold processes: the directory alone must carry the demo theories
    assert _cold_asrt(tmp_path, "demo", "corpus", "--outdir", "regression").returncode == 0
    audit = _cold_asrt(tmp_path, "falsity", "--stages", "5", "--bound", "64",
                       "--corpus", "regression")
    assert audit.returncode == 0, audit.stdout[-2000:]
    assert json.loads(audit.stdout.splitlines()[-1]) == {
        "kind": "audit", "ok": True, "stage": 5, "bound": 64, "flagged": 0,
        "out": 49, "indeterminate": 10, "skipped": 1, "mp_checked": 200,
        "mp_violations": []}


@pytest.mark.parametrize("name", ["coherent-trust", "disjunctive-trust", "too-much",
                                  "delegation", "corpus"])
def test_written_theory_files_load_back(name, tmp_path, capsys):
    store = ProofStore()
    args = cli._parser().parse_args(["demo", name, "--outdir", str(tmp_path)])
    assert cli._cmd_demo(args, cli._Out(timestamp=False), store) == 0
    written = sorted(tmp_path.glob("*.theory.json"))
    theories = {proof_from_sexp(p.read_text()).theory for p in tmp_path.glob("*.sexp")}
    assert [p.name for p in written] == sorted(
        f"{t}.theory.json" for t in theories if t != "sbox-pa")
    for path in written:
        t = cli._theory_from_file(path)
        assert t == store.theory(t.name)


SHADOW_THEORY = b'{"name": "sbox-pa", "extra_axioms": ["(= 0 1)"]}'


@pytest.mark.parametrize("with_store", [False, True])
def test_theory_file_may_not_take_a_preset_name(with_store, tmp_path, monkeypatch,
                                                capsys):
    shadow = tmp_path / "shadow.json"
    shadow.write_bytes(SHADOW_THEORY)
    false = tmp_path / "false.sexp"
    false.write_text("(proof (theory sbox-pa) (step (= 0 1) (axiom)))\n")
    monkeypatch.delenv("ASRT_PROOF_STORE", raising=False)
    if with_store:
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "refl.sexp").write_text(
            "(proof (theory sbox-pa) (step (forall x (= x x)) (axiom)))\n")
        monkeypatch.setenv("ASRT_PROOF_STORE", str(store_dir))
    assert run(["--no-timestamp", "check", "--theory-file", str(shadow), str(false)]) == 2
    assert "preset" in _records(capsys)[-1]["reason"]


def test_store_directory_carries_its_theories(tmp_path):
    """A cold process loads the theory files a demo wrote beside its proofs
    into the session store; a theory file there with a preset's name is a
    usage error."""
    assert _cold_asrt(tmp_path, "demo", "delegation", "--outdir", "store").returncode == 0
    (tmp_path / "pol.sexp").write_text("(policy (entry (forall x (= x x)) alpha-0))\n")
    licensed = _cold_asrt(tmp_path, "license", "--policy", "pol.sexp",
                          "--proved", "store/delegation.sexp", ASRT_PROOF_STORE="store")
    assert licensed.returncode == 0, licensed.stdout[-2000:]
    assert '"store-skip"' not in licensed.stdout
    (tmp_path / "store" / "pa.theory.json").write_text('{"name": "pa"}')
    (tmp_path / "refl.txt").write_text("(forall x (= x x))")
    encoded = _cold_asrt(tmp_path, "codec", "encode", "refl.txt", ASRT_PROOF_STORE="store")
    assert encoded.returncode == 2
    assert "preset" in json.loads(encoded.stdout.splitlines()[-1])["reason"]


def test_theory_option_names_a_store_theory(tmp_path):
    """--theory resolves like a proof's theory name: theory files, then the
    session store, then presets."""
    assert _cold_asrt(tmp_path, "demo", "coherent-trust", "--outdir", "st").returncode == 0
    checked = _cold_asrt(tmp_path, "check", "--theory", "sbox-pa-demo-coherent",
                         "st/coherent-trust.sexp", ASRT_PROOF_STORE="st")
    assert checked.returncode == 0, checked.stdout[-2000:]
    assert json.loads(checked.stdout.splitlines()[-1])["accepted"] is True


def test_falsity_judges_vacuous_quantifiers_once(tmp_path):
    # 27 nested universals whose body reads only the outermost variable; a
    # scan of every instance would take 65^26 steps
    sentence = "(= x0 x0)"
    for k in reversed(range(27)):
        sentence = f"(forall x{k} {sentence})"
    (tmp_path / "deep.sexp").write_text(f"(proof (theory sbox-pa) (step {sentence} (axiom)))\n")
    start = time.perf_counter()
    audit = subprocess.run([sys.executable, "-m", "asrt", "--no-timestamp", "falsity",
                            "--stages", "5", "--bound", "64", "deep.sexp"],
                           cwd=tmp_path, env=_asrt_env(), capture_output=True,
                           text=True, timeout=60)
    assert audit.returncode == 0, audit.stdout[-2000:]
    assert time.perf_counter() - start < 10
    assert json.loads(audit.stdout.splitlines()[-1])["indeterminate"] == 1


def test_nested_sub_past_the_budget_is_an_evaluator_failure(nested_sub, tmp_path):
    """A 680-byte script whose sub chain would build a code of about 3.4e9
    bits is rejected before the code is built, within a 1 GB address
    space."""
    import resource
    script = tmp_path / "d9.sexp"
    script.write_text(f"(proof (theory sbox-pa) (step (= {nested_sub(9)} 0) (compute)))\n")
    assert len(script.read_bytes()) == 680

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))
    out = subprocess.run([sys.executable, "-m", "asrt", "--no-timestamp", "check",
                          str(script)], env=_asrt_env(), capture_output=True,
                         text=True, timeout=60, preexec_fn=limit)
    assert out.returncode == 1, out.stderr[-2000:]
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["accepted"] is False
    assert record["reason"] == "evaluator failure: evaluation budget exceeded (sub)"


HUGE_SSTAR = b"(proof (theory sstar-100000000) (step (= 0 0) (axiom)))"


@pytest.mark.parametrize("command", ["falsity", "license"])
def test_sstar_above_the_cap_is_unknown(command, tmp_path, capsys):
    proved = tmp_path / "huge.sexp"
    proved.write_bytes(HUGE_SSTAR)
    policy = tmp_path / "pol.sexp"
    policy.write_text("(policy (entry (= 0 0) alpha-0))\n")
    argv = ([str(proved)] if command == "falsity"
            else ["--policy", str(policy), "--proved", str(proved)])
    start = time.perf_counter()
    assert run(["--no-timestamp", command, *argv]) == 2
    assert time.perf_counter() - start < 1.0
    assert "unknown theory 'sstar-100000000'" in _records(capsys)[-1]["reason"]


def test_falsity_flags_unsound(tmp_path, capsys):
    outdir = tmp_path / "unsound"
    assert run(["--no-timestamp", "demo", "unsound-base",
                "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    code = run(["--no-timestamp", "falsity", "--stages", "1", "--bound", "8",
                str(outdir / "unsound-0.sexp")])
    rows = _records(capsys)
    assert code == 1
    assert any(r["kind"] == "failure" for r in rows)


def test_license_roundtrip(tmp_path, refl_proof, capsys):
    policy = tmp_path / "pol.sexp"
    policy.write_text("(policy (entry (forall x (= x x)) alpha-0))\n")
    boxed = tmp_path / "boxed.sexp"
    run(["--no-timestamp", "reflect", str(refl_proof), "-o", str(boxed)])
    capsys.readouterr()
    # licensing the boxed sentence grants the underlying criterion's action,
    # but only when the fixture proof is in the session store
    import os
    storedir = tmp_path / "store"
    storedir.mkdir()
    (storedir / "a0.sexp").write_text(refl_proof.read_text())
    os.environ["ASRT_PROOF_STORE"] = str(storedir)
    try:
        code = run(["--no-timestamp", "license", "--policy", str(policy),
                    "--proved", str(boxed)])
    finally:
        del os.environ["ASRT_PROOF_STORE"]
    rows = _records(capsys)
    assert code == 0 and rows[-1]["actions"] == ["alpha-0"]


def test_codec_encode_decode(tmp_path, capsys):
    f = tmp_path / "s.txt"
    f.write_text("(= 0 1)")
    assert run(["--no-timestamp", "codec", "encode", str(f)]) == 0
    rows = _records(capsys)
    code_value = rows[-1]["code"]
    g = tmp_path / "c.txt"
    g.write_text(code_value)
    assert run(["--no-timestamp", "codec", "decode", str(g)]) == 0
    rows = _records(capsys)
    assert rows[-1]["sentence"] == "(= 0 1)"


def test_codec_decode_off_image(tmp_path, capsys):
    g = tmp_path / "c.txt"
    g.write_text("0")
    assert run(["--no-timestamp", "codec", "decode", str(g)]) == 1


# (gamma) with argument list code 1, which is off the list image
OFF_IMAGE_REL_CODE = 1031293316863023811


def test_codec_decode_off_image_argument_list(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{OFF_IMAGE_REL_CODE}\n"))
    assert run(["--no-timestamp", "codec", "decode"]) == 1
    assert _records(capsys)[-1]["ok"] is False


def test_check_computes_ax_of_off_image_code(tmp_path, capsys):
    path = tmp_path / "notax.sexp"
    path.write_text("(proof (theory sbox-pa)\n"
                    f"  (step (not (ax sbox-pa {OFF_IMAGE_REL_CODE})) (compute)))\n")
    assert run(["--no-timestamp", "check", str(path)]) == 0
    assert _records(capsys)[-1]["accepted"] is True


def test_python_m_asrt_help():
    out = subprocess.run([sys.executable, "-m", "asrt", "--help"], env=_asrt_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and "codec" in out.stdout


def test_output_stable_across_reruns(refl_proof, capsys):
    run(["--no-timestamp", "check", str(refl_proof)])
    first = capsys.readouterr().out
    run(["--no-timestamp", "check", str(refl_proof)])
    second = capsys.readouterr().out
    assert first == second


def test_theory_file_escape_hatch(tmp_path, refl_proof, capsys):
    cfg = tmp_path / "theory.json"
    cfg.write_text(json.dumps({
        "name": "custom-box", "allow_box": True, "jump_axiom": True,
        "extra_axioms": ["(= 0 0)"]}))
    proof = tmp_path / "p.sexp"
    proof.write_text("(proof (theory custom-box) (step (= 0 0) (axiom)))\n")
    assert run(["--no-timestamp", "check", "--theory-file", str(cfg),
                str(proof)]) == 0
    rows = _records(capsys)
    assert rows[-1]["accepted"] is True


def test_check_ax_of_another_theory_ignores_the_registry(tmp_path, capsys):
    # 257232087984885112 codes (forall x (= x x)), a main axiom of pa; an
    # sbox-pa proof may not compute facts about pa, registered or not
    pa()
    path = tmp_path / "axpa.sexp"
    path.write_text("(proof (theory sbox-pa)\n"
                    "  (step (ax pa 257232087984885112) (compute)))\n")
    assert run(["--no-timestamp", "check", str(path)]) == 1
    assert _records(capsys)[-1]["accepted"] is False


KAPPA0_PROOF = b"(proof (theory sbox-pa) (step (= (kappa 0) (kappa 0)) (axiom)))"


def _nested(depth: int, wrap: str, leaf: str) -> str:
    """``leaf`` inside ``depth`` copies of the open form ``wrap``."""
    return wrap * depth + leaf + ")" * depth


def _proof_script(sentence: str, step: str = "(axiom)") -> bytes:
    return f"(proof (theory sbox-pa) (step {sentence} {step}))".encode()


# a proof of a 400-deep quantifier chain once parsed, checked, and then
# overflowed the interpreter stack in the falsity ledger
QUANTIFIERS_400 = "".join(f"(forall x{k} " for k in range(400)) + "(= x0 x0)" + ")" * 400


@pytest.mark.parametrize("argv, content", [
    (["check", "{file}"], KAPPA0_PROOF),
    (["codec", "encode", "{file}"], b"(= (kappa 0) 0)"),
    (["license", "--policy", "{file}", "--proved", "{refl}"],
     b"(policy (entry (= (kappa 0) 0) alpha-0))"),
    (["codec", "decode", "{file}"], b"12ab"),
    (["falsity", "--stages", "-1"], None),
    (["falsity", "--bound", "-1"], None),
    (["check", "--theory-file", "{file}", "{refl}"], b"[1]"),
    (["check", "--theory-file", "{file}", "{refl}"], b"{}"),
    (["check", "--theory-file", "{file}", "{refl}"], b'{"name": "x\xff"}'),
    (["check", "{file}"], b"(proof (theory sbox-pa) (step (= 0 0) (axiom)))\xff"),
    (["license", "--policy", "{file}", "--proved", "{refl}"], b"(policy \xfe)"),
    (["codec", "decode", "{file}"], b"\xff7"),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "extra_axioms": 5}'),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "extra_axioms": ["(= 0 0)", 1]}'),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "kappa_count": "a"}'),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "kappa_count": true}'),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "kappa_count": -1}'),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "classical": "yes"}'),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": "x", "iterbox_axioms": 1}'),
    (["reflect", "--theory-file", "{file}", "{refl}"], b'{"name": "Odd"}'),
    (["demo", "delegation", "--action", "-3"], None),
    (["demo", "delegation", "--agents", "-1"], None),
    (["demo", "delegation", "--level", "-1"], None),
    (["demo", "consistency-sample", "--instances", "-1"], None),
    (["reflect", "--iterate", "-1", "{refl}"], None),
    (["codec", "encode", "{file}"], _nested(600, "(-> (= 0 0) ", "(= 0 0)").encode()),
    (["codec", "encode", "{file}"], ("(= " + _nested(5000, "(s ", "0") + " 0)").encode()),
    (["falsity", "{file}"], _proof_script(QUANTIFIERS_400)),
    (["codec", "encode", "{file}"], "(= \u00b2 0)".encode()),
    (["check", "{file}"], _proof_script("(= 0 0)", "(mp \u00b2 0)")),
    (["check", "{file}"], _proof_script("(= \uff13 3)", "(compute)")),
    (["check", "{file}"], _proof_script("(= \u0663 (s (s (s 0))))", "(compute)")),
    (["check", "{file}"], _proof_script("(= 0 0)", "(mp \uff10 0)")),
    (["codec", "encode", "{file}"], b"(= " + b"9" * 2_000_001 + b" 0)"),
    (["check", "--theory-file", "{file}", "{refl}"],
     b'{"name": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    (["demo", "delegation", "--agents", str(SSTAR_MAX_KAPPA + 1)], None),
    (["check", "{file}"], _proof_script("(= 0 0)") + b"\n" + _proof_script("(= 0 1)")),
    (["license", "--policy", "{file}", "--proved", "{refl}"],
     b"(policy (entry (= 0 0) alpha-0)) (entry junk"),
    (["codec", "decode", "{file}"], b"+14479"),
    (["codec", "decode", "{file}"], b"1_4_4_7_9"),
    (["codec", "decode", "{file}"], "\u0661\u0664\u0664\u0667\u0669".encode()),
    (["codec", "decode", "{file}"], b"-1"),
    (["demo", "delegation", "--agents", "0"], None),
    (["demo", "delegation", "--level", "0"], None),
    (["demo", "delegation", "--level", "3", "--agents", "3"], None),
], ids=["kappa0-proof", "kappa0-codec", "kappa0-policy", "decode-not-a-numeral",
        "negative-stages", "negative-bound", "theory-file-list",
        "theory-file-no-name", "theory-file-not-utf8", "proof-not-utf8",
        "policy-not-utf8", "codec-not-utf8", "theory-file-extra-not-list",
        "theory-file-extra-not-strings", "theory-file-kappa-string",
        "theory-file-kappa-bool", "theory-file-kappa-negative",
        "theory-file-classical-string", "theory-file-iterbox-int",
        "theory-file-name-no-script-can-name",
        "negative-action", "negative-agents", "negative-level",
        "negative-instances", "negative-iterate", "nesting-600-implications",
        "nesting-5000-successors", "nesting-400-quantifiers", "superscript-literal",
        "superscript-mp-index", "fullwidth-literal", "arabic-indic-literal",
        "fullwidth-mp-index", "literal-beyond-digit-limit", "theory-file-deep-json",
        "agents-above-sstar-cap", "two-scripts-in-one-file", "policy-trailing-entry",
        "decode-plus-sign", "decode-underscores", "decode-arabic-indic-digits",
        "decode-negative", "delegation-no-agents", "delegation-level-zero",
        "delegation-level-not-below-agents"])
def test_malformed_input_is_a_usage_error(argv, content, refl_proof, tmp_path, capsys):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    argv = [a.format(file=path, refl=refl_proof) for a in argv]
    assert run(["--no-timestamp", *argv]) == 2
    assert _records(capsys)[-1]["kind"] == "error"


def test_codec_decode_deeper_than_the_cap(tmp_path, capsys):
    """A code grows by a few dozen bits per nesting level, so a short code
    can nest deeper than the parser accepts; it decodes to no formula."""
    atom = a = parse_formula("(= 0 0)")
    for _ in range(600):
        a = Imp(atom, a)
    g = tmp_path / "c.txt"
    g.write_text(str(encode_sentence(a)))
    assert run(["--no-timestamp", "codec", "decode", str(g)]) == 1
    assert _records(capsys)[-1]["ok"] is False


@pytest.mark.parametrize("text, reason", [
    (_nested(600, "(-> (= 0 0) ", "(= 0 0)"), f"nesting deeper than {MAX_NESTING}"),
    ("(= " + "9" * 2_000_001 + " 0)", "-digit limit"),
    ("(foo 0)", "unknown term operator 'foo'"),
    ("", "unexpected end of input"),
], ids=["nesting-cap", "digit-limit", "tie-keeps-term-error", "empty"])
def test_codec_encode_reports_the_parse_that_read_further(text, reason, tmp_path,
                                                           capsys):
    path = tmp_path / "input"
    path.write_text(text)
    assert run(["--no-timestamp", "codec", "encode", str(path)]) == 2
    assert reason in _records(capsys)[-1]["reason"]


@pytest.mark.parametrize("text, reason", [
    ("9" * 2_000_001, "-digit limit"),
    ("14479 0", "trailing input '0'"),
    ("", "expected a decimal natural number"),
], ids=["digit-limit", "two-literals", "empty"])
def test_codec_decode_reads_one_script_literal(text, reason, tmp_path, capsys):
    """``codec decode`` input is one literal as a proof script writes it:
    ASCII digits under the digit limit, with nothing after it."""
    path = tmp_path / "input"
    path.write_text(text)
    assert run(["--no-timestamp", "codec", "decode", str(path)]) == 2
    assert reason in _records(capsys)[-1]["reason"]


_LOW_LIMIT = 1_000
_NINES = "9" * (_LOW_LIMIT - 1)    # a literal the reader takes under the low limit


@pytest.fixture
def low_digit_limit():
    """The int-to-str digit limit lowered to 1,000 while the test runs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_LOW_LIMIT)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv, status", [
    (["codec", "encode", "{formula}"], 1),
    (["reflect", "{script}"], 1),
    (["reflect", "-o", "{out}", "{script}"], 1),
    (["check", "{script}"], 0),
], ids=["codec-encode", "reflect-stdout", "reflect-to-file", "check"])
def test_a_code_past_the_digit_limit_is_not_written(argv, status, tmp_path, capsys,
                                                    low_digit_limit):
    """A writer whose output holds a numeral longer than the digit limit
    reports the limit and exits 1, writing nothing; the script it reads is
    within the limit, and check, which prints only the script's own
    numerals, accepts it."""
    files = {"formula": tmp_path / "f.txt", "script": tmp_path / "s.sexp",
             "out": tmp_path / "out.sexp"}
    files["formula"].write_text(f"(= {_NINES} 0)")
    files["script"].write_text(f"(proof (theory sbox-pa) (step (= {_NINES} {_NINES}) (axiom)))")
    assert run(["--no-timestamp", *(a.format(**files) for a in argv)]) == status
    out = capsys.readouterr().out.splitlines()
    if status:
        assert [json.loads(line) for line in out] == [{
            "kind": "error", "reason": "the output holds a numeral over the "
            f"{_LOW_LIMIT}-digit limit of int-to-str conversion"}]
        assert not files["out"].exists()
    else:
        assert json.loads(out[-1])["accepted"] is True


def test_over_digit_limit_is_exact_at_the_limit(low_digit_limit):
    """syntax.decimal, the numeral writer, refuses exactly the naturals of
    more than 1,000 digits, around the powers of two and ten where the bit
    length leaves the count open; it refuses by its own bound, with
    DigitLimitError, and not by str(), which would raise ValueError."""
    sys.set_int_max_str_digits(2 * _LOW_LIMIT)
    values = [10 ** _LOW_LIMIT + d for d in (-2, -1, 0, 1)] + [0, 1, 10 ** 999]
    values += [2 ** bits + d for bits in range(3315, 3330) for d in (-1, 0)]
    texts = [str(n) for n in values]
    sys.set_int_max_str_digits(_LOW_LIMIT)
    for n, text in zip(values, texts):
        if len(text) > _LOW_LIMIT:
            with pytest.raises(DigitLimitError):
                decimal(n)
        else:
            assert decimal(n) == text


# (* (s (s 0)) N) is the numeral 2N: 1,001 digits, from a literal of 1,000
_TWICE_N = f"(* (s (s 0)) {'9' * _LOW_LIMIT})"
_LIMIT_ERROR = {"kind": "error", "reason": "the output holds a numeral over the "
                f"{_LOW_LIMIT}-digit limit of int-to-str conversion"}
# the first 80 characters of (= 2N 0)
_REJECTED_REASON = "not an axiom or admissible computation: (= 1" + "9" * 76


@pytest.mark.parametrize("argv, right, rows", [
    (["check", "s.sexp"], _TWICE_N,
     [{"kind": "line", "file": "s.sexp", "index": 0, "rule": "eq-refl", "note": ""},
      {"kind": "error", "file": "s.sexp", "reason": _LIMIT_ERROR["reason"]}]),
    (["check", "s.sexp"], "0",
     [{"kind": "verdict", "file": "s.sexp", "accepted": False, "lines": 1,
       "failed_at": 0, "reason": _REJECTED_REASON}]),
    (["license", "--policy", "p.sexp", "--proved", "s.sexp"], _TWICE_N, [_LIMIT_ERROR]),
], ids=["check-accepted", "check-rejected", "license-proved"])
def test_a_normalized_numeral_past_the_digit_limit_is_reported(
        argv, right, rows, tmp_path, monkeypatch, capsys, low_digit_limit):
    """The script's literals are within the limit, but its constructor
    makes the numeral 2N that is not: an accepted conclusion is reported
    by the limit's error record, and a rejection reason prints the
    sentence's first 80 characters."""
    monkeypatch.chdir(tmp_path)
    Path("s.sexp").write_bytes(_proof_script(f"(= {_TWICE_N} {right})"))
    Path("p.sexp").write_bytes(FUZZ_SEEDS[3])
    assert run(["--no-timestamp", *argv]) == 1
    assert _records(capsys) == rows


def test_check_reports_a_conclusion_past_the_digit_limit_per_file(
        tmp_path, monkeypatch, capsys, low_digit_limit):
    """An accepted conclusion that cannot be written is one error record
    naming its file, counted as a failure; the files after it are checked."""
    monkeypatch.chdir(tmp_path)
    Path("acc.sexp").write_bytes(_proof_script(f"(= {_TWICE_N} {_TWICE_N})"))
    Path("refl.sexp").write_bytes(_proof_script("(forall x (= x x))"))
    assert run(["--no-timestamp", "check", "acc.sexp", "refl.sexp"]) == 1
    assert _records(capsys) == [
        {"kind": "line", "file": "acc.sexp", "index": 0, "rule": "eq-refl", "note": ""},
        {"kind": "error", "file": "acc.sexp", "reason": _LIMIT_ERROR["reason"]},
        {"kind": "line", "file": "refl.sexp", "index": 0, "rule": "eq-refl", "note": ""},
        {"kind": "verdict", "file": "refl.sexp", "accepted": True, "lines": 1,
         "conclusion": "(forall x (= x x))"}]


@pytest.mark.parametrize("step, right", [
    ("(axiom)", _TWICE_N), ("(axiom)", "0"), ("(hyp)", "0")],
    ids=["accepted", "not-an-axiom", "not-the-hypothesis"])
def test_the_checker_reports_on_a_numeral_past_the_digit_limit(step, right, low_digit_limit):
    proof = proof_from_sexp(_proof_script(f"(= {_TWICE_N} {right})", step).decode())
    report = check_proof(sbox_pa(), proof, hypothesis=FALSUM)
    head = "hypothesis step is not the hypothesis: " if step == "(hyp)" else \
        "not an axiom or admissible computation: "
    assert report.accepted is (right != "0")
    assert report.reason == ("" if report.accepted else head + fmt_prefix(proof.conclusion, 80))
    # the store checks with no hypothesis
    submitted = ProofStore().submit(sbox_pa(), proof)
    assert submitted.accepted is report.accepted
    assert step == "(hyp)" or submitted.reason == report.reason


_CORE = ["asrt", "asrt.cli", "asrt.kernel", "asrt.syntax"]


@pytest.mark.parametrize("argv, layers", [
    (["check", "{script}"], []),
    (["codec", "encode", "{formula}"], []),
    (["reflect", "{script}"], ["asrt.derive", "asrt.reflection"]),
    (["falsity", "{script}"], ["asrt.semantics"]),
], ids=["check", "codec", "reflect", "falsity"])
def test_each_subcommand_loads_only_the_layers_it_runs(argv, layers, refl_proof, tmp_path):
    # a fresh process: this suite's conftest imports asrt.corpus
    formula = tmp_path / "f.txt"
    formula.write_text("(= 0 0)")
    argv = [a.format(script=refl_proof, formula=formula) for a in argv]
    script = ("import sys; from asrt.cli import run; status = run(sys.argv[1:]); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'asrt')); "
              "sys.exit(status)")
    out = subprocess.run([sys.executable, "-c", script, "--no-timestamp", *argv],
                         env=_asrt_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == str(sorted(_CORE + layers))


def test_the_kernel_loads_only_the_trusted_core():
    script = ("import asrt.kernel, sys; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'asrt'))")
    out = subprocess.run([sys.executable, "-c", script], env=_asrt_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == "['asrt', 'asrt.kernel', 'asrt.syntax']\n", out.stderr[-2000:]


# ---------------------------------------------------------------------------
# CLI fuzz: no input ends in internal-error (exit 3)
# ---------------------------------------------------------------------------

FUZZ_SEEDS = [
    _proof_script("(forall x (= x x))"),
    _proof_script("(= (+ 2 2) 4)", "(compute)"),
    b"(proof (theory sbox-pa)\n  (step (forall x (= x x)) (axiom))\n"
    b"  (step (-> (forall x (= x x)) (= 0 0)) (axiom))\n  (step (= 0 0) (mp 0 1)))",
    b"(policy (entry (forall x (= x x)) alpha-0) (entry (= 0 0) beta exact))",
    b"(= (num (sub (godel (= x 0)) 3)) (iterbox 2 (num-of 7)))",
    b"(exists n (and (act 1 n) (box (num n))))",
    b"257232087984885112",
]

# accepted or not, each shape costs the falsity ledger time linear in its depth
NESTING_SHAPES = [
    ("(-> (= 0 0) ", "(= 0 1)"),
    ("(and gamma ", "(= 0 0)"),
    ("(not ", "gamma"),
    ("(forall x ", "(= x x)"),
    ("(= 0 (s ", "0)"),
    ("(box (num ", "0)"),
]


@st.composite
def _mutated(draw):
    text = bytearray(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["truncate", "delete", "insert", "replace"]))
        if edit == "truncate":
            del text[at:]
        elif edit == "delete":
            del text[at:at + draw(st.integers(1, 8))]
        else:
            piece = draw(st.sampled_from(
                [b"(", b")", b" ", b"0", b"x", b"forall", b"(s ", b"(box ",
                 b"\xff", b"\xc2\xb2", b"-1"]))
            text[at:at + (edit == "replace")] = piece
    return bytes(text)


@st.composite
def _huge_literal(draw):
    digits = "9" * draw(st.integers(1, 6000))
    form = draw(st.sampled_from([
        "{n}", "(= {n} {n})", "(box {n})", "(forall x (= x {n}))"]))
    return form.format(n=digits).encode()


@st.composite
def _deep(draw):
    wrap, leaf = draw(st.sampled_from(NESTING_SHAPES))
    depth = draw(st.one_of(st.integers(MAX_NESTING - 3, MAX_NESTING + 2),
                           st.sampled_from([2 * MAX_NESTING, 5000])))
    text = _nested(depth, wrap, leaf)
    # a proof script puts the sentence two levels deeper
    return draw(st.sampled_from([text.encode(), _proof_script(_nested(depth - 2, wrap, leaf))]))


FUZZ_COMMANDS = [
    ["check", "{file}"],
    ["falsity", "--stages", "2", "--bound", "4", "{file}"],
    ["reflect", "{file}", "-o", "{out}"],
    ["codec", "encode", "{file}"],
    ["codec", "decode", "{file}"],
    ["license", "--policy", "{file}", "--proved", "{refl}"],
    ["license", "--policy", "{policy}", "--proved", "{file}"],
]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(FUZZ_COMMANDS),
       content=st.one_of(_mutated(), st.binary(max_size=120), _huge_literal(), _deep()))
def test_cli_fuzz_never_internal_error(tmp_path_factory, command, content):
    code, out = _fuzz_run(tmp_path_factory.mktemp("fuzz"), command, content)
    assert code in (0, 1, 2), out[-500:]


def _fuzz_run(root: Path, command: list[str], content: bytes) -> tuple[int, str]:
    """The exit code and stdout of ``command`` run on ``content``."""
    files = {"file": root / "input", "out": root / "out.sexp",
             "refl": root / "refl.sexp", "policy": root / "policy.sexp"}
    files["file"].write_bytes(content)
    files["refl"].write_bytes(FUZZ_SEEDS[0])
    files["policy"].write_bytes(FUZZ_SEEDS[3])
    argv = [a.format(**files) for a in command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["--no-timestamp", *argv])
    return code, out.getvalue()


@st.composite
def _doubled_literal(draw):
    """A numeral 2n with n of 500 to 1,000 nines: past a 1,000-digit limit
    at the top of the range, though every literal is within it."""
    n = "9" * draw(st.one_of(st.just(_LOW_LIMIT), st.integers(500, _LOW_LIMIT)))
    text = draw(st.sampled_from([
        "(* (s (s 0)) {n})", "(= (* (s (s 0)) {n}) {n})", "(box (* (s (s 0)) {n}))",
        "(= (* (s (s 0)) {n}) (* (s (s 0)) {n}))"])).format(n=n)
    return draw(st.sampled_from([text.encode(), _proof_script(text)]))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(FUZZ_COMMANDS), content=_doubled_literal())
def test_cli_fuzz_past_the_digit_limit_never_internal_error(tmp_path_factory, command,
                                                            content):
    """As test_cli_fuzz_never_internal_error, under a 1,000-digit limit
    (set here: Hypothesis refuses function-scoped fixtures)."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_LOW_LIMIT)
    try:
        code, out = _fuzz_run(tmp_path_factory.mktemp("fuzz"), command, content)
    finally:
        sys.set_int_max_str_digits(before)
    assert code in (0, 1, 2) and '"internal-error"' not in out, out[-500:]
