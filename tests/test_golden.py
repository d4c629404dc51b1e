"""Byte-for-byte comparison of CLI output against checked-in golden files.

The emitter promises identical bytes for identical input; these files pin
that promise (and the quartic numbers) across refactors, one file per
command and output mode, gzipped when large.  Regenerate only after
verifying a deliberate output change:

    python3 -m lgmirror.cli astate tests/golden/quartic.lg > tests/golden/quartic_astate.txt

The quintic outputs are compared, read only, against the benchmark's
recorded files in ``bench/expected/``.  The sextic's text ``mirror-check``
(|G*| = 46,656) was recorded from the per-element invariant search, and
each script in ``demos/`` has its stdout pinned in ``demo_<name>.txt``.
"""

import contextlib
import gzip
import io
import os
import re
import runpy
import shutil
import subprocess
from pathlib import Path

import pytest

from lgmirror import cli, symmetry

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).parent.parent / "bench"
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def capture(*argv, code=0) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == code
    return buf.getvalue()


def read_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


# every command in text and JSON; the quartic G is not diagonal, so
# dual-group exits 1 with NotDiagonal
CASES = [(f"quartic_{command.replace('-', '_')}.{kind}", command, flags)
         for command in cli.COMMANDS
         for kind, flags in (("txt", ()), ("json", ("--json",)))]


@pytest.mark.parametrize("name,command,flags", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, command, flags):
    path = next(GOLDEN.glob(name + "*"))  # large JSON files are gzipped
    spec = str(GOLDEN / "quartic.lg")
    code = 1 if command == "dual-group" else 0
    assert capture(command, spec, *flags, code=code).encode() == read_bytes(path)


@pytest.mark.parametrize("command,flags", [("group", ()), ("mirror-check", ("--json",))],
                         ids=["group-text", "mirror-check-json"])
def test_spec_file_with_a_byte_order_mark(tmp_path, command, flags):
    # an editor may save UTF-8 with a BOM; the file reads as without one
    path = tmp_path / "quartic.lg"
    path.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "quartic.lg").read_bytes())
    name = f"quartic_{command.replace('-', '_')}.{'json' if flags else 'txt'}"
    assert capture(command, str(path), *flags).encode() == read_bytes(GOLDEN / name)


# text mode prints no class list, so it builds none; --json lists them
NO_CLASSES = [(GOLDEN / "quartic.lg", command, f"quartic_{command.replace('-', '_')}")
              for command in ("pc-check", "dual-group", "nonabelian-dual", "bstate",
                              "mirror-check")] + [
    (GOLDEN / "chain.lg", "dual-group", "chain_dual_group")]


@pytest.mark.parametrize("spec,command,name", NO_CLASSES, ids=[c[2] for c in NO_CLASSES])
def test_text_mode_builds_no_class_list(spec, command, name, monkeypatch):
    code = 1 if name == "quartic_dual_group" else 0
    with monkeypatch.context() as patch:
        def refuse(self):
            pytest.fail("a class list was built")
        patch.setattr(symmetry.SymmetryGroup, "conjugacy_classes", refuse)
        text = capture(command, str(spec), code=code)
    if name.startswith("quartic"):
        assert text.encode() == read_bytes(GOLDEN / f"{name}.txt")
    json_golden = next(GOLDEN.glob(f"{name}.json*"))
    assert capture(command, str(spec), "--json", code=code).encode() == read_bytes(json_golden)


@pytest.mark.parametrize("model,command,name", [
    ("good_quintic", "mirror-check", "good_quintic_mirror_check.json"),
    ("bad_quintic", "mirror-check", "bad_quintic_mirror_check.json"),
    ("bad_quintic", "bstate", "bad_quintic_bstate.json.gz"),
])
def test_quintic_output_matches_bench_expected(model, command, name):
    spec = str(BENCH / "specs" / f"{model}.lg")
    assert capture(command, spec, "--json").encode() == read_bytes(BENCH / "expected" / name)


# JSON shapes the quartic does not reach: a listed dual group on a chain and
# on a loop, an abelian G*, and a parity witness
@pytest.mark.parametrize("spec,command,name", [
    (GOLDEN / "chain.lg", "dual-group", "chain_dual_group.json"),
    (GOLDEN / "loop.lg", "dual-group", "loop_dual_group.json"),
    (GOLDEN / "chain.lg", "nonabelian-dual", "chain_nonabelian_dual.json"),
    (BENCH / "specs" / "bad_quintic.lg", "pc-check", "bad_quintic_pc_check.json"),
], ids=["chain-dual-group", "loop-dual-group", "chain-nonabelian-dual",
        "bad-quintic-pc-check"])
def test_json_shapes_beyond_the_quartic(spec, command, name):
    assert capture(command, str(spec), "--json").encode() == (GOLDEN / name).read_bytes()


def test_sextic_mirror_check():
    # x1^6 + … + x7^6 with G = j: every class of G* is a singleton
    spec = str(GOLDEN / "sextic.lg")
    assert capture("mirror-check", spec).encode() == \
        (GOLDEN / "sextic_mirror_check.txt").read_bytes()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(demo), run_name="__main__")
    assert buf.getvalue().encode() == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()


def test_golden_check_names_a_command_for_every_pinned_file():
    # tools/golden_check.py replays these files under any interpreter,
    # rebuilding each command from the file's name alone
    path = Path(__file__).resolve().parent.parent / "tools" / "golden_check.py"
    tool = runpy.run_path(str(path))
    commands = {p.name: tool["command_for"](p) for p in tool["pinned_files"]()}
    assert None not in commands.values() and "quartic.lg" not in commands
    assert commands["quartic_k3_mirror_check.json"][2:] == [
        "mirror-check", str((BENCH / "specs" / "quartic_k3.lg").resolve()), "--json"]
    assert commands["quartic_dual_poly.txt"][2:] == [
        "dual-poly", str((GOLDEN / "quartic.lg").resolve())]
    assert commands["bad_quintic_bstate.json.gz"][2:4] == [
        "bstate", str((BENCH / "specs" / "bad_quintic.lg").resolve())]
    assert commands[f"demo_{DEMOS[0].stem}.txt"] == [str(DEMOS[0].resolve())]


def installed_pythons():
    """CPython 3.10–3.13 interpreters installed by pyenv, by version."""
    root = os.environ.get("PYENV_ROOT")
    if not root and shutil.which("pyenv"):
        root = subprocess.run(["pyenv", "root"], capture_output=True, text=True).stdout.strip()
    if not root:
        return []
    return sorted(path for path in Path(root).glob("versions/*/bin/python3")
                  if re.fullmatch(r"3\.1[0-3]\.\d+", path.parent.parent.name))


PYTHONS = installed_pythons()


@pytest.mark.parametrize("python", PYTHONS, ids=[p.parent.parent.name for p in PYTHONS])
@pytest.mark.parametrize("command,flags,name", [
    ("mirror-check", ["--json"], "quartic_mirror_check.json"),
    ("pc-check", [], "quartic_pc_check.txt"),
], ids=["mirror-check-json", "pc-check-text"])
def test_golden_bytes_on_every_installed_python(python, command, flags, name):
    # the spec grammar and the writer are the same on every supported
    # CPython; a fresh interpreter runs the CLI from this checkout's src
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([str(python), "-B", "-m", "lgmirror.cli", command,
                           str(GOLDEN / "quartic.lg"), *flags],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == read_bytes(GOLDEN / name)
