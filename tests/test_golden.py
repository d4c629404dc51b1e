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
import runpy
from pathlib import Path

import pytest

from lgmirror import cli

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
