"""Byte-for-byte comparison of CLI output against checked-in golden files.

The emitter promises identical bytes for identical input; these files pin
that promise (and the quartic numbers) across refactors, one file per
command and output mode, gzipped when large.  Regenerate only after
verifying a deliberate output change:

    python3 -m lgmirror.cli astate tests/golden/quartic.lg > tests/golden/quartic_astate.txt

The quintic outputs are compared, read only, against the benchmark's
recorded files in ``bench/expected/``.  The sextic's text ``mirror-check``
(|G*| = 46,656) was recorded from the per-element invariant search.
"""

import contextlib
import gzip
import io
from pathlib import Path

import pytest

from lgmirror import cli

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).parent.parent / "bench"


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


@pytest.mark.parametrize("model,command,name", [
    ("good_quintic", "mirror-check", "good_quintic_mirror_check.json"),
    ("bad_quintic", "mirror-check", "bad_quintic_mirror_check.json"),
    ("bad_quintic", "bstate", "bad_quintic_bstate.json.gz"),
])
def test_quintic_output_matches_bench_expected(model, command, name):
    spec = str(BENCH / "specs" / f"{model}.lg")
    assert capture(command, spec, "--json").encode() == read_bytes(BENCH / "expected" / name)


def test_sextic_mirror_check():
    # x1^6 + … + x7^6 with G = j: every class of G* is a singleton
    spec = str(GOLDEN / "sextic.lg")
    assert capture("mirror-check", spec).encode() == \
        (GOLDEN / "sextic_mirror_check.txt").read_bytes()
