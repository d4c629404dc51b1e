"""Byte-for-byte comparison of CLI output against checked-in golden files.

The emitter promises identical bytes for identical input; these files pin
that promise (and the quartic numbers) across refactors.  Regenerate only
after verifying a deliberate output change:

    python3 -m lgmirror.cli astate tests/golden/quartic.lg > tests/golden/quartic_astate.txt

The quintic outputs are compared, read only, against the benchmark's
recorded files in ``bench/expected/``.
"""

import contextlib
import gzip
import io
from pathlib import Path

import pytest

from lgmirror import cli

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).parent.parent / "bench"


def capture(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name,argv", [
    ("quartic_astate.txt", ("astate",)),
    ("quartic_mirror_check.json", ("mirror-check", "--json")),
    ("quartic_hodge.txt", ("hodge",)),
])
def test_golden_output(name, argv):
    spec = str(GOLDEN / "quartic.lg")
    expected = (GOLDEN / name).read_text()
    command, *flags = argv
    assert capture(command, spec, *flags) == expected


@pytest.mark.parametrize("model,command,name", [
    ("good_quintic", "mirror-check", "good_quintic_mirror_check.json"),
    ("bad_quintic", "mirror-check", "bad_quintic_mirror_check.json"),
    ("bad_quintic", "bstate", "bad_quintic_bstate.json.gz"),
])
def test_quintic_output_matches_bench_expected(model, command, name):
    spec = str(BENCH / "specs" / f"{model}.lg")
    data = (BENCH / "expected" / name).read_bytes()
    if name.endswith(".gz"):
        data = gzip.decompress(data)
    assert capture(command, spec, "--json").encode() == data
