"""A cold ``import lgmirror.cli`` loads only what a command runs on: no
argument parser (argparse and gettext are for help and usage errors), no
record generator (dataclasses and inspect) and no typing.  The interpreter
runs with ``-S``, because a site-packages ``.pth`` file may preload typing
and hide a regression."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNLOADED = ("argparse", "dataclasses", "gettext", "inspect", "typing")


def test_cli_import_loads_no_plumbing_modules():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import lgmirror.cli; "
            f"print(sorted(set({UNLOADED!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
