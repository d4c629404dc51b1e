"""A cold ``import lgmirror.cli`` loads only what a command runs on: no
argument parser (argparse and gettext are for help and usage errors), no
record generator (dataclasses and inspect) and no typing, and a whole
command loads none of them either.  The interpreter runs with ``-S``,
because a site-packages ``.pth`` file may preload typing and hide a
regression."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = SRC.parent / "tests" / "golden"
UNLOADED = ("argparse", "dataclasses", "gettext", "inspect", "typing")


def test_cli_import_loads_no_plumbing_modules():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import lgmirror.cli; "
            f"print(sorted(set({UNLOADED!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command, spec", [("dual-group", "chain.lg"), ("bstate", "quartic.lg")])
def test_a_json_command_loads_no_plumbing_modules(command, spec):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from lgmirror import cli; "
            f"code = cli.main([{command!r}, {str(GOLDEN / spec)!r}, '--json']); "
            f"print(code, sorted(set({UNLOADED!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('{\n  "command": ')
    assert proc.stdout.endswith("\n}\n0 []\n")
