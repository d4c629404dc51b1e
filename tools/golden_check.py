"""Replay every pinned output under this interpreter and compare stdout bytes.

    python3.10 tools/golden_check.py

Each file under ``tests/golden/`` and ``bench/expected/`` (the ``.lg``
specs aside) names the command that made it:

- ``<spec>_<command>.<txt|json>[.gz]`` is ``python -m lgmirror.cli
  <command> <spec>.lg``, with ``--json`` for ``.json``; ``<spec>`` is the
  longest name of a spec in ``tests/golden/`` or ``bench/specs/`` that the
  file name starts with, and ``_`` in ``<command>`` reads as ``-``;
- ``demo_<name>.txt`` is ``python demos/<name>.py``.

Each command runs in a fresh process of the interpreter that runs this
script, with ``src/`` on its path, and its stdout is compared with the
file's bytes (decompressed if gzipped); the exit code is not compared, as
some pinned outputs are errors.  One line is printed per file that
differs, then a count, and the exit code is 1 if any file differs.  The
pinned files are only read.  Standard library only, so it runs on every
CPython the package supports, with or without pytest.
"""

from __future__ import annotations

import gzip
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = [ROOT / "tests" / "golden", ROOT / "bench" / "expected"]
SPECS = sorted([*(ROOT / "tests" / "golden").glob("*.lg"), *(ROOT / "bench" / "specs").glob("*.lg")])


def command_for(path: Path) -> list[str] | None:
    """The interpreter arguments that replay the pinned file ``path``, or
    None when its name fits neither pattern."""
    name = path.name.removesuffix(".gz")
    if name.startswith("demo_") and name.endswith(".txt"):
        return [str(ROOT / "demos" / (name[len("demo_"):-len(".txt")] + ".py"))]
    stem, _, kind = name.rpartition(".")
    specs = [spec for spec in SPECS if stem.startswith(spec.stem + "_")]
    if kind not in ("txt", "json") or not specs:
        return None
    spec = max(specs, key=lambda spec: len(spec.stem))
    command = stem[len(spec.stem) + 1:].replace("_", "-")
    return ["-m", "lgmirror.cli", command, str(spec), *(["--json"] if kind == "json" else [])]


def pinned_files() -> list[Path]:
    return sorted(path for folder in PINNED for path in folder.iterdir()
                  if path.is_file() and path.suffix != ".lg")


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    files, differ = pinned_files(), 0
    for path in files:
        where = path.relative_to(ROOT)
        args = command_for(path)
        if args is None:
            print(f"{where}: no command matches the file name")
            differ += 1
            continue
        data = path.read_bytes()
        expected = gzip.decompress(data) if path.suffix == ".gz" else data
        proc = subprocess.run([sys.executable, "-B", *args], capture_output=True, env=env,
                              cwd=ROOT, timeout=600)
        if proc.stdout != expected:
            print(f"{where}: stdout differs ({len(proc.stdout)} bytes, pinned {len(expected)})")
            differ += 1
    print(f"{len(files)} files, {differ} differ, Python {platform.python_version()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
