"""The golden CLI corpus: every case in tests/golden/cli/cases.json is one
argv for `cli.main`, run in process with the working directory set to
tests/golden/cli, so the input paths in argv (ring12.json, family10.json,
report.json) are stable. `{out}` in an argv names a fresh directory for the
case's --output files.

A case's artifacts are its exit code, stdout, stderr and every file it
writes under `{out}` (CSV sidecars included), with each manifest
"timestamp" masked. tests/golden/cli/expected/<case>/ holds them byte for
byte. After an intended change of output, regenerate the corpus and review
its diff:

    PYTHONPATH=src python tests/golden_cli.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli"
EXPECTED = CORPUS / "expected"
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def cases() -> dict[str, list[str]]:
    return json.loads((CORPUS / "cases.json").read_text())


def run_case(argv: list[str], out_dir: Path) -> dict[str, bytes]:
    """Artifacts of one `main(argv)` call, keyed by their path under
    expected/<case>/: exit_code, stdout, stderr and out/<file>."""
    from thermalverify.cli import main

    argv = [arg.replace("{out}", str(out_dir)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    artifacts = {"exit_code": f"{code}\n".encode(), "stdout": stdout.getvalue().encode(),
                 "stderr": stderr.getvalue().encode()}
    for path in sorted(out_dir.iterdir()):
        artifacts[f"out/{path.name}"] = path.read_bytes()
    return {name: _TIMESTAMP.sub(b'"timestamp": "<masked>"', data)
            for name, data in artifacts.items()}


def expected(name: str) -> dict[str, bytes]:
    root = EXPECTED / name
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def regenerate() -> None:
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name, argv in cases().items():
        with tempfile.TemporaryDirectory() as tmp:
            for rel, data in run_case(argv, Path(tmp)).items():
                path = EXPECTED / name / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)


if __name__ == "__main__":
    regenerate()
