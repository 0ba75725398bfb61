"""Run the `run:` steps of .github/workflows/tests.yml on this machine.

    python tests/ci_local.py

Each step runs in order under `bash --noprofile --norc -eo pipefail`, in a
fresh copy of the checkout that stands for GITHUB_WORKSPACE, with
RUNNER_TEMP set to an empty directory. A copy of src/ on PYTHONPATH stands
for the installed package, outside the workspace copy, and a `thermalverify`
shim on PATH runs `python -m thermalverify` with this interpreter. The one
step that runs `pip install` is skipped, and the output says so: the
workflow's setuptools>=68 and its dependencies come from the network.
`${{ runner.temp }}` and `${{ github.workspace }}` are expanded. The script
prints one line per step and a summary, and the output of every failed
step; it exits 1 if any step failed.

It is not collected by pytest: it runs tier-1 itself, among other steps.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
LEFT_BEHIND = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out",
               ".perfbench_tmp", "*.egg-info", "build")


def run_steps() -> list[dict]:
    """Every step of every job that has a `run:` script, in file order."""
    workflow = yaml.safe_load(WORKFLOW.read_text())
    return [step for job in workflow["jobs"].values() for step in job["steps"] if "run" in step]


def main() -> int:
    start = time.perf_counter()
    results = {"passed": 0, "failed": 0, "skipped": 0}
    with tempfile.TemporaryDirectory(prefix="ci_local_") as tmp:
        tmp = Path(tmp)
        workspace, runner_temp, bin_dir = tmp / "workspace", tmp / "temp", tmp / "bin"
        site = tmp / "site-packages"
        shutil.copytree(ROOT, workspace, ignore=shutil.ignore_patterns(*LEFT_BEHIND))
        shutil.copytree(ROOT / "src" / "thermalverify", site / "thermalverify",
                        ignore=shutil.ignore_patterns("__pycache__"))
        runner_temp.mkdir()
        bin_dir.mkdir()
        shim = bin_dir / "thermalverify"
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m thermalverify "$@"\n')
        shim.chmod(0o755)
        env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
               "PYTHONPATH": str(site), "GITHUB_WORKSPACE": str(workspace),
               "RUNNER_TEMP": str(runner_temp), "CI": "true"}
        for step in run_steps():
            name = step.get("name", step["run"].splitlines()[0])
            if "pip install" in step["run"]:
                print(f"SKIP          {name}: pip install needs the network; "
                      f"a copy of src/ on PYTHONPATH stands for the installed package")
                results["skipped"] += 1
                continue
            cwd = step.get("working-directory", str(workspace))
            cwd = (cwd.replace("${{ runner.temp }}", str(runner_temp))
                   .replace("${{ github.workspace }}", str(workspace)))
            script = tmp / "step.sh"
            script.write_text(step["run"])
            began = time.perf_counter()
            proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
                                  cwd=cwd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            seconds = time.perf_counter() - began
            verdict = "PASS" if proc.returncode == 0 else f"FAIL ({proc.returncode})"
            results["passed" if proc.returncode == 0 else "failed"] += 1
            print(f"{verdict:<8} {seconds:5.1f} s  {name}", flush=True)
            if proc.returncode:
                print(proc.stdout, flush=True)
    print(f"{results['passed']} passed, {results['failed']} failed, {results['skipped']} "
          f"skipped in {time.perf_counter() - start:.0f} s")
    return 1 if results["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
