"""Smoke tests: every script in demos/, and README's Quick start block, run
to completion against src/; each demo prints nothing on stderr and the
stdout its digest pins.  README's Package tour has one row per module."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))

# sha256 of each demo's stdout.  A change that alters a demo's output
# updates its digest and says why.
DEMO_DIGESTS = {
    "01_exact_polynomials.py":
        "84627cb39dc31e42019644496bab9e736f44702986042e840766955a9118fc87",
    "02_companion_operators.py":
        "b14adf81a93abde37f0512c7662b0aae0cfbab1b52e0f8f94cafb7a292b44e94",
    "03_metric_construction.py":
        "c64e3bd34b86cd0b4745031a53a4364a6579789b2ba7a365b0f5aa33c9e2cc21",
    "04_compatibility_checks.py":
        "7e86cfa6cbbd95f04f88938f5192c3531d740e4be3071229c0ce041676932505",
    "05_hierarchy_and_integrals.py":
        "7e02cad8bf2fd2bcb49a6510d089e8df6af1ef866c219485b47f220e1bdf88f6",
    "06_commuting_flows.py":
        "852086eb367310c8d05b121a82409395e11b68e596720248fa4c8457ed14eaa2",
    "07_direct_vs_reduction.py":
        "d0a4dd058806e9afbf006ad966550be806e80b61cea51f73d1be8d170dd033d2",
}


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == DEMO_DIGESTS[demo.name], proc.stdout


def test_readme_quick_start_runs(tmp_path):
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "(101, 51, 2)"


def tour_rows(readme: str) -> list[str]:
    """The module of each "| `nijflow.<name>` |" row of README's Package
    tour, in order."""
    tour = readme.split("## Package tour", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `nijflow\.(\w+)` \|", tour, re.M)


MODULES = sorted(p.stem for p in (REPO / "src" / "nijflow").glob("*.py")
                 if p.stem not in ("__init__", "__main__"))


def test_readme_package_tour_names_every_module_once():
    assert sorted(tour_rows((REPO / "README.md").read_text())) == MODULES


def test_the_tour_guard_finds_a_missing_a_repeated_and_a_stray_row():
    readme = (REPO / "README.md").read_text()
    row = next(line for line in readme.splitlines()
               if line.startswith("| `nijflow.pde` |"))
    for planted in (readme.replace(row + "\n", ""),
                    readme.replace(row, row + "\n" + row),
                    readme.replace(row, row + "\n| `nijflow.hierarchy` | |")):
        assert sorted(tour_rows(planted)) != MODULES
