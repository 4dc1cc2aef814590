"""Every demo script runs to completion against the package in src, and prints
exactly the pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; a change here is a change of some printed result
STDOUT_SHA256 = {
    "01_lattice_and_cocycle.py": "01b6ffb7ae9f507d13d8c0afaea32f05cb5def7eb2efb3985a9954d7689e7a72",
    "02_vertex_operators.py": "8c4d0a873f5179370c8c559f0bcb6d3264733425015fba5595e4b582e9de63c7",
    "03_bosons.py": "3f0864d83a0fee68a47c480d0caa4a55249d8b5886b4768dcbbb61016cc5b61a",
    "04_superalgebra_and_tables.py":
        "ac49157d77c1b558aed12c0b1d763b57e8c6d6766890ad8da9a819953b142a1d",
    "05_toroidal_representation.py":
        "0061303f7b0fa1d111870f7fd4cf7ad971cfc6f5e9cd08a0dc42bc20f16dd4a6",
    "06_verifier.py": "4821c1c45a60c80cbbf34e291395c96c2c3704078225c3dbb4594c0cc7a94730",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
