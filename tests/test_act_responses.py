"""The perfbench act workload's responses for seeds 1 and 2, pinned by their SHA-256.

The act workload serves seven batches of JSON act and bracket requests
drawn from a seed.  Its responses depend only on the library, so their
hash is a standing pin of every operator's exact image.  The requests are
made and served here the way ``perfbench/run.py`` does, through
``workloads.act_batch`` and ``workloads.handle``, with ``perfbench`` on
the path of a child interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# a raising request is hashed as a marker, as the workload's own pass does
CODE = """
import hashlib
import workloads
digest = hashlib.sha256()
for k in range(7):
    for text in workloads.act_batch(SEED, k):
        try:
            digest.update(workloads.handle(text).encode())
        except Exception:
            digest.update(b"\\0raised\\0")
print(digest.hexdigest())
"""


@pytest.mark.parametrize("seed, digest", [
    (1, "2f568b02d56f109cbc2331dd8fb6e981c6520e0c0a2865d750784092c1dfb199"),
    (2, "36afbbd6f0b2d31a3b887cc9b3992479f7c3d229b59535570c064c3adf7de6de"),
], ids=["seed1", "seed2"])
def test_act_responses_sha256(seed, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", f"SEED = {seed}\n" + CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == digest
