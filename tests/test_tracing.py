"""The perfbench tracer still finds every library function it wraps.

perfbench/tracing.py patches functions and methods by name and reads the
two kernel caches by name, so a rename in the library breaks
``perfbench/run.py --trace 1``; this test makes that a tier-1 failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import tracing
tracing.Tracer().install()
counts = tracing.cache_counts()
assert all(info is not None for info in counts.values()), counts
print(" ".join(sorted(counts)))
"""


def test_tracer_installs_and_finds_both_kernel_caches():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["annihilation", "creation"]
