"""Driving the relation checker from Python.

The same machinery backs the `supertoroidal check` command line; reports
are deterministic given the configuration and seed.

Run:  python demos/06_verifier.py
"""

from supertoroidal import CheckConfig, gen_state, run
from supertoroidal.serialize import dumps
from supertoroidal.verifier import strip_timings

cfg = CheckConfig(M=3, N=2, q=2, max_degree=4, exponent_box=1, samples=8, seed=2024)

print("a deterministic generated state:")
print(" ", gen_state(cfg, 0))
print("  (same offset, same state:", gen_state(cfg, 0) == gen_state(cfg, 0), ")")

report = run(cfg, families=("sttables", "thm46", "lemma49"))
print(f"\nall families pass: {report['all_pass']}")
for fam, fr in report["families"].items():
    cells = fr["clauses"]
    total = sum(c["hits"] for c in cells.values())
    print(f"  {fam}: {len(cells)} clauses, {total} checks, pass={fr['pass']}")

print("\nadjudicated print typos found by the cross check:")
for adj in report["adjudications"]:
    print(f"  {adj['family']}/{adj['clause']}: {adj['note']}")

print("\ncoverage (hits per clause):")
row = ", ".join(f"{k}={v}" for k, v in sorted(report["coverage"].items())[:8])
print(f"  {row}, ...")

# reports strip to byte-identical text across reruns
text1 = dumps(strip_timings(report))
text2 = dumps(strip_timings(run(cfg, families=("sttables", "thm46", "lemma49"))))
print(f"\nbyte-identical rerun: {text1 == text2}")
