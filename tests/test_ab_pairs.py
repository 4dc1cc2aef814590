import argparse
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from ab_pairs import (  # noqa: E402
    _cold_pass, _src_lines, changed_lines, summarize, summarize_caches, summarize_calls,
    summarize_passes)
from sample_pairs import _check, _parse, _run as _run_check  # noqa: E402
from supertoroidal.verifier import CheckConfig  # noqa: E402


def _run(workload, seed, side, last_line=None, **metrics):
    last_line = last_line or {"attempted": 100, "failed": 0}
    return {"workload": workload, "seed": seed, "side": side, "metrics": metrics,
            "last_line": last_line}


def test_summary_counts_pairs_medians_and_wins():
    runs = []
    for seed, (parent, change) in enumerate([(4.0, 3.0), (5.0, 3.5), (4.5, 4.6), (6.0, 3.2)], 1):
        runs += [_run("act", seed, "parent", run_s=parent, peak_rss_mb=60.0),
                 _run("act", seed, "change", run_s=change, peak_rss_mb=60.0)]
    runs.append(_run("thm46", 1, "parent", run_s=1.5))  # its pair is missing
    summary = summarize(runs)
    assert set(summary) == {"act.run_s", "act.peak_rss_mb"}
    run_s = summary["act.run_s"]
    assert run_s["pairs"] == 4 and run_s["change_lower_in_pairs"] == 3
    assert run_s["parent_median"] == 4.75 and run_s["change_median"] == 3.35
    # inclusive quartiles: 4.0 4.5 5.0 6.0 -> 4.375, 4.75, 5.25
    assert run_s["parent_quartiles"] == [4.375, 4.75, 5.25]
    assert run_s["change_quartiles"] == [3.15, 3.35, 3.775]
    # a tie is no win
    assert summary["act.peak_rss_mb"]["change_lower_in_pairs"] == 0


def test_summary_of_one_pair_and_rounding():
    summary = summarize([_run("thm46", 3, "change", run_s=1.234567),
                         _run("thm46", 3, "parent", run_s=2.0)])
    assert summary["thm46.run_s"] == {
        "parent_median": 2.0, "parent_quartiles": [2.0, 2.0, 2.0],
        "change_median": 1.2346, "change_quartiles": [1.2346, 1.2346, 1.2346],
        "pairs": 1, "change_lower_in_pairs": 1,
        "gain_rule_met": True, "failed_share": {"parent": 0.0, "change": 0.0},
    }


def test_summary_marks_a_median_worse_than_its_bound():
    runs = []
    for seed, (parent, change, rss) in enumerate([(2.0, 2.6, 50.0), (2.2, 2.7, 50.0),
                                                  (1.8, 2.2, 50.0)], 1):
        runs += [_run("thm46", seed, "parent", run_s=parent, setup_s=0.5, peak_rss_mb=rss,
                      **{"serialize.terms": 9728}),
                 _run("thm46", seed, "change", run_s=change, setup_s=0.625, peak_rss_mb=rss - 3,
                      **{"serialize.terms": 0})]
    summary = summarize(runs, {"run_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.2})
    # 2.6 against 2.0 is 30% worse, past the bound of 25%
    assert summary["thm46.run_s"]["bound"] == 0.25
    assert summary["thm46.run_s"]["worse_than_bound"] is True
    # exactly at the bound is not past it, and a better median never is
    assert summary["thm46.setup_s"]["worse_than_bound"] is False
    assert summary["thm46.peak_rss_mb"]["worse_than_bound"] is False
    # a metric without a bound is not marked
    assert "worse_than_bound" not in summary["thm46.serialize.terms"]
    assert "worse_than_bound" not in summarize(runs)["thm46.run_s"]


def test_unresolved_when_either_side_spreads_past_the_bound():
    bounds = {"run_s": 0.25}
    tight = [0.45 + 0.001 * k for k in range(10)]
    # inclusive quartiles 0.425 and 0.575 around 0.5: a spread of 0.15 against 0.25 * 0.5
    wide = [0.4] * 3 + [0.5] * 4 + [0.6] * 3
    for parent, change, unresolved in ((wide, tight, True), (tight, wide, True),
                                       (tight, tight, False),
                                       # every change run below every parent run
                                       (wide, [v - 0.3 for v in wide], False)):
        cell = summarize(_pairs(zip(parent, change)), bounds)["thm46.run_s"]
        assert cell["unresolved"] is unresolved, (parent, change)
    assert "unresolved" not in summarize(_pairs(zip(wide, tight)))["thm46.run_s"]


def _pairs(values, metric="run_s"):
    runs = []
    for seed, (parent, change) in enumerate(values, 1):
        runs += [_run("thm46", seed, "parent", **{metric: parent}),
                 _run("thm46", seed, "change", **{metric: change})]
    return runs


def test_gain_rule_met_by_nine_wins_of_ten_and_a_gap_past_the_spread():
    # parent 10..19 has quartiles 12.25 and 16.75, an interquartile distance of 4.5
    parent = [10.0 + k for k in range(10)]
    change = [p - 5.0 for p in parent[:9]] + [parent[9] + 1.0]  # one pair lost
    cell = summarize(_pairs(zip(parent, change)))["thm46.run_s"]
    assert cell["change_lower_in_pairs"] == 9 and cell["parent_quartiles"] == [12.25, 14.5, 16.75]
    assert cell["parent_median"] - cell["change_median"] == 5.0
    assert cell["gain_rule_met"] is True


def test_gain_rule_missed_by_the_spread():
    # lower in 10 of 10, but by 4.0 against an interquartile distance of 4.5
    parent = [10.0 + k for k in range(10)]
    cell = summarize(_pairs((p, p - 4.0) for p in parent))["thm46.run_s"]
    assert cell["change_lower_in_pairs"] == 10
    assert cell["gain_rule_met"] is False


def test_gain_rule_missed_by_wins():
    # a wide gap, but 8 wins, one tie and one loss in 10 pairs
    parent = [10.0 + 0.1 * k for k in range(10)]
    change = [p - 5.0 for p in parent[:8]] + [parent[8], parent[9] + 0.5]
    cell = summarize(_pairs(zip(parent, change)))["thm46.run_s"]
    assert cell["change_lower_in_pairs"] == 8
    assert cell["parent_median"] - cell["change_median"] > 1.0
    assert cell["gain_rule_met"] is False


def test_failed_share_per_side_from_the_last_lines():
    runs = [_run("act", 1, "parent", {"attempted": 1008, "failed": 0}, run_s=3.0),
            _run("act", 1, "change", {"attempted": 1008, "failed": 2}, run_s=3.1),
            _run("act", 2, "parent", {"attempted": 1008, "failed": 0}, run_s=3.0),
            # a run that printed no result counts as one failed operation
            {**_run("act", 2, "change", run_s=3.1), "last_line": None}]
    cell = summarize(runs)["act.run_s"]
    assert cell["failed_share"] == {"parent": 0.0, "change": 3 / 1009}


def test_total_calls_shown_as_parent_to_change():
    counts = {("thm46", "parent"): 1163940, ("thm46", "change"): 901234,
              ("act", "change"): 5, ("act", "parent"): None}
    assert summarize_calls(counts) == {
        "thm46": {"parent": 1163940, "change": 901234, "shown": "1,163,940 -> 901,234"},
        "act": {"parent": None, "change": 5, "shown": "? -> 5"},
    }


def test_gc_collected_shown_as_parent_to_change():
    passes = {("thm46", "parent"): {"total_calls": 265763, "gc_collected": 24739},
              ("thm46", "change"): {"total_calls": 265700, "gc_collected": 0},
              ("act", "parent"): {"total_calls": None, "gc_collected": None},
              ("act", "change"): {"total_calls": 5, "gc_collected": 0}}
    assert summarize_passes(passes) == {
        "total_calls": {
            "thm46": {"parent": 265763, "change": 265700, "shown": "265,763 -> 265,700"},
            "act": {"parent": None, "change": 5, "shown": "? -> 5"}},
        "gc_collected": {
            "thm46": {"parent": 24739, "change": 0, "shown": "24,739 -> 0"},
            "act": {"parent": None, "change": 0, "shown": "? -> 0"}},
    }


def test_cache_misses_and_currsize_shown_as_parent_to_change():
    passes = {("thm46", "parent"): {"total_calls": 1, "cache": {
                  "_creation_level": {"misses": 380, "currsize": 380}}},
              ("thm46", "change"): {"total_calls": 1, "cache": {
                  "_creation_level": {"misses": 582, "currsize": 128},
                  "_new_memo": {"misses": 3, "currsize": 3}}},
              # a pass that printed nothing has no cache
              ("act", "parent"): {"total_calls": None, "cache": None},
              ("act", "change"): {"total_calls": 5, "cache": {
                  "_creation_level": {"misses": 1433, "currsize": 128}}}}
    assert summarize_caches(passes) == {
        "thm46": {
            "_creation_level": {
                "misses": {"parent": 380, "change": 582, "shown": "380 -> 582"},
                "currsize": {"parent": 380, "change": 128, "shown": "380 -> 128"}},
            "_new_memo": {
                "misses": {"parent": None, "change": 3, "shown": "? -> 3"},
                "currsize": {"parent": None, "change": 3, "shown": "? -> 3"}}},
        "act": {
            "_creation_level": {
                "misses": {"parent": None, "change": 1433, "shown": "? -> 1,433"},
                "currsize": {"parent": None, "change": 128, "shown": "? -> 128"}}},
    }


def test_src_lines_count_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "supertoroidal"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("\n\n# three\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert _src_lines(str(tmp_path)) == {"a.py": 2, "b.py": 3}
    assert _src_lines(str(ROOT)) == {
        path.name: path.read_text().count("\n")
        for path in (ROOT / "src" / "supertoroidal").glob("*.py")}
    # only the files whose count moved are shown, a missing file counting 0
    parent, change = {"a.py": 2, "b.py": 3, "gone.py": 7}, {"a.py": 2, "b.py": 1, "new.py": 4}
    assert changed_lines(parent, change) == {
        "b.py": "3 -> 1", "gone.py": "7 -> 0", "new.py": "0 -> 4"}


def test_total_calls_of_a_cold_pass_repeat():
    # two fresh interpreters count the same calls and memo misses in one cold thm46
    # pass, and the cyclic collector finds nothing in it
    first = _cold_pass(str(ROOT), "thm46")
    assert first["total_calls"] is not None and first["total_calls"] > 100_000
    assert first["gc_collected"] == 0
    creation = first["cache"]["_creation_level"]
    assert creation["misses"] >= creation["currsize"] > 0
    assert _cold_pass(str(ROOT), "thm46") == first


def test_sample_pairs_reads_a_check_as_clause_and_index():
    assert _check("ST1:97") == ("ST1", 97)
    assert _check("central-witness:0") == ("central-witness", 0)
    for bad in ("ST1", "ST1:", ":3", "ST1:-1", "ST1:x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _check(bad)


def test_sample_pairs_defaults_are_the_check_config_defaults():
    args, config = _parse(["P", "C", "--family", "thm46", "--check", "ST1:0", "--out", "x.json"])
    assert config == CheckConfig().to_obj()
    assert (args.pairs, args.check) == (5, [("ST1", 0)])
    _, config = _parse(["P", "C", "--family", "thm46", "--check", "ST1:0", "--out", "x.json",
                        "--max-degree", "4", "--box", "1", "--q", "3"])
    assert config == CheckConfig(q=3, max_degree=4, exponent_box=1).to_obj()


def test_sample_pairs_times_one_check_in_a_fresh_interpreter():
    # the child draws the INDEX-th payload of the clause and evaluates it, here in
    # this checkout as in an exported tree
    config = {"M": 3, "N": 2, "q": 2, "max_degree": 4, "exponent_box": 1, "samples": 2,
              "seed": 6}
    run = _run_check(str(ROOT), "thm46", "ST1", 1, config)
    assert run["exit_code"] == 0, run["stderr_tail"]
    result = run["result"]
    assert result["ok"] is True and result["pattern"].startswith("ST1:")
    assert result["seconds"] > 0 and result["peak_rss_mb"] > 0
