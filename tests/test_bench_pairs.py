"""tools/bench_pairs.py summarizes alternating pairs as the BENCH_*.json files do."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, p90, *, failed=0, exit_code=0):
    result = {
        "correct": failed == 0,
        "attempted": 104,
        "failed": failed,
        "metrics": {"call_norm_ms_p90": {"value": p90, "unit": "ms"}},
    }
    return {"pair": pair, "side": side, "exit": exit_code, "result": result}


def test_summary_of_pairs():
    parent, change = [6.4, 6.2, 6.9, 6.3, 6.5], [4.4, 4.1, 4.6, 6.4, 4.2]
    runs = [_run(k + 1, "parent", v) for k, v in enumerate(parent)]
    runs += [_run(k + 1, "change", v) for k, v in enumerate(change)]
    summary = _load().summarize(runs, 5, {})
    entry = summary["call_norm_ms_p90"]
    assert entry["parent_median"] == 6.4 and entry["change_median"] == 4.4
    assert entry["parent_quartiles"] == [round(x, 6) for x in statistics.quantiles(parent, n=4)]
    assert entry["parent_quartiles"][1] == entry["parent_median"]
    assert entry["change_vs_parent_median_pct"] == round(100.0 * (4.4 / 6.4 - 1.0), 2)
    # pair 4 is a tie: it counts as not lower
    assert entry["pairs_change_lower"] == 4 and entry["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 0} and summary["correct"]


def test_a_failed_or_missing_run_makes_the_summary_incorrect():
    tool = _load()
    runs = [_run(k, side, 5.0) for k in (1, 2) for side in ("parent", "change")]
    assert tool.summarize(runs, 2, {})["correct"]
    assert not tool.summarize(runs[:-1], 2, {})["correct"]
    exited = runs[:-1] + [_run(2, "change", 5.0, exit_code=1)]
    assert not tool.summarize(exited, 2, {})["correct"]
    wrong = runs[:-1] + [_run(2, "change", 5.0, failed=3)]
    summary = tool.summarize(wrong, 2, {})
    assert not summary["correct"] and summary["failed"] == {"parent": 0, "change": 3}


_PARENT = [6.4, 6.2, 6.9, 6.3, 6.5, 6.4, 6.6, 6.3, 6.5, 6.4]


@pytest.mark.parametrize(
    "better, change, meets",
    [
        # better in 10 of 10 pairs, by more than the parent's quartile gap
        ("lower", [x - 1.0 for x in _PARENT], True),
        ("higher", [x + 1.0 for x in _PARENT], True),
        # the same runs read against the metric's direction
        ("higher", [x - 1.0 for x in _PARENT], False),
        # better in 10 of 10 pairs, by less than the quartile gap
        ("lower", [x - 0.01 for x in _PARENT], False),
        # better by 1 in 8 pairs, a tie and a loss: 8 of 10 is short of 9 of 10
        ("lower", [x - 1.0 for x in _PARENT[:8]] + [_PARENT[8], _PARENT[9] + 1.0], False),
        # 9 of 10, the tenth a tie
        ("lower", [x - 1.0 for x in _PARENT[:9]] + [_PARENT[9]], True),
    ],
)
def test_claim_rule_of_end_to_end_metrics(better, change, meets):
    runs = [_run(k + 1, "parent", v) for k, v in enumerate(_PARENT)]
    runs += [_run(k + 1, "change", v) for k, v in enumerate(change)]
    entry = _load().summarize(runs, 10, {"call_norm_ms_p90": better})["call_norm_ms_p90"]
    quartiles = statistics.quantiles(_PARENT, n=4)
    assert entry["parent_iqr"] == round(quartiles[2] - quartiles[0], 6)
    assert entry["meets_claim_rule"] is meets


def test_claim_rule_is_given_for_end_to_end_metrics_alone():
    runs = [_run(k, side, 5.0) for k in (1, 2) for side in ("parent", "change")]
    entry = _load().summarize(runs, 2, {"setup_s": "lower"})["call_norm_ms_p90"]
    assert "parent_iqr" not in entry and "meets_claim_rule" not in entry


def test_machine_says_whether_runs_cache_bytecode(monkeypatch):
    tool = _load()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert tool._machine().endswith(", bytecode caching off (PYTHONDONTWRITEBYTECODE=1)")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert tool._machine().endswith(", bytecode caching on")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")  # empty counts as unset
    assert tool._machine().endswith(", bytecode caching on")
