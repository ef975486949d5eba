"""tools/bench_pairs.py keeps the pairs it has when a later run fails, and gives verdicts."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_run_keeps_earlier_pairs(tmp_path, monkeypatch):
    tool = _load_tool()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    runs = []

    def fake_run(root, workload, seed, seconds):
        runs.append(root)
        if len(runs) == 5:  # the first run of the third pair
            raise RuntimeError("run failed")
        return {
            "correct": True, "failed": 0, "attempted": 1,
            "metrics": {name: float(len(runs)) for name in names},
            "environment": {"cpu_model": "test"},
        }

    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"other": {"kept": True}}}), encoding="utf-8")
    monkeypatch.setattr(tool, "run_side", fake_run)
    monkeypatch.setattr(
        sys, "argv",
        ["bench_pairs.py", str(ROOT), str(ROOT), "--workload", "w", "--pairs", "4",
         "--seconds", "1", "--out", str(out)],
    )
    with pytest.raises(RuntimeError):
        tool.main()
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["workloads"]["other"] == {"kept": True}
    entry = record["workloads"]["w"]
    assert len(entry["pairs"]) == 2 and entry["all_correct"]
    assert entry["summary"]["wall_s"]["pairs"] == 2
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change"]


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # 9 of 10 won, medians 0.1 apart against a parent IQR of 0.02
        ([1.0, 1.01, 1.02] * 3 + [1.0], [0.9] * 9 + [1.1], "lower", "gain"),
        ([10.0] * 10, [9.8] * 10, "higher", "worse"),
        ([1.0, 2.0] * 5, [1.4, 1.6] * 5, "lower", "unresolved"),
        ([1.0, 1.01] * 5, [1.01, 1.0] * 5, "lower", "no worse"),
    ],
)
def test_verdicts(parent, change, better, expected):
    tool = _load_tool()
    pairs = [
        {"parent": {"metrics": {"m": p}}, "change": {"metrics": {"m": c}}}
        for p, c in zip(parent, change)
    ]
    summary = tool.summarize(pairs, {"m": {"better": better, "bound": 0.15}})
    assert summary["m"]["verdict"] == expected
