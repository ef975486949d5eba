"""tools/same_outputs.py passes a tree against itself and names what differs, down to JSON keys."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_is_listed():
    labels = [label for label, _, _ in _load_tool().commands()]
    tuples = ("1,1,-2", "1,1,-1,-1", "1,2,-3")
    edges = [  # the profile's proxies are the terms, then their bins span blocks
        "kfun --tuple 1,1,-2 --t-lo 999990 --t-hi 1000000 --step 0.5 --tolerance 1e-2",
        "kfun --tuple 1,1,-1,-1 --t-lo 0 --t-hi 1 --step 0.02",
    ]
    dips = [f"dips --tuple {t}" for t in tuples]
    past = "dips --tuple 1,1,-2 --t-lo 1400 --t-hi 1440"
    constants = ["constants --r-max 12", *(f"constants --tuple {t}" for t in tuples)]
    assert labels[:12] == ["kfun", *edges, *dips, past, "validate-zeros", *constants]
    assert len(labels) == 12 + 3 * 3


def test_tree_against_itself_is_the_same(monkeypatch, capsys):
    tool = _load_tool()
    monkeypatch.setattr(tool, "commands", lambda: [
        ("constants", lambda d: ["constants", "--tuple", "1,1,-2"], None)
    ])
    assert tool.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out.startswith("same  constants  (exit 0, 1 outputs)")


def test_a_differing_file_is_named(monkeypatch, capsys):
    tool = _load_tool()
    runs = []

    def fake_run(root, make_argv, gated):
        runs.append(root)
        body = b"1.0\n" if len(runs) == 1 else b"1.0000000000000002\n"
        return {"exit code": b"0", "stderr": b"", "stdout": b"", "reports/reports.csv": body}, 1

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.setattr(tool, "commands", lambda: [("hsum", lambda d: ["hsum"], lambda d: {})])
    assert tool.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == "DIFFER  hsum  (exit 0, 2 outputs, 1/1 gated): reports/reports.csv\n"


def test_stderr_is_recorded_with_the_checkout_root_named():
    # the window passes the bundled table's last ordinate, 1419.42
    argv = ["dips", "--tuple", "1,1,-2", "--t-lo", "1400", "--t-hi", "1440"]
    record, _ = _load_tool().run(ROOT, lambda d: argv, None)
    assert record["exit code"] == b"2"
    assert record["stdout"] == b""
    table = b"<root>/src/zetacorr/data/zeros_1000.txt"
    assert record["stderr"].startswith(b"error: zero table " + table + b" ends at 1419.42")


def test_differing_stderr_and_json_keys_are_named(monkeypatch, capsys):
    tool = _load_tool()
    runs = []

    def fake_run(root, make_argv, gated):
        runs.append(root)
        new = len(runs) == 2
        diagnostics = {"main_term_terms": 791 if new else 1159, "tuple_count": 5}
        report = {"main_term": 1.0 + new, "diagnostics": diagnostics}
        return {
            "exit code": b"0", "stderr": b"x" if new else b"", "stdout": b"",
            "report.json": json.dumps(report).encode(), "list.json": b"[1]" if new else b"[2]",
        }, None

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.setattr(tool, "commands", lambda: [("hsum", lambda d: ["hsum"], None)])
    assert tool.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == (
        "DIFFER  hsum  (exit 0, 3 outputs): list.json, "
        "report.json [diagnostics.main_term_terms, main_term], stderr\n"
    )
