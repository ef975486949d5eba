"""tools/same_outputs.py passes a tree against itself and names the file that differs."""
import importlib.util
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
    dips = [f"dips --tuple {t}" for t in tuples]
    constants = ["constants --r-max 12", *(f"constants --tuple {t}" for t in tuples)]
    assert labels[:9] == ["kfun", *dips, "validate-zeros", *constants]
    assert len(labels) == 9 + 3 * 3


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
        return {"exit code": b"0", "stdout": b"", "reports/reports.csv": body}, 1

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.setattr(tool, "commands", lambda: [("hsum", lambda d: ["hsum"], lambda d: {})])
    assert tool.main([str(ROOT), str(ROOT)]) == 1
    assert capsys.readouterr().out == "DIFFER  hsum  (exit 0, 2 outputs, 1/1 gated): reports/reports.csv\n"
