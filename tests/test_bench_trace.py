"""The benchmark's traced child process runs against this source tree.

perfbench/spans.py wraps zetacorr functions by name; a rename that it
does not follow fails the traced benchmark runs, and these tests first.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_spans(tmp_path, argv) -> set[str]:
    sidecar = tmp_path / "sidecar.json"
    done = subprocess.run(
        [
            sys.executable, "-I", str(ROOT / "perfbench" / "child.py"),
            "--src", str(ROOT / "src"), "--sidecar", str(sidecar),
            "--run-id", "0", "--trace", "--", *argv,
        ],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return {span["name"] for span in json.loads(sidecar.read_text())["spans"]}


def test_traced_hsum(tmp_path):
    config = tmp_path / "experiment.cfg"
    config.write_text(
        f"tuples = 1,1,-2\nT = 30\nh_center = 20\nh_width = 2\n"
        f"output_dir = {tmp_path / 'reports'}\n"
    )
    names = _traced_spans(tmp_path, ["hsum", "--config", str(config)])
    assert {
        "arithmetic.sieve",
        "correlation.main_term",
        "correlation.direct",
        "correlation.spectral",
    } <= names


def test_traced_dips(tmp_path):
    argv = ["dips", "--tuple", "1,1,-2", "--t-lo", "13.5", "--t-hi", "14.8"]
    names = _traced_spans(tmp_path, argv + ["--tolerance", "0.01"])
    assert {"series.profile_grid", "dips.scan"} <= names
