"""The benchmark's traced child process and reference maker run against this tree.

perfbench/spans.py wraps zetacorr functions by name, and
perfbench/make_reference.py imports some; a rename or removal that they
do not follow fails the benchmark, and these tests first.
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from zetacorr.correlation import leading_constant, parse_tuple_text

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


# run in a child: spans.install rebinds zetacorr functions for the whole process
TRACED_TABLE = """
import contextlib, io, json, sys, weakref
sys.path[:0] = [{src!r}, {perfbench!r}]
from zetacorr import cli, series
import spans

spans.install(spans.Tracer(0))
tables, alive = [], []
sieve, sums = cli.sieve_mangoldt, series.phase_sums

def recorded_sieve(limit):
    table = sieve(limit)
    tables.append(weakref.ref(table))
    return table

def recorded_sums(*args):
    alive.append(tables[0]() is not None)
    return sums(*args)

cli.sieve_mangoldt, series.phase_sums = recorded_sieve, recorded_sums
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps([code, len(tables), alive]))
"""


@pytest.mark.parametrize("command", ["dips", "kfun"])
def test_traced_run_frees_the_sieve_table(command):
    # the span wrappers hold their call's arguments until it returns, so the
    # table must not be an argument of a traced call that outlives the sieve
    argv = [command, "--tuple", "1,1,-1,-1", "--tolerance", "1e-2"]
    code = TRACED_TABLE.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), argv=argv)
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 1, [False]]


def test_reference_maker_factors(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    make_reference = importlib.import_module("make_reference")
    workloads = importlib.import_module("workloads")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for w in workloads.WORKLOADS.values():
        for text in w.tuples:
            d = make_reference.tuple_factor(text)
            assert d == pytest.approx(leading_constant(parse_tuple_text(text))[0], rel=1e-9)
            for key, entry in reference[w.name].items():
                if w.kind == "hsum" and key.startswith(f"{text}@"):
                    assert entry["d"] == d
