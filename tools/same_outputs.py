"""Check that two zetacorr checkouts give byte-identical CLI outputs.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots.  Each command runs twice, once per
checkout, each time in a fresh ``python3 -I`` process that imports
zetacorr from that checkout's ``src/``, with a new temporary directory as
its working directory and its stdout in ``stdout.txt`` there.  The
commands are the default ``kfun``; two ``kfun`` runs at the edges of the
profile's proxies, ``--tuple 1,1,-2`` on [999990, 1000000] at step 0.5 and
tolerance 1e-2 (where the proxies are the terms themselves) and
``--tuple 1,1,-1,-1`` on [0, 1] at step 0.02 (bins wider than a block of
terms); the default ``dips --tuple`` and
``constants --tuple`` for each of ``kfun``'s default tuples;
``dips --tuple 1,1,-2 --t-lo 1400 --t-hi 1440``, which exits 2 as its
window passes the bundled table's last ordinate, so that an error
message is compared; ``validate-zeros`` on the bundled table;
``constants --r-max 12``; and every workload of ``perfbench/workloads.py``
(read from this tool's checkout, not changed) at seeds 0, 5 and 9, built
with ``workloads.command``.  The exit code, stdout, stderr and every file
the command wrote are compared byte for byte, with the run's directory
written ``<dir>`` and the checkout root ``<root>`` wherever they are
named; for a workload these include the files ``workloads.outputs`` reads
back, whose count is printed.  One line per command names what differs,
and for a ``.json`` object the dotted keys whose values differ; the exit
code is 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CURVE_TUPLES = ("1,1,-2", "1,1,-1,-1", "1,2,-3")  # kfun's defaults
SEEDS = (0, 5, 9)
CHILD = (  # argv: src, then the command's arguments
    "import sys; sys.path.insert(0, sys.argv[1]); from zetacorr import cli; "
    "sys.exit(cli.main(sys.argv[2:]))"
)


def _workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def commands() -> list[tuple[str, object, object]]:
    """(label, argv of a directory, gated outputs of a directory or None) of each command."""
    out = [("kfun", lambda d: ["kfun"], None)]
    for edge in (
        ["--tuple", "1,1,-2", "--t-lo", "999990", "--t-hi", "1000000", "--step", "0.5",
         "--tolerance", "1e-2"],
        ["--tuple", "1,1,-1,-1", "--t-lo", "0", "--t-hi", "1", "--step", "0.02"],
    ):
        out.append((" ".join(["kfun", *edge]), lambda d, edge=edge: ["kfun", *edge], None))
    for t in CURVE_TUPLES:
        out.append((f"dips --tuple {t}", lambda d, t=t: ["dips", "--tuple", t], None))
    past = ["dips", "--tuple", "1,1,-2", "--t-lo", "1400", "--t-hi", "1440"]
    out.append((" ".join(past), lambda d: past, None))
    out.append(("validate-zeros", lambda d: ["validate-zeros"], None))
    out.append(("constants --r-max 12", lambda d: ["constants", "--r-max", "12"], None))
    for t in CURVE_TUPLES:
        out.append((f"constants --tuple {t}", lambda d, t=t: ["constants", "--tuple", t], None))
    wl = _workloads()
    for name, w in wl.WORKLOADS.items():
        for seed in SEEDS:
            inputs = wl.inputs_for(seed)
            out.append((
                f"{name} seed {seed}",
                lambda d, w=w, inputs=inputs: wl.command(w, inputs, d),
                lambda d, w=w: wl.outputs(w, d),
            ))
    return out


def _files(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def run(root: Path, make_argv, gated) -> tuple[dict[str, bytes], int | None]:
    """One command run from `root`'s src: {name: bytes} and its gated output count.

    The names are "exit code", "stdout", "stderr" and each written file's path.
    """
    env = {k: v for k, v in os.environ.items() if k != "ZETA_ZEROS_PATH"}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = make_argv(d)
        before = _files(d)
        with open(d / "stdout.txt", "wb") as out:
            done = subprocess.run(
                [sys.executable, "-I", "-c", CHILD, str(root / "src"), *argv],
                cwd=d, stdout=out, stderr=subprocess.PIPE, env=env, check=False,
            )
        record = {"exit code": str(done.returncode).encode(), "stderr": done.stderr}
        record |= {k: v for k, v in _files(d).items() if before.get(k) != v}
        record["stdout"] = record.pop("stdout.txt")
        # hsum prints the paths it wrote, which name the run's own directory,
        # and an error message may name a file of the checkout
        for path, name in ((d, b"<dir>"), (root, b"<root>")):
            record = {k: v.replace(str(path).encode(), name) for k, v in record.items()}
        return record, None if gated is None else len(gated(d))


def _json_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted keys of the leaves at which two parsed JSON objects differ."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [prefix[:-1]]
    keys = sorted(a.keys() | b.keys())
    return [k for key in keys for k in _json_keys(a.get(key), b.get(key), f"{prefix}{key}.")]


def _differs(name: str, a: bytes | None, b: bytes | None) -> str:
    """The name of an output that differs, with its differing keys if JSON objects."""
    try:
        keys = _json_keys(json.loads(a), json.loads(b)) if name.endswith(".json") else []
    except (TypeError, ValueError):  # missing on one side, or not JSON
        keys = []
    return f"{name} [{', '.join(keys)}]" if any(keys) else name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    differ = False
    for label, make_argv, gated in commands():
        (a, gated_a), (b, gated_b) = (run(root, make_argv, gated) for root in roots)
        names = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        bad = [_differs(k, a.get(k), b.get(k)) for k in names]
        differ |= bool(bad)
        note = f"exit {a['exit code'].decode()}, {len(a) - 2} outputs"
        if gated is not None:
            note += f", {gated_a}/{gated_b} gated"
        line = f"{'DIFFER' if bad else 'same'}  {label}  ({note})"
        print(line + (f": {', '.join(bad)}" if bad else ""), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
