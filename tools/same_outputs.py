"""Check that two zetacorr checkouts give byte-identical CLI outputs.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout roots.  Each command runs twice, once per
checkout, each time in a fresh ``python3 -I`` process that imports
zetacorr from that checkout's ``src/``, with a new temporary directory as
its working directory and its stdout in ``stdout.txt`` there; that
directory's path is written ``<dir>`` wherever an output names it.  The
commands are the default ``kfun``; the default ``dips --tuple`` and
``constants --tuple`` for each of ``kfun``'s default tuples;
``validate-zeros`` on the bundled table; ``constants --r-max 12``; and
every workload of ``perfbench/workloads.py`` (read from this tool's
checkout, not changed) at seeds 0, 5 and 9, built with
``workloads.command``.  The exit code, stdout and every file the
command wrote are compared byte for byte; for a workload these include
the files ``workloads.outputs`` reads back, whose count is printed.  One line per command; the exit code is 1 on
any difference.
"""
from __future__ import annotations

import argparse
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
    for t in CURVE_TUPLES:
        out.append((f"dips --tuple {t}", lambda d, t=t: ["dips", "--tuple", t], None))
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

    The names are "exit code", "stdout" and each written file's path.
    """
    env = {k: v for k, v in os.environ.items() if k != "ZETA_ZEROS_PATH"}
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = make_argv(d)
        before = _files(d)
        with open(d / "stdout.txt", "wb") as out:
            done = subprocess.run(
                [sys.executable, "-I", "-c", CHILD, str(root / "src"), *argv],
                cwd=d, stdout=out, stderr=subprocess.DEVNULL, env=env, check=False,
            )
        record = {"exit code": str(done.returncode).encode()}
        # hsum prints the paths it wrote, which name the run's own directory
        here = str(d).encode()
        record |= {k: v.replace(here, b"<dir>") for k, v in _files(d).items() if before.get(k) != v}
        record["stdout"] = record.pop("stdout.txt")
        return record, None if gated is None else len(gated(d))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    differ = False
    for label, make_argv, gated in commands():
        (a, gated_a), (b, gated_b) = (run(root, make_argv, gated) for root in roots)
        bad = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        differ |= bool(bad)
        note = f"exit {a['exit code'].decode()}, {len(a) - 1} outputs"
        if gated is not None:
            note += f", {gated_a}/{gated_b} gated"
        line = f"{'DIFFER' if bad else 'same'}  {label}  ({note})"
        print(line + (f": {', '.join(bad)}" if bad else ""), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
