"""Run one zetacorr CLI command in this process, as the benchmark's child.

    python3 -I perfbench/child.py --src SRC --sidecar PATH --run-id N [--trace] -- ARGS...

Imports zetacorr from SRC (and refuses any other copy), notes the
CLOCK_MONOTONIC time at which the command has its inputs ready -- the
return of ``cli._sieve_for``, the last set-up step of ``hsum``, ``dips``
and ``kfun`` -- and runs ``zetacorr.cli.main(ARGS)``.  With --trace the
package's layers are wrapped by `spans.install`.  The sidecar JSON gets
the set-up time stamp and the spans; the exit code is the command's.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import zetacorr
    from zetacorr import cli

    if src not in Path(zetacorr.__file__).resolve().parents:
        print(f"zetacorr imported from {zetacorr.__file__}, not {src}", file=sys.stderr)
        return 5

    sidecar = {"setup_done": None, "spans": []}
    sieve_for = cli._sieve_for

    def timed_sieve_for(*a, **k):
        table = sieve_for(*a, **k)
        if sidecar["setup_done"] is None:
            sidecar["setup_done"] = time.monotonic()
        return table

    cli._sieve_for = timed_sieve_for
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            sidecar["spans"] = tracer.spans
        Path(args.sidecar).write_text(json.dumps(sidecar), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
