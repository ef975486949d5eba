"""Closed-loop benchmark of zetacorr's CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zetacorr checkout; the package is imported from
its ``src/`` directory.  One client runs one command at a time, each as
a fresh ``python3 -I`` process with the CLI defaults (a single thread),
until S seconds have passed; a cheap warm-up command runs first and is
not measured.  Every command's outputs go through the gate in
workloads.py.

With --trace 0 the last stdout line carries the end-to-end metrics:
medians over the run's commands of wall time, set-up time, CPU time
and peak RSS.  With --trace 1 commands alternate untraced and traced,
and the line carries the per-layer metrics of spans.py (medians over
the traced commands) plus the tracing overhead.  The line before it
records the machine; the full record, with the baseline from
baseline.json and every span, goes to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
COMMAND_TIMEOUT_S = 120.0
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB


@dataclass
class CommandResult:
    code: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    spans: list = field(default_factory=list, repr=False)


def run_command(argv: list[str], cmd_dir: Path, run_id: int, traced: bool, timeout: float) -> CommandResult:
    """Run one CLI command in a fresh process; wall, CPU and RSS from wait4."""
    sidecar = cmd_dir / "sidecar.json"
    cmd = [
        sys.executable, "-I", str(HERE / "child.py"),
        "--src", str(SRC), "--sidecar", str(sidecar), "--run-id", str(run_id),
    ]
    cmd += ["--trace"] if traced else []
    cmd += ["--", *argv]
    env = {k: v for k, v in os.environ.items() if k != "ZETA_ZEROS_PATH"}
    with open(cmd_dir / "stdout.txt", "wb") as out, open(cmd_dir / "stderr.txt", "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cmd_dir, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    side = json.loads(sidecar.read_text()) if sidecar.is_file() else {}
    setup_done = side.get("setup_done")
    return CommandResult(
        code=code,
        traced=traced,
        wall_s=ended - launched,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / KIB_PER_MB,
        setup_s=None if setup_done is None else setup_done - launched,
        spans=side.get("spans", []),
    )


def load_ordinates() -> list[float]:
    # parsed here rather than by zetacorr, so the gate does not lean on the code it checks
    text = (SRC / "zetacorr" / "data" / "zeros_1000.txt").read_text(encoding="utf-8")
    return [float(s) for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_1m": os.getloadavg()[0],
    }


def end_to_end(results: list[CommandResult]) -> dict[str, dict]:
    def median(key):
        values = [getattr(r, key) for r in results if getattr(r, key) is not None]
        return statistics.median(values)

    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    return {key: {"value": median(key), "unit": unit} for key, unit in units.items()}


def per_layer(results: list[CommandResult]) -> dict[str, dict]:
    traced = [r for r in results if r.traced and r.code == 0]
    plain = [r for r in results if not r.traced and r.code == 0]
    values = spans.median_metrics([spans.layer_metrics(r.spans) for r in traced])
    values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain
    )
    return {key: {"value": value, "unit": spans.unit_of(key)} for key, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "zetacorr" / "__init__.py").is_file():
        print(f"no zetacorr package under {SRC}", file=sys.stderr)
        return 2
    launched = time.monotonic()
    env = environment()
    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.inputs_for(args.seed)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    ordinates = load_ordinates()
    work = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "warmup").mkdir(parents=True)

    # loads the interpreter, numpy and the package into the page cache
    warm = run_command(["constants", "--r-max", "1"], work / "warmup", -1, False, 60.0)
    if warm.code != 0:
        print(f"warm-up command failed with exit code {warm.code}", file=sys.stderr)
        return 3

    started = time.monotonic()
    results: list[CommandResult] = []
    attempted = failed = 0
    failures: list[str] = []
    first_files = None
    ops = workloads.expected_operations(w, inputs, ordinates)
    while True:
        elapsed = time.monotonic() - started
        have_traced = any(r.traced for r in results)
        if results and elapsed >= args.seconds and (have_traced or not args.trace):
            break
        left = RUN_LIMIT_S - (time.monotonic() - launched)
        if results and left < 2 * max(r.wall_s for r in results):
            break
        k = len(results)
        cmd_dir = work / f"cmd{k}"
        cmd_dir.mkdir()
        argv = workloads.command(w, inputs, cmd_dir)
        traced = bool(args.trace) and k % 2 == 1
        result = run_command(argv, cmd_dir, k, traced, min(COMMAND_TIMEOUT_S, left))
        results.append(result)
        attempted += ops
        if result.code != 0:
            failed += ops
            failures.append(f"command {k}: exit code {result.code}")
            continue
        files = workloads.outputs(w, cmd_dir)
        bad, why = workloads.check(w, inputs, args.seed, files, first_files, reference, ordinates)
        failed += bad
        failures += [f"command {k}: {reason}" for reason in why]
        if first_files is None:
            first_files = files
        else:
            shutil.rmtree(cmd_dir)

    ok = [r for r in results if r.code == 0]
    if {r.traced for r in ok} != ({False, True} if args.trace else {False}):
        print(f"too few commands of the run succeeded; see {work}", file=sys.stderr)
        for reason in failures[:20]:
            print(reason, file=sys.stderr)
        return 1
    metrics = per_layer(results) if args.trace else end_to_end(ok)
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    record = {
        "environment": env,
        "workload": w.name,
        "seed": args.seed,
        "inputs": asdict(inputs),
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [{k: v for k, v in asdict(r).items() if k != "spans"} for r in results],
        "failures": failures,
        "metrics": metrics,
        "baseline": baseline.get(w.name, {}),
    }
    (work / "result.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    if args.trace:
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for r in results:
                for span in r.spans:
                    fh.write(json.dumps(span) + "\n")
    for reason in failures[:20]:
        print(reason, file=sys.stderr)
    print(json.dumps({"environment": env, "commands": len(results), "record": str(work / "result.json")}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
