"""Record the seed-0 outputs that the gate in workloads.py compares against.

    python3 perfbench/make_reference.py

Runs each workload's seed-0 command once and writes reference.json:
for ``hsum``, H_direct, H_spectral, main_term and the main-term factor
D = (-1)^m C / (2 pi)^m of every (tuple, T) report; for ``dips``, the
refined t_min of the dip matched to each ordinate.
"""
from __future__ import annotations

import json
import math
import shutil
import sys

import run
import workloads


def tuple_factor(text: str) -> float:
    from zetacorr.combinatorics import balanced_sinc_constant
    from zetacorr.correlation import parse_tuple_text
    from zetacorr.quadrature import sinc_product_constant

    tup = parse_tuple_text(text)
    if tup.is_balanced:
        c_val = float(balanced_sinc_constant(tup.m // 2))
    else:
        c_val = sinc_product_constant(tup, tol=min(workloads.QUADRATURE_TOLERANCE, 1e-9)).value
    return (-1.0) ** tup.m * c_val / (2.0 * math.pi) ** tup.m


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    inputs = workloads.inputs_for(0)
    for w in workloads.WORKLOADS.values():
        cmd_dir = run.OUT / "reference" / w.name
        shutil.rmtree(cmd_dir, ignore_errors=True)
        cmd_dir.mkdir(parents=True)
        result = run.run_command(workloads.command(w, inputs, cmd_dir), cmd_dir, 0, False, 600.0)
        if result.code != 0:
            print(f"{w.name}: exit code {result.code}", file=sys.stderr)
            return 1
        files = workloads.outputs(w, cmd_dir)
        if w.kind == "hsum":
            factors = {t: tuple_factor(t) for t in w.tuples}
            entry = {}
            for name, data in files.items():
                if name.startswith("report_"):
                    rep = json.loads(data)
                    text = ",".join(str(a) for a in rep["tuple_entries"])
                    entry[workloads.report_key(rep["tuple_entries"], rep["t_max"])] = {
                        "h_direct": rep["h_direct"],
                        "h_spectral": rep["h_spectral"],
                        "main_term": rep["main_term"],
                        "d": factors[text],
                    }
        else:
            entry = {
                repr(r["matched_gamma"]): r["t_min"]
                for r in json.loads(files["stdout"])
                if r["matched_gamma"] is not None
            }
        reference[w.name] = entry
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
