"""What the commands load and reach: the import path and a name walk over src/."""
import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "zetacorr"

# defs that nothing reachable from cli.main names, each with its reason;
# what an entry names in turn is covered by that reason
UNREACHED = {
    "quadrature.weighted_profile_integral": "perfbench/spans.py patches it",
    "quadrature.sinc_product_constant": "perfbench/spans.py patches it, make_reference.py calls it",
    "quadrature.adaptive_integrate": "the integrator of the two perfbench-pinned oracles",
    "quadrature.sinc_product": "the integrand of the perfbench-pinned sinc constant",
    "series.correlation_kernel": "perfbench/spans.py patches it",
    "combinatorics.balanced_sinc_constant": "perfbench/make_reference.py calls it",
    "weights.class_membership_report": "documented library API (README)",
    "zeros.write_zeros": "documented library API (README)",
}


def test_cli_import_leaves_out_the_oracles():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import zetacorr.cli; "
        "print(sorted(m for m in ('zetacorr.quadrature', 'numpy.polynomial') "
        "if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("given", [None, "2"])
def test_import_sets_one_blas_thread_unless_given(given):
    # the pytest process imported zetacorr, so its environment already holds "1"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = (
        f"import os, sys; sys.path.insert(0, {str(SRC)!r}); import zetacorr; "
        "status = '/proc/self/status'; "
        "lines = open(status).read().splitlines() if os.path.exists(status) else []; "
        "threads = [l.split()[1] for l in lines if l.startswith('Threads:')]; "
        "print(os.environ['OPENBLAS_NUM_THREADS'], *threads)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    value, *threads = done.stdout.split()
    assert value == (given or "1")
    if given is None and threads:  # no OpenBLAS worker beside the main thread
        assert threads == ["1"]


class _Names(ast.NodeVisitor):
    """Names a piece of code loads or reads as attributes, annotations left out."""

    def __init__(self):
        self.found = set()

    def visit_Name(self, node):
        self.found.add(node.id)

    def visit_Attribute(self, node):
        self.found.add(node.attr)
        self.visit(node.value)

    def visit_arg(self, node):
        pass

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)

    def visit_FunctionDef(self, node):
        for part in (*node.decorator_list, *node.args.defaults, *node.args.kw_defaults):
            if part is not None:
                self.visit(part)
        for stmt in node.body:
            self.visit(stmt)


def _names(nodes) -> set[str]:
    walker = _Names()
    for node in nodes:
        walker.visit(node)
    return walker.found


def _definitions():
    """Every module-level def and class and every method, with what each names.

    Returns (defs, module_code, imports): defs maps "module.Name" and
    "module.Class.method" to the names their code uses (a class's own code
    is its decorators, bases and body outside its methods); module_code maps
    each module to the names its top-level statements use; imports maps it
    to the package modules it imports.
    """
    defs, module_code, imports = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top, imports[mod] = [], set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[mod].add(node.module or "__init__")
            elif isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = _names([node])
            elif isinstance(node, ast.ClassDef):
                own = [*node.decorator_list, *node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{mod}.{node.name}.{item.name}"] = _names([item])
                    else:
                        own.append(item)
                defs[f"{mod}.{node.name}"] = _names(own)
            elif not isinstance(node, ast.Import):
                top.append(node)
        module_code[mod] = _names(top)
    return defs, module_code, imports


def _reach(defs, roots, names) -> set[str]:
    """Defs reached from roots, a def reaching every def named like a name it uses.

    A dunder method is reached with its class.
    """
    reached, used = set(), set(names)
    pending = list(roots)
    while pending:
        key = pending.pop()
        if key in reached:
            continue
        reached.add(key)
        used |= defs[key]
        for other in defs:
            if other in reached:
                continue
            owner, _, name = other.rpartition(".")
            dunder = "." in owner and name.startswith("__") and name.endswith("__")
            if name in used or (dunder and owner in reached):
                pending.append(other)
    return reached


def _command_modules(imports) -> set[str]:
    """The package modules that importing zetacorr.cli runs, the package's __init__ first."""
    loaded, pending = set(), ["__init__", "cli"]
    while pending:
        mod = pending.pop()
        if mod not in loaded:
            loaded.add(mod)
            pending.extend(imports[mod])
    return loaded


def test_every_def_is_reached_from_cli_main():
    start = time.perf_counter()
    defs, module_code, imports = _definitions()
    top = set().union(*(module_code[mod] for mod in _command_modules(imports)))
    from_cli = _reach(defs, ["cli.main"], top)
    from_allowed = _reach(defs, [k for k in UNREACHED if k in defs], set())

    assert sorted(k for k in UNREACHED if k not in defs) == []  # gone: drop the entry
    assert sorted(k for k in UNREACHED if k in from_cli) == []  # reached: drop the entry
    unexplained = sorted(set(defs) - from_cli - from_allowed)
    assert unexplained == []
    assert time.perf_counter() - start <= 0.5


def test_dips_reads_the_profile_it_is_given():
    # the commands build each evaluator where its sieve table is made, so
    # the table's lifetime is decided in one place (cli._profiles)
    assert {"arithmetic", "series"} & _definitions()[2]["dips"] == set()


# numpy calls that may hand a contraction to BLAS
CONTRACTIONS = {"dot", "einsum", "inner", "matmul", "tensordot", "vdot", "vecdot"}


def test_blas_contractions_only_in_phase_sums():
    # phase_sums bounds its contraction in any order and splits it into PIECE
    # terms, below OpenBLAS's threading threshold, so bits do not depend on
    # OPENBLAS_NUM_THREADS; a contraction elsewhere would have neither
    found = []
    for mod in sorted(_command_modules(_definitions()[2])):
        tree = ast.parse((PACKAGE / f"{mod}.py").read_text(encoding="utf-8"))
        for top in tree.body:
            owner = f"{mod}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "attr", getattr(func, "id", None))
                if isinstance(getattr(node, "op", None), ast.MatMult) or name in CONTRACTIONS:
                    found.append((owner, node.lineno))
    assert found and {owner for owner, _ in found} == {"series.phase_sums"}, found


def test_only_profile_terms_slices_the_series_terms():
    # the kernel, the profile and the main term take their terms from
    # profile_terms, so Lambda(n)^m n^(-sigma) is formed in one place
    tree = ast.parse((PACKAGE / "series.py").read_text(encoding="utf-8"))
    readers = {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in {"base_log", "power_index"}
    }
    assert readers == {"profile_terms"}, readers


# numpy calls that reorder or merge arrays
REORDERS = {"argsort", "insert", "lexsort", "sort", "unique"}


def test_prime_power_table_is_built_in_ascending_order():
    # the sieve lists the prime powers in order from its bitmap, and the
    # profile weights are formed from that order, so neither sorts or merges
    found = []
    for mod, owner in (("arithmetic", None), ("series", "profile_terms")):
        tree = ast.parse((PACKAGE / f"{mod}.py").read_text(encoding="utf-8"))
        tops = [top for top in tree.body if owner in (None, getattr(top, "name", None))]
        assert tops, (mod, owner)
        for top in tops:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if getattr(func, "attr", getattr(func, "id", None)) in REORDERS:
                    found.append((mod, node.lineno))
    assert found == []
