"""Fuzzing of the subcommands' arguments through `cli.main`, in process.

The first step of real work of every command is patched to raise
`Reached`.  Each generated command line must either get that far or
return the exit code its one stderr line names, with nothing on stdout,
no warning and no traceback.  A generated t grid has at most 10^4
points or lies past the MAX_GRID_POINTS budget, which is tested only at
its refusal; numpy is handed only the grids that `dips.t_grid` accepts.
"""
import contextlib
import io
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from zetacorr import cli
from zetacorr.dips import MAX_GRID_POINTS

PREFIX = {
    cli.EXIT_INPUT: "error: ",
    cli.EXIT_DOMAIN: "domain error: ",
    cli.EXIT_BUDGET: "budget error: ",
}
FIRST_WORK = [
    (cli, "sieve_mangoldt"),
    (cli, "balanced_coefficient"),
    (cli, "leading_constant"),
]
SMALL_GRID = 10**4
ARANGE = np.arange

BIG = sys.float_info.max
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
           2.2250738585072014e-308, 1e308, -1e308, BIG, -BIG]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(-100.0, 100.0), st.floats())
# kfun takes any positive step; dips one of at most 0.05
STEPS = st.one_of(st.sampled_from(SPECIAL), st.floats(0.02, 1.0), st.floats())
SCAN_STEPS = st.one_of(st.sampled_from(SPECIAL), st.floats(0.003, 0.05), st.floats())
TOLERANCES = st.one_of(st.sampled_from(SPECIAL), st.floats(1e-12, 1.0), st.floats())
# mostly valid: nonzero entries closed by the one that makes the sum 0
ZERO_SUM = st.lists(st.integers(-30, 30).filter(bool), min_size=2, max_size=7).map(
    lambda xs: xs + [-sum(xs)]
)
TUPLES = st.one_of(
    # every code point but surrogates, as st.text(), without its slow first build
    st.text(st.characters(exclude_categories=["Cs"]), max_size=20),
    st.text("0123456789,-+ .e", max_size=20),
    st.lists(st.integers(-30, 30), max_size=8).map(lambda xs: ",".join(map(str, xs))),
    ZERO_SUM.map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["1,1,-2", "1,1,-1,-1", "1,2,-3", "3,-1,-2"]),
)


def _around(*centres: int):
    """Ints at and next to each centre, and any int of at most 30 digits."""
    near = [st.integers(c - 3, c + 3) for c in centres]
    return st.one_of(*near, st.integers(-10**30, 10**30))


class Reached(Exception):
    """Raised by the first step of real work: every argument was accepted."""


def _reached(*args, **kwargs):
    raise Reached


def _argv(command: str, options: dict) -> list[str]:
    """The command line: a flag alone for True, else --flag=value (floats by repr)."""
    argv = [command]
    for flag, value in options.items():
        for item in value if isinstance(value, list) else [value]:
            text = item if isinstance(item, str) else repr(item)
            argv.append(flag if item is True else f"{flag}={text}")
    return argv


def _checked_arange(start, stop, step):
    """np.arange, given only finite bounds and a grid the strategies keep small."""
    assert all(map(math.isfinite, (start, stop, step))), (start, stop, step)
    assert (stop - start) / step <= SMALL_GRID + 1, (start, stop, step)
    return ARANGE(start, stop, step)


def _check(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        for module, name in FIRST_WORK:
            mp.setattr(module, name, _reached)
        mp.setattr(np, "arange", _checked_arange)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Reached:
            return
    lines = err.getvalue().splitlines()
    assert code in PREFIX, (argv, code, lines)
    assert out.getvalue() == "", argv
    assert len(lines) == 1 and lines[0].startswith(PREFIX[code]), (argv, lines)


def _small_or_refused(options: dict) -> bool:
    """Whether the drawn grid (CLI defaults 10, 40, 0.02) is small or refused by `dips.t_grid`."""
    t_lo, t_hi = options.get("--t-lo", 10.0), options.get("--t-hi", 40.0)
    step = options.get("--step", 0.02)
    if not (step > 0 and t_lo <= t_hi):
        return True
    return not SMALL_GRID < (t_hi - t_lo) / step < MAX_GRID_POINTS


GRID = {"--t-lo": FLOATS, "--t-hi": FLOATS, "--tolerance": TOLERANCES}


@settings(max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries(
        {}, optional={**GRID, "--step": STEPS, "--tuple": st.lists(TUPLES, min_size=1, max_size=3)}
    )
)
@example({"--tuple": ["1,1,-2"], "--step": math.inf, "--tolerance": 0.1})
@example({"--t-lo": -1e308, "--t-hi": 1e308, "--step": 1e308})
@example({"--t-lo": BIG, "--t-hi": BIG, "--step": 1e308})
def test_kfun(options):
    assume(_small_or_refused(options))
    _check(_argv("kfun", options))


@settings(max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries(
        {"--tuple": TUPLES},
        optional={**GRID, "--step": SCAN_STEPS, "--window": FLOATS, "--deep-only": st.just(True)},
    )
)
def test_dips(options):
    assume(_small_or_refused(options))
    _check(_argv("dips", options))


@settings(max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries({}, optional={"--r-max": _around(1, cli.MAX_TABLE_R), "--tuple": TUPLES})
)
def test_constants(options):
    _check(_argv("constants", options))

