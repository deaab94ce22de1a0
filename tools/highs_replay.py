"""Replay every LP of `polybox --seed N demo` on scipy's HiGHS.

    python3 tools/highs_replay.py [--seed N]

Run it from the root of a checkout, with scipy installed. The demo runs
in this process, its stdout discarded, with `LpBuilder._solve` wrapped
by `record_solves` of `tests/conftest.py`, as the HiGHS replay tests of
`tests/test_lp.py` record theirs. Each recorded LP is then re-solved by
`scipy.optimize.linprog(method="highs")` from its stored rows (a/s_r,
b/s_r), by the same `replay_on_highs` the tests use.

Prints one line per call site (the function that called `minimize` or
`maximize`): its solves, how many of them returned a stored result,
how many statuses equal HiGHS's, and the largest objective gap between
the exact optimum and HiGHS's. Exits 0 when every status is equal and
every gap is at most 1e-9, 1 otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOLERANCE = 1e-9


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="the demo's seed (default 0)")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import pytest
    from scipy.optimize import linprog

    from polybox import cli
    from conftest import record_solves, replay_on_highs

    with pytest.MonkeyPatch.context() as mp:
        solves = record_solves(mp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--seed", str(args.seed), "demo"])
    sites = {}
    for rec, status, _message, gap in replay_on_highs(solves, linprog):
        row = sites.setdefault(rec.site, [0, 0, 0, 0.0])
        row[0] += 1
        row[1] += rec.stored
        row[2] += rec.result.status == status
        row[3] = max(row[3], gap or 0.0)
    print(f"{'call site':<28} {'solves':>7} {'stored':>7} {'equal':>7} {'max gap':>9}")
    for site, (n, stored, equal, gap) in sorted(sites.items(), key=lambda kv: -kv[1][0]):
        print(f"{site:<28} {n:>7} {stored:>7} {equal:>7} {gap:>9.1e}")
    n, stored, equal = (sum(row[k] for row in sites.values()) for k in range(3))
    gap = max((row[3] for row in sites.values()), default=0.0)
    print(f"{'total':<28} {n:>7} {stored:>7} {equal:>7} {gap:>9.1e}")
    print(f"demo --seed {args.seed} exit code {code}")
    return 0 if equal == n and gap <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
