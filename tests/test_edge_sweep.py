"""Edge-value sweep of the CLI: whatever the flags, a run ends with a
documented exit code, strict JSON, and both reports or neither.

Hypothesis draws each flag from a pool of edge values (0, -1, huge, empty,
a bare comma, reversed ranges, non-ASCII, nan, inf) or leaves it out, and
runs cli.main in-process with --out in a fresh directory.  main must return
its exit code: a SystemExit escaping it, as argparse raises for a malformed
flag, fails the sweep.  derandomize=True makes every run draw the same
examples, so a failure reproduces.

The pools keep each example's work small, under the huge cap too:
- freecount: every rank that passes is 2 or 3, every radius that passes is
  at most 9 (|B_9(F3)| = 2,929,687), and every range over the huge cap is
  refused before it is expanded.
- pi: groups have at most 6 elements and algebras at most 2 dimensions,
  and a trial count that passes is at most 7; the huge count is refused by
  the dense budget under every cap but the huge one, where its arrays are
  too big for numpy to allocate at all.
- cesaro: at most 6 coefficients of degree at most 3, orders of at most 56
  entries, and a grid that passes is at most 33 points; the huge order is
  one Fraction weight, and the huge grid and the huge range pass no cap.
- balls: the radii are freecount's, so every radius that passes is at most
  9, and no ball is enumerated: the table comes from sphere sizes.  On F_k,
  a free factor included, they are level sizes only, 2,343,750 int8
  letters at most (S_9(F3)); on Z and C_n a list of at most 10 entries;
  on a product, a convolution of at most 10 by 10 of its factors' sizes
  per factor.  The huge radius is refused at once under every cap: on F1
  as 2n + 1 > cap, on F2 and F3 within a few depths, and on any other
  infinite group, products included, as n + 1 > cap / element size,
  since every sphere is non-empty.  On C5 and C4xC6 the count stops at
  the diameter, and the table stops there too.
- folner: the radii are freecount's again.  With a Z factor, every radius
  that passes is at most 9 (10^3 elements on Z^3), and the huge radius is
  refused under every cap, as (n + 1)^k > cap.  Without one, F_n is the
  whole group, at most 24 elements, and the counts stop at level 0, so the
  huge radius passes and allocates nothing in proportion to it.  Each run's
  traced peak memory must stay under FOLNER_PEAK_BYTES.
"""

import itertools
import json
import tracemalloc
from datetime import timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossedprod.cli import main

HUGE = "99999999999999999999"

FREECOUNT_POOLS = {
    "--k": ["2", "3", "0", "-1", "1", "27", HUGE, "", ",", "x", "٣", "２"],
    "--lmax": ["0", "1", "4", "-1", HUGE, "", ",", "é"],
    "--radii": [
        "0", "7", "-1", HUGE, "", ",", ",,", "0..5", "5..0", "9..9", f"0..{HUGE}",
        "2,9,0", "6,0,4,4", "0..3,-2", "1..", "..", "٣", "0..٥", "é",
    ],
    "--cap": ["1", "52", "53", "1000", "0", "-1", HUGE, "", ",", "٥٣"],
}

PI_POOLS = {
    "--group": ["C1", "C2", "C3", "C4", "C5", "C6", "Z", "", "C-1"],
    "--algebra": ["scalars", "diagonal:2", "full:2", "full:0", "x"],
    "--trials": ["0", "-1", "1", "7", HUGE, "", "x"],
    "--xi": [
        "uniform", "geometric:0.7", "geometric:-0.5", "geometric:nan", "geometric:inf",
        "geometric:", "geometric:1e308", "bogus", "",
    ],
    "--seed": ["0", "-1", "5", HUGE],
    "--tol": ["0", "-1", "nan", "inf", "1e-10"],
    "--cap": ["1", "5", "6", "1000", "0", "-1", HUGE, ""],
}

BALLS_POOLS = {
    "--group": [
        "F1", "F2", "F3", "Z", "Z^2", "C5", "ZxF2", "Z^2xC3", "C4xC6", "F1xZ^2xC2", "F0", "Q8",
        "", "é", "F٣",
    ],
    "--radii": FREECOUNT_POOLS["--radii"],
    "--cap": FREECOUNT_POOLS["--cap"],
}

CESARO_POOLS = {
    "--coeffs": [
        "0:1,1:0.5,-1:0.5", "0:1,3:0.5j,-2:-0.25", "0:1", "2:1e308,-2:1e308", "0:nan",
        "1:inf", "1:-inf", "0:1e308", "x", "0:", ":1", "", ",", "1.5:1", "٣:1",
    ],
    "--orders": [
        "5..50", "7,0,2,2,40", "50..5", "", ",", "0", "-1", HUGE, f"0..{HUGE}", "3..", "x",
    ],
    "--grid": ["0", "1", "13", "33", HUGE, "-1", "", "x"],
    "--tol": ["0", "-1", "nan", "1e-10"],
    "--cap": ["1", "40", "1000", "0", "-1", HUGE, ""],
}

FOLNER_POOLS = {
    "--group": ["Z", "Z^2", "Z^3", "ZxC3", "C5", "C4xC6", "F2", "ZxF2", "", "Q8", "é"],
    "--t": [
        "1", "-1", "0", "e", "4", "(1,0)", "(0,-1,1)", "(1,2)", "(-1,0)", "(3,5)", HUGE, "", "x",
        "(1,)", "٣",
    ],
    "--radii": FREECOUNT_POOLS["--radii"],
    "--cap": ["1", "5", "24", "1000", "0", "-1", HUGE, ""],
}
FOLNER_PEAK_BYTES = 16 * 2**20


def argv_for(command, pools, required=()):
    """Each flag of pools either left out or given one of its values; a
    required flag is always given one."""
    flags = [
        (
            st.sampled_from(values) if flag in required
            else st.one_of(st.none(), st.sampled_from(values))
        ).map(lambda value, flag=flag: [] if value is None else [f"{flag}={value}"])
        for flag, values in pools.items()
    ]
    return st.tuples(*flags).map(lambda parts: [command, *itertools.chain(*parts)])


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_in_process(argv, out):
    return main(argv + ["--out", str(out)])


def assert_ends_in_a_documented_way(command, argv, out):
    code = run_in_process(argv, out)
    assert code in (0, 2, 3, 4), (argv, code)
    written = sorted(path.name for path in out.iterdir())
    # a refused run writes nothing; a run that checked writes both reports,
    # and no run leaves a temporary file behind
    assert written == ([f"{command}.csv", f"{command}.json"] if code in (0, 4) else []), argv
    if written:
        doc = json.loads((out / f"{command}.json").read_text(), parse_constant=refuse_constant)
        assert doc["verdict"] == ("Pass" if code == 0 else "Fail"), argv


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=argv_for("freecount", FREECOUNT_POOLS))
def test_freecount_edge_values_end_in_a_documented_way(tmp_path_factory, argv):
    assert_ends_in_a_documented_way("freecount", argv, tmp_path_factory.mktemp("sweep"))


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=argv_for("pi", PI_POOLS, required=("--group",)))
def test_pi_edge_values_end_in_a_documented_way(tmp_path_factory, argv):
    assert_ends_in_a_documented_way("pi", argv, tmp_path_factory.mktemp("sweep"))


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=argv_for("cesaro", CESARO_POOLS))
def test_cesaro_edge_values_end_in_a_documented_way(tmp_path_factory, argv):
    assert_ends_in_a_documented_way("cesaro", argv, tmp_path_factory.mktemp("sweep"))


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=argv_for("balls", BALLS_POOLS, required=("--group",)))
# the huge radius on finite groups, and under the huge cap on F1, Z^2 and
# ZxF2, which the draws above do not reach
@example(argv=["balls", "--group=C5", f"--radii={HUGE}"])
@example(argv=["balls", "--group=C4xC6", f"--radii={HUGE}"])
@example(argv=["balls", "--group=F1", f"--radii={HUGE}", f"--cap={HUGE}"])
@example(argv=["balls", "--group=Z^2", f"--radii={HUGE}", f"--cap={HUGE}"])
@example(argv=["balls", "--group=ZxF2", f"--radii={HUGE}", f"--cap={HUGE}"])
def test_balls_edge_values_end_in_a_documented_way(tmp_path_factory, argv):
    assert_ends_in_a_documented_way("balls", argv, tmp_path_factory.mktemp("sweep"))


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=argv_for("folner", FOLNER_POOLS, required=("--group", "--t")))
# a radius far past the cap on groups without a Z factor, whose averaging
# sets stop growing at once
@example(argv=["folner", "--group=C5", "--t=1", f"--radii={HUGE}"])
@example(argv=["folner", "--group=C5", "--t=1", "--radii=100000000"])
@example(argv=["folner", "--group=C4xC6", "--t=(1,5)", f"--radii=0,{HUGE}", f"--cap={HUGE}"])
def test_folner_edge_values_end_in_a_documented_way(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("sweep")
    tracemalloc.start()
    try:
        assert_ends_in_a_documented_way("folner", argv, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < FOLNER_PEAK_BYTES, (argv, peak)
