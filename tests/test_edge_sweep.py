"""Edge-value sweep of the CLI: whatever the flags, a run ends with a
documented exit code, strict JSON, and both reports or neither.

Hypothesis draws each flag from a pool of edge values (0, -1, huge, empty,
a bare comma, reversed ranges, non-ASCII) or leaves it out, and runs
cli.main in-process with --out in a fresh directory.  argparse rejects a
malformed integer flag by raising SystemExit(2), which is the exit code the
process would have, so it counts as one.  derandomize=True makes every run
draw the same examples, so a failure reproduces.

The pools keep each example's work small: every rank that passes is 2 or 3,
every radius that passes is at most 9 (|B_9(F3)| = 2,929,687), and every
range over the huge cap is refused before it is expanded.
"""

import itertools
import json
from datetime import timedelta

from hypothesis import given, settings
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


def argv_for(command, pools):
    """Each flag of pools either left out or given one of its values."""
    flags = [
        st.one_of(st.none(), st.sampled_from(values)).map(
            lambda value, flag=flag: [] if value is None else [f"{flag}={value}"]
        )
        for flag, values in pools.items()
    ]
    return st.tuples(*flags).map(lambda parts: [command, *itertools.chain(*parts)])


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_in_process(argv, out):
    try:
        return main(argv + ["--out", str(out)])
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)
@given(argv=argv_for("freecount", FREECOUNT_POOLS))
def test_freecount_edge_values_end_in_a_documented_way(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("sweep")
    code = run_in_process(argv, out)
    assert code in (0, 2, 3, 4), (argv, code)
    written = sorted(path.name for path in out.iterdir())
    # a refused run writes nothing; a run that checked writes both reports,
    # and no run leaves a temporary file behind
    assert written == (["freecount.csv", "freecount.json"] if code in (0, 4) else []), argv
    if written:
        doc = json.loads((out / "freecount.json").read_text(), parse_constant=refuse_constant)
        assert doc["verdict"] == ("Pass" if code == 0 else "Fail"), argv
