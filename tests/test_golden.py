"""Golden report corpus: every case's report is byte-identical to the stored one.

The inputs under ``tests/golden/inputs`` are the benchmark's CLI file sets
of seeds 1 to 3, written out once, plus edge cases: infinite and
budget-exceeded results, a ``NaN`` mass literal, a missing key, a point mass
whose entropy prints ``0``, bad mixture coefficients and two divisions on
either side of the division rule's total.  Together they run all six
subcommands under the five built-in functionals.  ``tests/golden/regen.py``
rewrites the expected reports when a change moves them on purpose.
"""

import json

import pytest

from coverentropy.cli import _STATUS_EXIT
from golden.regen import CASES, EXPECTED, run_case


@pytest.mark.parametrize("name", CASES)
def test_report_bytes_match_the_corpus(name):
    code, stdout = run_case(CASES[name])
    assert stdout == (EXPECTED / f"{name}.out").read_bytes()
    assert code == _STATUS_EXIT[json.loads(stdout)["status"]]


def test_corpus_covers_every_subcommand_and_builtin_functional():
    commands = {argv[0] for argv in CASES.values()}
    assert commands == {"partition", "cover", "mixture", "hlp", "disjointify", "selftest"}
    named = set()
    for argv in CASES.values():
        for flag, value in zip(argv, argv[1:]):
            if flag == "--functional":
                named.add(value)
            elif flag in ("mixture", "hlp"):  # the file names its functional
                named.add(json.loads((EXPECTED.parent / value).read_text())["functional"])
    assert {"shannon", "renyi:0.5", "renyi:2", "tsallis:0.5", "tsallis:2"} <= named
