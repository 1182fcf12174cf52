"""Rewrite the golden report corpus: the expected stdout of every case.

``cases.json`` maps each case name to the arguments of one CLI run; an
argument that starts with ``inputs/`` names an input file under this
directory.  :func:`run_case` runs ``coverentropy.cli.main`` in-process and
returns its exit code and stdout bytes, and ``tests/test_golden.py``
compares those bytes with ``expected/<case>.out``.

Run ``python tests/golden/regen.py`` after a change that moves reports on
purpose; ``git diff tests/golden`` then shows which reports moved, and how.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
CASES: dict[str, list[str]] = json.loads((HERE / "cases.json").read_text())


def run_case(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of ``cli.main`` on ``argv``, input paths resolved here."""
    from coverentropy import cli

    argv = [str(HERE / a) if a.startswith("inputs/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    for stale in set(EXPECTED.glob("*.out")) - {EXPECTED / f"{name}.out" for name in CASES}:
        stale.unlink()
    for name, argv in CASES.items():
        (EXPECTED / f"{name}.out").write_bytes(run_case(argv)[1])


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
