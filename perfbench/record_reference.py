#!/usr/bin/env python3
"""Record the search_ladder reference values that its verification gate uses.

Run from the repository root on a commit whose results are trusted::

    python3 perfbench/record_reference.py

It solves every ladder instance for every ladder functional with the package
in ``src/`` and rewrites ``perfbench/ladder_reference.json``.  Later runs
accept a value only if it matches the recorded one within 1e-12.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from coverentropy import cover_entropy, parse_functional  # noqa: E402
from coverentropy.measure import parse_instance  # noqa: E402

import gen  # noqa: E402


def main() -> None:
    rows = []
    for rung, p, inst in gen.ladder_pool():
        mu, q = parse_instance(inst)
        values = {f: cover_entropy(parse_functional(f), mu, q).value
                  for f in gen.LADDER_FUNCTIONALS}
        rows.append({"rung": rung, "index": p, "digest": gen.instance_digest(inst),
                     "properties": gen.properties(inst), "values": values})
        print(rung, p, values, flush=True)
    (HERE / "ladder_reference.json").write_text(
        json.dumps({"instances": rows}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
