#!/usr/bin/env python3
"""Record how long the control's ops take, the reference ``run.py`` scales by.

Run from the repository root, on a machine as quiet as can be had::

    python3 perfbench/record_control.py [workload ...]

For each workload it starts the control (``control.py``) pinned to one CPU,
times ``REPS`` set-ups and fresh imports and ``ROUNDS[workload]`` passes over
every op, and writes the medians to ``perfbench/control_reference.json``.
The values only fix the unit that reported times are expressed in (seconds
on the host as it was while recording); re-recording them rescales every
later figure, so compare runs made with the same file.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import control  # noqa: E402
import run  # noqa: E402

REPS = 5
ROUNDS = {"search_ladder": 3, "small_batch": 15, "division_sampling": 15, "cli": 5}


def record(workload: str) -> dict:
    ctl = control.Control(workload, run.OUT_DIR)
    try:
        setup_s = statistics.median([ctl.setup() for _ in range(REPS)])
        import_s = statistics.median([ctl.import_seconds() for _ in range(REPS)])
        passes = [ctl.run(range(ctl.ops)) for _ in range(ROUNDS[workload])]
    finally:
        ctl.close()
    return {"setup_s": setup_s, "import_s": import_s,
            "op_s": [statistics.median(t) / 1e9 for t in zip(*passes)]}


def main() -> None:
    run.pin_to_one_cpu()
    path = control.REFERENCE_FILE
    data = json.loads(path.read_text()) if path.exists() else {}
    for workload in sys.argv[1:] or ROUNDS:
        data[workload] = record(workload)
        print(workload, f"setup {data[workload]['setup_s']:.4f} s,",
              f"import {data[workload]['import_s']:.4f} s,",
              f"round {sum(data[workload]['op_s']):.4f} s", flush=True)
    path.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
