"""The control: the same workload, run against a frozen copy of the package.

This machine is a few cores of a shared host, and how fast it runs the same
code drifts by up to 2x within minutes as other tenants come and go.  A
figure timed on its own therefore moves with the host, not with the
program.  So ``run.py`` times every block of ops twice, at the same time:
once against the package in ``src/`` and once, in this child process,
against ``control/coverentropy``, a copy of the package frozen when the
benchmark was written.  The control runs the same workload at the fixed seed
``CONTROL_SEED`` (the same op layout as any seed, see ``workloads.py``).

``control_reference.json`` holds what each control op took on a quiet run
(``record_control.py`` writes it).  A block whose control ops took 1.3 times
their reference ran on a host 1.3 times slower than the reference, so
``run.py`` divides the block's measured times by 1.3.  Reported times are
therefore in *reference seconds*: what the op would take on the host as it
was when the reference was recorded.  A change to ``src/`` moves the live
side only, so it shows in full.

Both processes are pinned to one CPU by ``run.py``, so while both work on a
block the kernel hands that CPU to each in turn, a few milliseconds at a
time, and both see the host at the same speed.  Each times its ops in its
own CPU time (``cpu_ns``), so the other's slices do not count.  Sharing the
core costs each side a little cache refill; the scaling cancels it, since
both sides pay it.

Protocol: one JSON object per line on stdin, one reply per line on stdout,
after a first ``{"ready": true}`` line once the imports are done.

* ``{"cmd": "setup"}`` sets the workload up; reply ``{"s": CPU seconds,
  "ops": number of ops}``.
* ``{"cmd": "import"}`` times one fresh import of the frozen CLI module in a
  child interpreter; reply ``{"s": CPU seconds}``.
* ``{"cmd": "run", "ops": [j, ...]}`` runs those ops in that order; reply
  ``{"ns": [CPU nanoseconds per op]}``.  Outputs are not checked: the control is
  a speed gauge, the frozen copy's results were checked when it was live.
* ``{"cmd": "quit"}`` or end of input ends the process.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTROL_SRC = HERE / "control"
REFERENCE_FILE = HERE / "control_reference.json"
CONTROL_SEED = 0


def cpu_ns() -> int:
    """CPU time of this process and of its waited-for children, in ns.

    Both sides time with this clock.  Unlike wall time it stops while the
    process waits for a CPU, so time slices lost to other processes, or to
    other tenants when the kernel accounts them as steal, do not count: a
    slowed op is not mistaken for a slow one.  What the clock cannot remove
    (a host that runs everything slower for a while) the control removes.
    """
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((c.ru_utime + c.ru_stime) * 1e9)


def load_reference(workload: str) -> dict:
    """``{"op_s": [seconds per op index], "import_s":, "setup_s":}``."""
    return json.loads(REFERENCE_FILE.read_text())[workload]


class Control:
    """Client side: a control child for one workload, stopped by ``close``."""

    def __init__(self, workload: str, out_dir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), workload, str(out_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        # wait until it has imported everything, so that its start-up does
        # not overlap the first measurement
        self.result()

    def send(self, **msg) -> None:
        """Start a command; the control works on it while this process goes on."""
        self.proc.stdin.write(json.dumps(msg) + "\n")

    def result(self) -> dict:
        """The reply to the last ``send``, waiting for it if need be."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"control process ended (exit {self.proc.wait()})")
        return json.loads(line)

    def _call(self, **msg) -> dict:
        self.send(**msg)
        return self.result()

    def setup(self) -> float:
        reply = self._call(cmd="setup")
        self.ops = reply["ops"]
        return reply["s"]

    def import_seconds(self) -> float:
        return self._call(cmd="import")["s"]

    def run(self, indices) -> list[int]:
        return self._call(cmd="run", ops=list(indices))["ns"]

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def serve(workload: str, out_dir: Path) -> None:
    # Replies go to a private copy of stdout; anything else the workload
    # prints lands on stderr and cannot corrupt the protocol.
    reply_to = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.path[:0] = [str(CONTROL_SRC), str(HERE)]
    import coverentropy

    resolved = Path(coverentropy.__file__).resolve().parent
    if resolved != (CONTROL_SRC / "coverentropy").resolve():
        raise SystemExit(f"control imported coverentropy from {resolved}")
    import workloads

    wl = workloads.make(workload, CONTROL_SRC, out_dir)
    env = workloads.child_env(CONTROL_SRC)
    ops = None
    clock = cpu_ns
    reply_to.write(json.dumps({"ready": True}) + "\n")
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["cmd"] == "setup":
                t0 = clock()
                wl.setup(CONTROL_SEED)
                out = {"s": (clock() - t0) / 1e9}
                ops = wl.ops()
                out["ops"] = len(ops)
            elif msg["cmd"] == "import":
                out = {"s": workloads.import_seconds(env)}
            elif msg["cmd"] == "run":
                ns = []
                for j in msg["ops"]:
                    op = ops[j][1]
                    t0 = clock()
                    try:
                        op()
                    except Exception:  # the live side counts failures
                        pass
                    ns.append(clock() - t0)
                out = {"ns": ns}
            else:
                break
            reply_to.write(json.dumps(out) + "\n")
    finally:
        wl.close()


if __name__ == "__main__":
    serve(sys.argv[1], Path(sys.argv[2]))
