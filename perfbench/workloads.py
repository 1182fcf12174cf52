"""The four workloads: inputs, ops, and the gates that verify their outputs.

A workload builds its inputs in ``setup(seed)`` and then hands out its ops:
a list of ``(key, op)`` pairs, where ``op()`` performs exactly one operation
against the package and returns its output.  A *round* runs every op once,
in an order shuffled by the seed (``order``), so a run made of whole rounds
always measures the same mix.  The list's layout does not depend on the
seed: op ``j`` has the same kind and input shape at every seed, which is
what lets ``run.py`` pair it with op ``j`` of the control (``control.py``).  ``op_ok`` decides whether an output counts as a
failed op (only the CLI can fail without raising); ``verify`` checks a
finished round's outputs and raises :class:`checks.GateError` on a wrong one.

Ops call the package through module attributes (``classical.cover_entropy``,
not a name bound at import) so that the traced run sees its patched spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from coverentropy import classical, cli, mixture, weighted
from coverentropy.functionals import parse_functional
from coverentropy.measure import parse_instance

import checks
import gen

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "ladder_reference.json"

BUILTIN = ("shannon", "renyi:0.5", "renyi:2", "tsallis:0.5", "tsallis:2")
MIXTURE_FUNCTIONALS = ("tsallis:0.5", "tsallis:2", "tsallis:3", "shannon")

#: The value gate of ``search_ladder``: results must match the recorded
#: reference this closely, whatever search produced them.
LADDER_TOL = 1e-12
#: Agreement tolerance between two exact computations of one quantity.
AGREE_TOL = 1e-9


def child_env(src: Path) -> dict:
    """The environment with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    paths = [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def import_seconds(env) -> float:
    """CPU time to import ``coverentropy.cli`` in one fresh interpreter."""
    code = ("import time; t = time.process_time(); import coverentropy.cli; "
            "print(time.process_time() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        return self._ops

    def order(self, round_index: int) -> list[int]:
        """Indices into ``ops()`` in the order round ``round_index`` runs them."""
        rng = np.random.default_rng([self.seed, round_index])
        return [int(j) for j in rng.permutation(len(self.ops()))]

    def op_ok(self, key, output) -> bool:
        return True

    def verify(self, outputs: list) -> None:
        raise NotImplementedError

    def properties(self) -> list[dict]:
        """The input-property table: one row per generated instance."""
        return [dict(index=i, **gen.properties(inst)) for i, inst in enumerate(self.instances)]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# search_ladder
# ---------------------------------------------------------------------------

def load_reference(path=REFERENCE_FILE) -> dict:
    """``{(rung, pool index): {"digest":, "values": {functional: value}}}``."""
    data = json.loads(Path(path).read_text())
    return {(r["rung"], r["index"]): r for r in data["instances"]}


def check_ladder_result(inst, functional, ref_value, value, witness_blocks, what) -> None:
    """Value equals the recorded one; the witness is a mu-partition finer than
    the cover whose entropy is the value.  The witness itself may differ from
    the one recorded, since a new search may break ties differently."""
    checks.close(value, ref_value, LADDER_TOL, what)
    checks.partition_finer_than(inst["mu"], inst["cover"], witness_blocks, what)
    masses = [sum(inst["mu"][a] for a in b) for b in witness_blocks]
    checks.close(checks.entropy(functional, masses), value, LADDER_TOL, what + " witness")


class SearchLadder(Workload):
    """One ``cover_entropy`` call per op on the fixed ladder in ``gen.LADDER``.

    ``--seed`` only shuffles the order: the gate needs reference values
    recorded in advance, and a fixed pool keeps branch-and-bound cost, which
    swings by 10x between random instances of one rung, out of the spread.
    """

    name = "search_ladder"

    def setup(self, seed: int) -> None:
        self.seed = seed
        reference = load_reference()
        self.instances = {}
        self._ops = []
        for rung, p, inst in gen.ladder_pool():
            ref = reference.get((rung, p))
            if ref is None or ref["digest"] != gen.instance_digest(inst):
                raise RuntimeError(f"ladder instance {rung}/{p} does not match "
                                   f"{REFERENCE_FILE.name}; re-record it")
            mu, q = parse_instance(inst)
            self.instances[(rung, p)] = (inst, ref["values"])
            for fname in gen.LADDER_FUNCTIONALS:
                e = parse_functional(fname)
                self._ops.append(((rung, p, fname),
                                  lambda e=e, mu=mu, q=q: classical.cover_entropy(e, mu, q)))
        tiny = self._ops[: len(gen.LADDER_FUNCTIONALS)]
        for _, op in tiny:  # warm-up
            op()

    def verify(self, outputs) -> None:
        for (rung, p, fname), result in outputs:
            inst, values = self.instances[(rung, p)]
            blocks = [] if result.witness is None else result.witness.as_lists()
            check_ladder_result(inst, fname, values[fname], result.value, blocks,
                                f"{rung}/{p} {fname}")

    def properties(self):
        return [dict(rung=rung, index=p, **gen.properties(inst))
                for (rung, p), (inst, _) in self.instances.items()]


# ---------------------------------------------------------------------------
# small_batch
# ---------------------------------------------------------------------------

SMALL_INSTANCES = 84      # three of each (n, k) shape
MIXTURE_EVERY = 4          # one mixture instance per this many instances
ORACLE_MAX_SPACE = 64      # instances this small are checked by enumeration


class SmallBatch(Workload):
    """Tiny instances through both cover entropies, mixture reports between."""

    name = "small_batch"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.instances = [gen.small_instance(gen.SMALL_STREAM, seed, i)
                          for i in range(SMALL_INSTANCES)]
        self.oracle = {}
        self._ops = []
        for i, inst in enumerate(self.instances):
            mu, q = parse_instance(inst)
            small = gen.properties(inst)["space_log10"] <= np.log10(ORACLE_MAX_SPACE)
            for fname in BUILTIN:
                e = parse_functional(fname)
                self._ops.append((("classical", i, fname),
                                  lambda e=e, mu=mu, q=q: classical.cover_entropy(e, mu, q)))
                self._ops.append((("weighted", i, fname),
                                  lambda e=e, mu=mu, q=q: weighted.cover_entropy_weighted(e, mu, q)))
                if small:
                    self.oracle[(i, fname)] = self._enumerate(fname, inst, mu, q)
            if i % MIXTURE_EVERY == 0:
                coeffs, measures = gen.mixture_components(seed, i, inst)
                spec = mixture.MixtureSpec(tuple(
                    (a, parse_instance({**inst, "mu": m})[0]) for a, m in zip(coeffs, measures)))
                for fname in MIXTURE_FUNCTIONALS:
                    e = parse_functional(fname)
                    self._ops.append((("mixture", i, fname),
                                      lambda e=e, s=spec, q=q: mixture.verify_mixture_bounds(e, s, q)))
        for _, op in self._ops[:2]:  # warm-up
            op()

    @staticmethod
    def _enumerate(fname, inst, mu, q):
        """Least entropy over every acceptable partition, or None if none."""
        best = None
        if not classical.is_mu_cover(q, mu):
            return None
        for p in classical.enumerate_acceptable_partitions(mu, q):
            h = checks.entropy(fname, [sum(inst["mu"][a] for a in b) for b in p.as_lists()])
            best = h if best is None else min(best, h)
        return best

    def verify(self, outputs) -> None:
        values = {}
        for (kind, i, fname), result in outputs:
            what = f"small_batch {kind} #{i} {fname}"
            if kind == "mixture":
                if result.achieved is not None and not (
                        result.lower - AGREE_TOL <= result.achieved <= result.upper + AGREE_TOL):
                    raise checks.GateError(f"{what}: {result.achieved} escapes "
                                           f"[{result.lower}, {result.upper}]")
                continue
            values.setdefault((i, fname), {})[kind] = result.value
            if (i, fname) in self.oracle:
                checks.close(result.value, self.oracle[(i, fname)], AGREE_TOL, what + " vs oracle")
        for (i, fname), pair in values.items():
            if len(pair) == 2:
                checks.close(pair["weighted"], pair["classical"], AGREE_TOL,
                             f"small_batch #{i} {fname} weighted vs classical")


# ---------------------------------------------------------------------------
# division_sampling
# ---------------------------------------------------------------------------

DIVISION_INSTANCES = 56   # two of each (n, k) shape
SAMPLES_PER_INSTANCE = 5


class DivisionSampling(Workload):
    """One sampled division per op, through entropy, disjointify and the
    certificate; each instance's floor is solved in set-up."""

    name = "division_sampling"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.instances = [gen.small_instance(gen.DIVISION_STREAM, seed, i)
                          for i in range(DIVISION_INSTANCES)]
        self.floors = []
        self.first_rows = {}
        self._ops = []
        for i, inst in enumerate(self.instances):
            fname = BUILTIN[i % len(BUILTIN)]
            e = parse_functional(fname)
            mu, q = parse_instance(inst)
            self.floors.append(classical.cover_entropy(e, mu, q).value)
            for s in range(SAMPLES_PER_INSTANCE):
                sample_seed = seed * 100_000 + i * 100 + s
                self._ops.append(((i, fname, sample_seed),
                                  lambda e=e, mu=mu, q=q, s=sample_seed: self._sample(e, mu, q, s)))
        self._ops[0][1]()  # warm-up

    @staticmethod
    def _sample(e, mu, q, sample_seed):
        d = weighted.random_division(mu, q, seed=sample_seed)
        h = weighted.weighted_entropy(e, d)
        p = weighted.disjointify(d)
        hp = classical.partition_entropy(e, mu, p)
        cert = weighted.disjointify_certificate(d)
        return d, h, p, hp, cert

    def verify(self, outputs) -> None:
        for (i, fname, s), (d, h, p, hp, cert) in outputs:
            inst = self.instances[i]
            what = f"division #{i} seed {s}"
            checks.division_rows(inst["mu"], inst["cover"], d.rows, what)
            rows = d.rows.tobytes()
            if self.first_rows.setdefault((i, s), rows) != rows:
                raise checks.GateError(f"{what}: same seed gave a different division")
            checks.close(h, checks.entropy(fname, d.rows.sum(axis=1)), LADDER_TOL, what)
            checks.at_least(h, self.floors[i], AGREE_TOL, what + " above floor")
            blocks = p.as_lists()
            checks.partition_finer_than(inst["mu"], inst["cover"], blocks, what + " disjointify")
            checks.close(hp, checks.entropy(fname, [sum(inst["mu"][a] for a in b) for b in blocks]),
                         LADDER_TOL, what + " partition entropy")
            checks.at_least(h, hp, AGREE_TOL, what + " disjointify does not increase")
            checks.close(sum(cert.x_seq), sum(cert.y_seq), checks.MASS_TOL, what + " certificate")


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli(Workload):
    """One ``python -m coverentropy.cli`` child per op, run one after another.

    Each round runs every subcommand on two generated file sets plus two
    invalid inputs: an instance with a ``NaN`` mass literal and one without a
    ``cover`` key.  Both must give exit code 1 with an ``invalid-input``
    report; anything else is a failed op.
    """

    name = "cli"
    in_process = False

    def __init__(self, src: Path, out_dir: Path) -> None:
        self.src = src
        self.dir = out_dir / f"cli-{os.getpid()}"

    def setup(self, seed: int) -> None:
        self.seed = seed
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env(self.src)
        self.invocations = {}   # key -> (argv, expected exit, expected status)
        self.expected = {}      # key -> reference values checked in verify
        self.first_stdout = {}
        self.instances = []
        for idx, fname in enumerate(("shannon", "tsallis:2")):
            files = gen.cli_file_set(seed, idx, fname)
            inst = files["instance"]
            self.instances.append(inst)
            paths = {}
            for part in ("instance", "division", "mixture", "hlp"):
                paths[part] = self.dir / f"{idx}-{part}.json"
                paths[part].write_text(json.dumps(files[part]))
            ipath = str(paths["instance"])
            blocks = json.dumps(files["blocks"])
            mu, q = parse_instance(inst)
            e = parse_functional(fname)
            self.expected[(idx, "cover")] = classical.cover_entropy(e, mu, q).value
            self.expected[(idx, "partition")] = checks.entropy(
                fname, [sum(inst["mu"][a] for a in b) for b in files["blocks"]])
            self.invocations.update({
                (idx, "cover-both"): (["cover", ipath, "--functional", fname, "--mode", "both",
                                       "--samples", "100"], 0, "ok"),
                (idx, "cover-classical"): (["cover", ipath, "--functional", fname,
                                            "--mode", "classical"], 0, "ok"),
                (idx, "mixture"): (["mixture", str(paths["mixture"])], 0, "ok"),
                (idx, "hlp"): (["hlp", str(paths["hlp"])], 0, "ok"),
                (idx, "disjointify"): (["disjointify", ipath, str(paths["division"]),
                                        "--functional", fname], 0, "ok"),
                (idx, "partition"): (["partition", ipath, "--functional", fname,
                                      "--blocks", blocks], 0, "ok"),
            })
        nan_inst = dict(self.instances[0])
        nan_inst["mu"] = [float("nan")] + nan_inst["mu"][1:]
        nan_path = self.dir / "nan-instance.json"
        nan_path.write_text(json.dumps(nan_inst))          # writes the NaN literal
        missing = {k: v for k, v in self.instances[1].items() if k != "cover"}
        missing_path = self.dir / "missing-cover.json"
        missing_path.write_text(json.dumps(missing))
        self.invocations[("invalid", "nan-literal")] = (
            ["cover", str(nan_path), "--functional", "shannon", "--mode", "both",
             "--samples", "100"], 1, "invalid-input")
        self.invocations[("invalid", "missing-cover")] = (
            ["cover", str(missing_path), "--functional", "shannon", "--mode", "classical"],
            1, "invalid-input")
        self.run_child(self.invocations[(0, "hlp")][0])  # warm-up

    def run_child(self, argv):
        proc = subprocess.run([sys.executable, "-m", "coverentropy.cli", *argv],
                              capture_output=True, text=True, env=self.env,
                              cwd=self.dir, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def ops(self):
        run = self.run_in_process if self.in_process else self.run_child
        return [(key, lambda argv=argv: run(argv))
                for key, (argv, _, _) in self.invocations.items()]

    def op_ok(self, key, output) -> bool:
        code, stdout, stderr = output
        _, expected_code, _ = self.invocations[key]
        return (code == expected_code and "Traceback" not in stderr
                and checks.parse_report(stdout) is not None)

    def verify(self, outputs) -> None:
        for key, (code, stdout, stderr) in outputs:
            what = f"cli {key}"
            if self.first_stdout.setdefault(key, stdout) != stdout:
                raise checks.GateError(f"{what}: repeated invocation changed its stdout")
            report = checks.parse_report(stdout)
            argv, _, status = self.invocations[key]
            if report["status"] != status or report["command"] != argv[0]:
                raise checks.GateError(f"{what}: status {report['status']!r}")
            res = report["results"]
            idx, kind = key
            if kind == "cover-both":
                checks.close(res["classical"]["value"], self.expected[(idx, "cover")],
                             LADDER_TOL, what)
                checks.close(res["weighted"]["value"], self.expected[(idx, "cover")],
                             AGREE_TOL, what)
                if res["weighted"]["sandwich"]["violations"] != 0 or not res["equality"]["within_tol"]:
                    raise checks.GateError(f"{what}: sandwich or equality check failed")
            elif kind == "cover-classical":
                checks.close(res["classical"]["value"], self.expected[(idx, "cover")],
                             LADDER_TOL, what)
            elif kind == "partition":
                checks.close(res["entropy"], self.expected[(idx, "partition")], LADDER_TOL, what)
            elif kind == "mixture":
                if not res["lower"] - AGREE_TOL <= res["achieved"] <= res["upper"] + AGREE_TOL:
                    raise checks.GateError(f"{what}: achieved escapes its bounds")
            elif kind == "disjointify":
                checks.at_least(res["division_entropy"], res["partition_entropy"], AGREE_TOL, what)
            elif kind == "hlp" and not res["confirmed"]:
                raise checks.GateError(f"{what}: comparison not confirmed")

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def make(name: str, src: Path, out_dir: Path) -> Workload:
    """Workload ``name``; CLI children import the package from ``src``."""
    if name == "cli":
        return Cli(src, out_dir)
    return {"search_ladder": SearchLadder, "small_batch": SmallBatch,
            "division_sampling": DivisionSampling}[name]()


WORKLOADS = ("search_ladder", "small_batch", "division_sampling", "cli")
