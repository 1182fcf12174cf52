"""Batch CLI: parse instance files, dispatch computations, emit JSON reports.

One command per invocation; the report is always written to stdout as
canonical JSON (sorted keys, 17-significant-digit floats, zero without a
sign, infinities as the string ``"infinity"``), so identical inputs and flags
reproduce the report byte for byte.  Exit code 0 means status ``ok``; other
statuses map to distinct nonzero codes.

This module loads only argument parsing, the input readers and the
functionals; each subcommand imports the modules it runs
(:mod:`~coverentropy.classical` once its input has loaded,
:mod:`~coverentropy.weighted`, :mod:`~coverentropy.mixture`,
:mod:`~coverentropy.probes`, :mod:`~coverentropy.selftest`), so a child
process compiles only those.  No subcommand loads numpy: the division
sampler and the self test draw with the standard library's ``random``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

try:  # the interpreter's own sha256 (_sha2 from Python 3.12 on): hashlib loads OpenSSL
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import BudgetExceededError, ValidationError
from .functionals import HlpInput, parse_functional
from .measure import (
    CHECK_TOL,
    DEFAULT_BUDGET,
    SetFamily,
    check_integer,
    check_tolerance,
    load_instance,
    load_json,
    parse_blocks,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_BUDGET = 2
EXIT_INFINITE = 3

_STATUS_EXIT = {
    "ok": EXIT_OK,
    "invalid-input": EXIT_INVALID_INPUT,
    "budget-exceeded": EXIT_BUDGET,
    "infinite": EXIT_INFINITE,
}


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def dumps_canonical(obj) -> str:
    """Serialize with sorted keys and 17-significant-digit float literals."""
    pieces: list[str] = []
    _write_canonical(obj, pieces)
    return "".join(pieces)


def _write_canonical(obj, out: list[str]) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite floats must be tagged upstream")
        out.append(format(obj + 0.0, ".17g"))  # -0.0 + 0.0 is 0.0: no "-0" in a report
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def _extended(value: float | None):
    """Tag infinite values for the report (JSON has no infinity literal)."""
    return "infinity" if value is None else float(value)


def _read_inputs(args, *paths: str) -> list[bytes]:
    """Read each input file once; the report digest hashes their bytes in order."""
    data = []
    for p in paths:
        try:
            data.append(Path(p).read_bytes())
        except OSError as exc:
            raise ValidationError(f"cannot read {p}: {exc.strerror}") from exc
    args.digest = sha256(b"".join(data)).hexdigest()
    return data


def _emit(args, status: str, results: dict) -> int:
    report = {
        "command": args.command,
        "instance_digest": args.digest,
        "status": status,
        "results": results,
    }
    sys.stdout.write(dumps_canonical(report) + "\n")
    return _STATUS_EXIT[status]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_blocks(text: str) -> list[list[int]]:
    """Accept inline JSON (starts with '[') or a path to a JSON file."""
    raw = text.strip()
    return parse_blocks(load_json(raw.encode() if raw.startswith("[") else raw, "blocks"),
                        "blocks")


def cmd_partition(args) -> int:
    [instance] = _read_inputs(args, args.instance)
    mu, cover = load_instance(instance)
    e = parse_functional(args.functional)
    blocks = SetFamily.of(mu.space, _load_blocks(args.blocks))
    from .classical import partition_entropy
    value = partition_entropy(e, mu, blocks)
    return _emit(args, "ok", {
        "functional": e.name,
        "partition": blocks.as_lists(),
        "entropy": value,
    })


def cmd_cover(args) -> int:
    [instance] = _read_inputs(args, args.instance)
    mu, cover = load_instance(instance)
    e = parse_functional(args.functional)
    results: dict = {"functional": e.name, "mode": args.mode}
    from .classical import cover_entropy
    # one search for every mode: the weighted optimum is the vertex division
    # of the classical optimum's assignment
    result = cover_entropy(e, mu, cover, budget=args.budget)
    status = "infinite" if result.is_infinite else "ok"
    if args.mode != "weighted":
        results["classical"] = {
            "value": _extended(result.value),
            "explored": result.explored,
            "witness_partition": None if result.is_infinite else result.witness.as_lists(),
        }
    if args.mode == "classical":
        return _emit(args, status, results)
    from .weighted import division_dict, division_from_assignment, random_division, weighted_entropy
    witness = None if result.is_infinite else division_from_assignment(result.assignment, mu)
    value = None if witness is None else weighted_entropy(e, witness)
    results["weighted"] = {
        "value": _extended(value),
        "explored": result.explored,
        "witness_division": None if witness is None else division_dict(witness),
    }
    if witness is not None and args.samples > 0:
        violations = sum(weighted_entropy(e, random_division(mu, cover, seed=args.seed + i))
                         < value - args.tol for i in range(args.samples))
        results["weighted"]["sandwich"] = {
            "samples": args.samples,
            "violations": violations,
            "seed": args.seed,
        }
    if args.mode == "both":
        diff = None if witness is None else abs(result.value - value)
        results["equality"] = {"difference": _extended(diff),
                               "within_tol": diff is None or diff <= args.tol}
    return _emit(args, status, results)


def cmd_mixture(args) -> int:
    from .mixture import parse_mixture, verify_mixture_bounds
    [mixture] = _read_inputs(args, args.mixture)
    spec, cover, e = parse_mixture(load_json(mixture, "mixture file"))
    report = verify_mixture_bounds(e, spec, cover, budget=args.budget)
    status = "infinite" if report.is_infinite else "ok"
    return _emit(args, status, {
        "functional": e.name,
        "alpha": report.alpha,
        "coefficients": list(report.coefficients),
        "component_entropies": [_extended(h) for h in report.component_entropies],
        "lower": _extended(report.lower),
        "upper": _extended(report.upper),
        "achieved": _extended(report.achieved),
    })


def cmd_hlp(args) -> int:
    [hlp] = _read_inputs(args, args.input)
    data = load_json(hlp, "hlp file")
    if not isinstance(data, dict) or not {"x", "y", "functional"} <= set(data):
        raise ValidationError('hlp JSON needs keys "x", "y" and "functional"')
    e = parse_functional(str(data["functional"]))
    inp = HlpInput(x_seq=data["x"], y_seq=data["y"])
    shape = "concave" if e.minimizes_g_sum else "convex"
    from .probes import hlp_compare
    report = hlp_compare(inp, e.g, shape, tol=args.tol)
    return _emit(args, "ok", {
        "functional": e.name,
        "phi_shape": report.shape,
        "sum_phi_x": report.sum_x,
        "sum_phi_y": report.sum_y,
        "confirmed": report.confirmed,
    })


def cmd_disjointify(args) -> int:
    instance, division = _read_inputs(args, args.instance, args.division)
    mu, cover = load_instance(instance)
    from .classical import partition_entropy
    from .weighted import disjointify, parse_division, weighted_entropy
    d = parse_division(load_json(division, "division file"), mu, cover)
    e = parse_functional(args.functional)
    partition = disjointify(d)
    return _emit(args, "ok", {
        "functional": e.name,
        "partition": partition.as_lists(),
        "partition_entropy": partition_entropy(e, mu, partition),
        "division_entropy": weighted_entropy(e, d),
    })


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    config = {"scale": args.scale, "seed": args.seed, "budget": args.budget}
    args.digest = sha256(dumps_canonical(config).encode()).hexdigest()
    outcomes, ok = run_selftest(scale=args.scale, seed=args.seed, budget=args.budget)
    results = {
        "scale": args.scale,
        "seed": args.seed,
        "properties": [o.as_dict() for o in outcomes],
        "all_passed": ok,
    }
    # a failing property means the install itself is unsound, which is the
    # closest thing to invalid input this command has; exit stays nonzero
    return _emit(args, "ok" if ok else "invalid-input", results)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as :class:`ValidationError` instead of printing
    usage and exiting with 2, which is the budget exit code."""

    def error(self, message):
        raise ValidationError(message)


def _checked(convert, check, **bounds):
    """argparse type: ``convert`` the text, then apply the library's ``check``,
    so a flag accepts exactly what the library accepts."""
    def parse(text: str):
        try:
            return check(convert(text), **bounds)
        except ValueError as exc:  # ValidationError included
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


#: The flags that tune a computation; each subcommand takes the ones it reads.
_TUNING = {
    "--budget": dict(type=_checked(int, check_integer, least=1, what="budget"),
                     default=DEFAULT_BUDGET,
                     help="search budget: DP transitions the search may evaluate, "
                          "witness walk included (default 10^6)"),
    "--seed": dict(type=_checked(int, check_integer, least=0, what="seed"), default=0,
                   help="base seed for seeded sampling (default 0)"),
    "--tol": dict(type=_checked(float, check_tolerance), default=CHECK_TOL,
                  help="numeric tolerance for report checks (default 1e-9)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coverentropy",
        description="Entropies of measurable covers: classical, weighted, and "
                    "mixture bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *tuning):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for flag in tuning:
            p.add_argument(flag, **_TUNING[flag])
        return p

    p = command("partition", cmd_partition, "entropy of an explicit partition")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--functional", required=True,
                   help="shannon | renyi:ALPHA | tsallis:ALPHA")
    p.add_argument("--blocks", required=True,
                   help="partition blocks as inline JSON or a JSON file path")

    p = command("cover", cmd_cover, "cover entropy (classical, weighted, or both)",
                "--budget", "--seed", "--tol")
    p.add_argument("instance")
    p.add_argument("--functional", required=True)
    p.add_argument("--mode", choices=["classical", "weighted", "both"],
                   default="both")
    p.add_argument("--samples", type=_checked(int, check_integer, least=0, what="samples"),
                   default=100, help="random divisions for the weighted sandwich check")

    p = command("mixture", cmd_mixture,
                "verify mixture-entropy bounds from a mixture JSON", "--budget")
    p.add_argument("mixture")

    p = command("hlp", cmd_hlp, "Hardy-Littlewood-Polya comparison for a named phi",
                "--tol")
    p.add_argument("input", help='JSON with "x", "y" and "functional"')

    p = command("disjointify", cmd_disjointify,
                "disjointify a division and report both entropies")
    p.add_argument("instance")
    p.add_argument("division")
    p.add_argument("--functional", required=True)

    p = command("selftest", cmd_selftest, "run the seeded property suite",
                "--budget", "--seed")
    p.add_argument("--scale", choices=["quick", "default", "full"],
                   default="default")
    return parser


def main(argv=None) -> int:
    # command and digest stay empty until the arguments name one and the
    # input files are read
    args = argparse.Namespace(command="", digest="")
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.func(args)
    except ValidationError as exc:
        return _emit(args, "invalid-input", {"error": str(exc)})
    except BudgetExceededError as exc:
        return _emit(args, "budget-exceeded", {"error": str(exc)})


if __name__ == "__main__":
    raise SystemExit(main())
