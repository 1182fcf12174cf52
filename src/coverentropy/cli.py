"""Batch CLI: parse instance files, dispatch computations, emit JSON reports.

One command per invocation; the report is always written to stdout as
canonical JSON (sorted keys, 17-significant-digit floats, zero without a
sign, infinities as the string ``"infinity"``), so identical inputs and flags
reproduce the report byte for byte.  Exit code 0 means status ``ok``; other
statuses map to distinct nonzero codes.

This module loads only the input readers and the functionals, and reads
its arguments against one table, ``_COMMANDS``: argparse would load gettext
and locale too.  Each subcommand imports the modules it runs
(:mod:`~coverentropy.classical` once its input has loaded,
:mod:`~coverentropy.weighted`, :mod:`~coverentropy.mixture`,
:mod:`~coverentropy.probes`, :mod:`~coverentropy.selftest`), so a child
process compiles only those.  No subcommand loads numpy: the division
sampler and the self test draw with the standard library's ``random``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

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

def cmd_partition(args) -> int:
    blocks = args.blocks.strip()
    if blocks.startswith("["):  # inline JSON is an argument, not an input file
        [instance], blocks = _read_inputs(args, args.instance), blocks.encode()
    else:
        instance, blocks = _read_inputs(args, args.instance, blocks)
    mu, cover = load_instance(instance)
    e = parse_functional(args.functional)
    blocks = SetFamily.of(mu.space, parse_blocks(load_json(blocks, "blocks"), "blocks"))
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
# Arguments
# ---------------------------------------------------------------------------

#: The flags that tune a computation: each one's reader, which applies the
#: library's own check to the text, and its default.
_TUNING = {
    "--budget": (lambda text: check_integer(int(text), 1, "budget"), DEFAULT_BUDGET),
    "--seed": (lambda text: check_integer(int(text), 0, "seed"), 0),
    "--tol": (lambda text: check_tolerance(float(text)), CHECK_TOL),
}
_FUNCTIONAL = {"--functional": (str, None)}

#: Each subcommand's handler, positionals and flags, with the tuning flags it
#: reads.  A flag maps to its reader, or the tuple of its choices, and its
#: default; ``None`` marks a required flag.
_COMMANDS = {
    "partition": (cmd_partition, ("instance",), {**_FUNCTIONAL, "--blocks": (str, None)}),
    "cover": (cmd_cover, ("instance",), {
        **_FUNCTIONAL, "--mode": (("classical", "weighted", "both"), "both"),
        "--samples": (lambda text: check_integer(int(text), 0, "samples"), 100),
        **_TUNING}),
    "mixture": (cmd_mixture, ("mixture",), {"--budget": _TUNING["--budget"]}),
    "hlp": (cmd_hlp, ("input",), {"--tol": _TUNING["--tol"]}),
    "disjointify": (cmd_disjointify, ("instance", "division"), _FUNCTIONAL),
    "selftest": (cmd_selftest, (), {
        "--scale": (("quick", "default", "full"), "default"),
        "--budget": _TUNING["--budget"], "--seed": _TUNING["--seed"]}),
}


def _value(name: str, reader, text: str):
    """``text`` read for argument ``name``, or argparse's error for it."""
    if isinstance(reader, tuple):
        if text in reader:
            return text
        choices = ", ".join(map(repr, reader))
        raise ValidationError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return reader(text)
    except ValueError as exc:  # ValidationError included
        raise ValidationError(f"argument {name}: {exc}") from None


def _usage(args) -> int:
    lines = ["usage: coverentropy COMMAND [ARGUMENTS]; each command writes one JSON report"]
    for name, (_, positionals, flags) in _COMMANDS.items():
        words = [name, *(p.upper() for p in positionals)]
        for flag, (reader, default) in flags.items():
            value = "{%s}" % ",".join(reader) if isinstance(reader, tuple) else flag[2:].upper()
            words.append(f"{flag} {value}" if default is None else f"[{flag} {value}]")
        lines.append("  " + " ".join(words))
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _parse(argv: list[str], args):
    """Set ``args`` from ``argv`` by ``_COMMANDS``; return the handler to run,
    the usage text's if ``-h`` or ``--help`` is anywhere.  A flag's value
    follows its ``=`` or is the next argument, and the last one wins.  A bad
    value, then a missing argument, then an unknown one raises
    ``ValidationError`` with argparse's message."""
    if not argv:
        raise ValidationError("the following arguments are required: command")
    if "-h" in argv or "--help" in argv:
        return _usage
    args.command = _value("command", tuple(_COMMANDS), argv[0])
    handler, positionals, flags = _COMMANDS[args.command]
    values = {flag: default for flag, (_, default) in flags.items()}
    given, extra, tokens = [], [], iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if flag in flags:
            text = text if eq else next(tokens, None)
            if text is None:
                raise ValidationError(f"argument {flag}: expected one argument")
            values[flag] = _value(flag, flags[flag][0], text)
        elif token.startswith("-") or len(given) == len(positionals):
            extra.append(token)
        else:
            given.append(token)
    missing = [*positionals[len(given):], *(f for f, v in values.items() if v is None)]
    if missing:
        raise ValidationError("the following arguments are required: " + ", ".join(missing))
    if extra:
        raise ValidationError("unrecognized arguments: " + " ".join(extra))
    for name, value in [*zip(positionals, given), *((f[2:], v) for f, v in values.items())]:
        setattr(args, name, value)
    return handler


def main(argv=None) -> int:
    # command and digest stay empty until a subcommand is named and its files are read
    args = SimpleNamespace(command="", digest="")
    try:
        return _parse(sys.argv[1:] if argv is None else argv, args)(args)
    except ValidationError as exc:
        return _emit(args, "invalid-input", {"error": str(exc)})
    except BudgetExceededError as exc:
        return _emit(args, "budget-exceeded", {"error": str(exc)})


if __name__ == "__main__":
    raise SystemExit(main())
