import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coverentropy
from coverentropy.cli import dumps_canonical, main

from bad_values import BAD_SEEDS

INSTANCE = {
    "n": 3,
    "mu": [0.3333333333333333, 0.3333333333333333, 0.3333333333333334],
    "cover": [[0, 1], [1, 2]],
}

MIXTURE = {
    "n": 2,
    "coefficients": [0.5, 0.5],
    "measures": [[1.0, 0.0], [0.0, 1.0]],
    "cover": [[0], [1]],
    "functional": "tsallis:2.0",
}


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCanonicalJson:
    def test_sorted_keys_and_17g_floats(self):
        text = dumps_canonical({"b": 0.1, "a": [1, True, None, "x"]})
        assert text == '{"a":[1,true,null,"x"],"b":0.10000000000000001}'

    def test_floats_round_trip(self):
        for v in (0.1, 2 / 3, 1e-300, 123456.789, 5.0):
            assert json.loads(dumps_canonical({"v": v}))["v"] == v

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps_canonical({"v": float("inf")})


class TestCoverCommand:
    def test_both_mode_report(self, capsys, instance_file):
        code, report = run_cli(capsys, "cover", instance_file,
                               "--functional", "shannon", "--mode", "both",
                               "--samples", "25", "--seed", "3")
        assert code == 0
        assert report["status"] == "ok"
        res = report["results"]
        assert res["classical"]["value"] == pytest.approx(0.9182958340544896)
        assert res["classical"]["witness_partition"] == [[0, 1], [2]]
        assert res["weighted"]["value"] == pytest.approx(0.9182958340544896)
        assert res["equality"]["within_tol"] is True
        assert res["weighted"]["sandwich"] == {
            "samples": 25, "violations": 0, "seed": 3}

    def test_reports_are_reproducible(self, capsys, instance_file):
        argv = ("cover", instance_file, "--functional", "tsallis:2",
                "--mode", "weighted", "--samples", "40", "--seed", "7")
        main(list(argv)); first = capsys.readouterr().out
        main(list(argv)); second = capsys.readouterr().out
        assert first == second

    def test_infinite_status(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "mu": [0.5, 0.5], "cover": [[0]]}))
        code, report = run_cli(capsys, "cover", str(bad), "--functional", "shannon")
        assert code == 3
        assert report["status"] == "infinite"
        assert report["results"]["classical"]["value"] == "infinity"

    def test_budget_exceeded_status(self, capsys, instance_file):
        # the smallest valid budget; this instance needs eight transitions
        code, report = run_cli(capsys, "cover", instance_file,
                               "--functional", "shannon", "--budget", "1")
        assert code == 2
        assert report["status"] == "budget-exceeded"

    def test_two_thousand_singleton_sets(self, capsys, tmp_path):
        # a partition cover is placed without branching or recursion
        n = 2000
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps(
            {"n": n, "mu": [1.0 / n] * n, "cover": [[a] for a in range(n)]}))
        code, report = run_cli(capsys, "cover", str(path), "--functional", "shannon",
                               "--mode", "classical")
        assert code == 0
        assert report["status"] == "ok"
        classical = report["results"]["classical"]
        assert classical["value"] == pytest.approx(math.log2(n), abs=1e-9)
        assert classical["explored"] == 2 * n

    def test_missing_file_is_invalid_input(self, capsys):
        code, report = run_cli(capsys, "cover", "/nonexistent.json",
                               "--functional", "shannon")
        assert code == 1
        assert report["status"] == "invalid-input"

    def test_nan_literal_is_invalid_input(self, tmp_path):
        # Python's json reads NaN; the report must still be one JSON line
        bad = tmp_path / "nan.json"
        bad.write_text('{"n": 2, "mu": [NaN, 1.0], "cover": [[0, 1]]}')
        src = str(Path(coverentropy.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "coverentropy.cli", "cover", str(bad),
             "--functional", "shannon"],
            env=env, capture_output=True, text=True)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "invalid-input"


# command, input file content (None: the valid instance), extra flags
MALFORMED = {
    "blocks": ("partition", None, ["--functional", "shannon", "--blocks", "[[0],[1"]),
    "mass-string": ("mixture", {**MIXTURE, "measures": [["abc", 1.0], [0.0, 1.0]]}, []),
    "mass-null": ("mixture", {**MIXTURE, "measures": [[None, 1.0], [0.0, 1.0]]}, []),
    "hlp-scalar": ("hlp", {"x": 5, "y": [1.0], "functional": "shannon"}, []),
    "not-utf8": ("cover", b"\xff\xfe\xfa", ["--functional", "shannon"]),
    "n-bool": ("cover", {"n": True, "mu": [1.0], "cover": [[0]]}, ["--functional", "shannon"]),
    "mu-bool": ("cover", {"n": 2, "mu": [True, False], "cover": [[0, 1]]},
                ["--functional", "shannon"]),
    "cover-bool": ("cover", {"n": 2, "mu": [0.5, 0.5], "cover": [[0, True]]},
                   ["--functional", "shannon"]),
    "mixture-cover-bool": ("mixture", {**MIXTURE, "cover": [[False], [True]]}, []),
    "coefficient-bool": ("mixture", {**MIXTURE, "coefficients": [True, 0.0]}, []),
    "blocks-bool": ("partition", None, ["--functional", "shannon", "--blocks", "[[0, true], [2]]"]),
    "hlp-bool": ("hlp", {"x": [True], "y": [1.0], "functional": "shannon"}, []),
    "mass-int-overflow": ("cover", {"n": 2, "mu": [10 ** 400, 0.5], "cover": [[0, 1]]},
                          ["--functional", "shannon"]),
    "int-too-many-digits": ("hlp", b'{"x": [' + b"9" * 5000 + b'], "y": [1.0]}', []),
    "budget-negative": ("cover", None, ["--functional", "shannon", "--budget", "-5"]),
    "budget-zero": ("cover", None, ["--functional", "shannon", "--budget", "0"]),
    "budget-not-int": ("cover", None, ["--functional", "shannon", "--budget", "abc"]),
    "samples-negative": ("cover", None, ["--functional", "shannon", "--mode", "weighted",
                                         "--samples", "-3"]),
    "seed-negative": ("cover", None, ["--functional", "shannon", "--seed", "-1"]),
    "tol-nan": ("cover", None, ["--functional", "shannon", "--samples", "0", "--tol", "nan"]),
    "tol-negative": ("cover", None, ["--functional", "shannon", "--samples", "0",
                                     "--tol", "-1"]),
    "tol-inf": ("cover", None, ["--functional", "shannon", "--samples", "0", "--tol", "inf"]),
    "unknown-flag": ("cover", None, ["--functional", "shannon", "--frobnicate"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_invalid_input_line(
    capsys, tmp_path, instance_file, case
):
    command, content, flags = MALFORMED[case]
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    code = main([command, instance_file if content is None else str(path), *flags])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert captured.err == ""  # no usage text
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert lines[0] == dumps_canonical(report)
    assert report["status"] == "invalid-input"


@pytest.mark.parametrize("content, flags, status", [
    (json.dumps(INSTANCE).encode(), ["--budget", "1"], "budget-exceeded"),
    (b'{"n": 2, "mu": [NaN, 1.0], "cover": [[0, 1]]}', [], "invalid-input"),
], ids=["budget-exceeded", "nan-literal"])
def test_failure_reports_carry_the_input_digest(capsys, tmp_path, content, flags, status):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    _, report = run_cli(capsys, "cover", str(path), "--functional", "shannon",
                        "--mode", "classical", *flags)
    assert report["status"] == status
    assert report["instance_digest"] == hashlib.sha256(content).hexdigest()


# valid inputs of the file-reading subcommands, mutated by the fuzz test below
DIVISION = {"cover_index_rows": [[0.3333333333333333, 0.3333333333333333, 0.0],
                                 [0.0, 0.0, 0.3333333333333334]]}
HLP = {"x": [0.5, 0.5], "y": [0.7, 0.3], "functional": "shannon"}
BLOCKS = [[0, 1], [2]]
# subcommand: its inputs in argv order ("blocks" is passed inline) and its flags
FUZZ_COMMANDS = {
    "partition": (("instance", "blocks"), ["--functional", "shannon"]),
    "cover": (("instance",), ["--functional", "shannon", "--samples", "3"]),
    "mixture": (("mixture",), []),
    "hlp": (("hlp",), []),
    "disjointify": (("instance", "division"), ["--functional", "shannon"]),
}
FUZZ_DOCS = {"instance": INSTANCE, "division": DIVISION, "mixture": MIXTURE,
             "hlp": HLP, "blocks": BLOCKS}

# numbers and tokens at the edges of what the parsers accept
EDGE_VALUES = [10 ** 400, -0.0, 5e-324, 1e308, -1, 0, 3, True, None, "", [], {}]
EDGE_TOKENS = [b"9" * 5000, b"1" + b"0" * 400, b"1e999", b"NaN", b"-Infinity", b"-0",
               b"null", b"[" * 3000]
json_values = st.sampled_from(EDGE_VALUES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=2),
    max_leaves=6,
)
# argv cannot carry NUL or lone surrogates
argv_text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
                    max_size=3)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, (list, dict)):
        for key in (range(len(doc)) if isinstance(doc, list) else sorted(doc)):
            yield from _paths(doc[key], path + (key,))


def _mutate_doc(draw, doc):
    """``doc`` with one node replaced, dropped or duplicated."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(json_values)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    key = path[-1]
    action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    if action == "replace":
        parent[key] = draw(json_values)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[draw(st.text(max_size=3))] = parent[key]
    return doc


def _mutated_text(draw, doc, chunks):
    """JSON text of ``doc``, mutated as a tree or as text."""
    if draw(st.booleans()):
        return json.dumps(_mutate_doc(draw, doc)).encode()
    text = json.dumps(doc).encode()
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 4)))
    insert = draw(chunks | st.sampled_from(EDGE_TOKENS))
    return text[:start] + (insert.encode() if isinstance(insert, str) else insert) + text[stop:]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_give_one_report_line(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    inputs, flags = FUZZ_COMMANDS[command]
    mutated = data.draw(st.sets(st.sampled_from(inputs), min_size=1))
    argv = [command, *flags]
    for name in inputs:
        inline = name == "blocks"
        content = json.dumps(FUZZ_DOCS[name]).encode()
        if name in mutated:
            chunks = argv_text if inline else st.binary(max_size=3)
            content = _mutated_text(data.draw, FUZZ_DOCS[name], chunks)
        if inline:
            argv += ["--blocks", content.decode()]
        else:
            path = tmp_path / f"{name}.json"
            path.write_bytes(content)
            argv.append(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    stdout = out.getvalue()
    assert stdout.endswith("\n") and stdout.count("\n") == 1
    # the package writes the float -0.0 as "-0", which json reads as int 0
    report = json.loads(stdout, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    assert dumps_canonical(report) + "\n" == stdout


class TestPartitionCommand:
    def test_inline_blocks(self, capsys, instance_file):
        code, report = run_cli(capsys, "partition", instance_file,
                               "--functional", "shannon",
                               "--blocks", "[[0, 1], [2]]")
        assert code == 0
        assert report["results"]["entropy"] == pytest.approx(0.9182958340544896)

    def test_blocks_from_file(self, capsys, instance_file, tmp_path):
        blocks = tmp_path / "blocks.json"
        blocks.write_text("[[0], [1], [2]]")
        code, report = run_cli(capsys, "partition", instance_file,
                               "--functional", "shannon", "--blocks", str(blocks))
        assert code == 0
        assert report["results"]["entropy"] == pytest.approx(1.5849625007211562)

    def test_whole_support_block(self, capsys, instance_file):
        code, report = run_cli(capsys, "partition", instance_file,
                               "--functional", "tsallis:2",
                               "--blocks", "[[0, 1, 2]]")
        assert code == 0
        assert report["results"]["entropy"] == pytest.approx(0.0, abs=1e-15)

    def test_overlapping_blocks_rejected(self, capsys, instance_file):
        code, report = run_cli(capsys, "partition", instance_file,
                               "--functional", "shannon",
                               "--blocks", "[[0, 1], [1, 2]]")
        assert code == 1
        assert report["status"] == "invalid-input"


class TestMixtureCommand:
    def test_sharp_upper_bound_instance(self, capsys, tmp_path):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(MIXTURE))
        code, report = run_cli(capsys, "mixture", str(path))
        assert code == 0
        res = report["results"]
        assert res["achieved"] == pytest.approx(0.5)
        assert res["achieved"] == pytest.approx(res["upper"], abs=1e-12)
        assert res["containment"] is True

    def test_identical_measures_hit_lower(self, capsys, tmp_path):
        data = dict(MIXTURE, measures=[[0.3, 0.7], [0.3, 0.7]], cover=[[0, 1], [1]])
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "mixture", str(path))
        assert code == 0
        res = report["results"]
        assert res["achieved"] == pytest.approx(res["lower"], abs=1e-12)

    def test_bad_coefficients(self, capsys, tmp_path):
        data = dict(MIXTURE, coefficients=[0.5, 0.6])
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "mixture", str(path))
        assert code == 1
        assert report["status"] == "invalid-input"


class TestHlpCommand:
    def test_confirmed_comparison(self, capsys, tmp_path):
        path = tmp_path / "hlp.json"
        path.write_text(json.dumps(
            {"x": [0.5, 0.5], "y": [0.7, 0.3], "functional": "shannon"}))
        code, report = run_cli(capsys, "hlp", str(path))
        assert code == 0
        res = report["results"]
        assert res["phi_shape"] == "convex"
        assert res["confirmed"] is True
        assert res["sum_phi_x"] == pytest.approx(-1.0)

    def test_invalid_sequences(self, capsys, tmp_path):
        path = tmp_path / "hlp.json"
        path.write_text(json.dumps(
            {"x": [0.3, 0.7], "y": [0.5, 0.5], "functional": "shannon"}))
        code, report = run_cli(capsys, "hlp", str(path))
        assert code == 1


class TestDisjointifyCommand:
    def test_partition_and_both_entropies(self, capsys, instance_file, tmp_path):
        division = tmp_path / "division.json"
        division.write_text(json.dumps({"cover_index_rows": [
            [0.3333333333333333, 0.3333333333333333, 0.0],
            [0.0, 0.0, 0.3333333333333334],
        ]}))
        code, report = run_cli(capsys, "disjointify", instance_file, str(division),
                               "--functional", "shannon")
        assert code == 0
        res = report["results"]
        assert res["partition"] == [[0, 1], [2]]
        assert res["partition_entropy"] <= res["division_entropy"] + 1e-9

    def test_small_rows_past_mass_tol(self, capsys, tmp_path):
        # each small row is under MASS_TOL, but the two together are not
        mu = [1 - 1.8e-12, 9e-13, 9e-13]
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"n": 3, "mu": mu, "cover": [[0], [1], [2]]}))
        division = tmp_path / "division.json"
        division.write_text(json.dumps({"cover_index_rows": np.diag(mu).tolist()}))
        code, report = run_cli(capsys, "disjointify", str(instance), str(division),
                               "--functional", "shannon")
        assert code == 0
        assert report["status"] == "ok"
        assert report["results"]["partition"] == [[0], [1], [2]]

    def test_misaligned_division(self, capsys, instance_file, tmp_path):
        division = tmp_path / "division.json"
        division.write_text(json.dumps({"cover_index_rows": [[0.5, 0.5, 0.0]]}))
        code, report = run_cli(capsys, "disjointify", instance_file, str(division),
                               "--functional", "shannon")
        assert code == 1
        assert report["status"] == "invalid-input"


# the tuning flags each subcommand does not read
UNREAD_FLAGS = {
    "partition": ["--budget", "--seed", "--tol"],
    "mixture": ["--seed", "--tol"],
    "hlp": ["--budget", "--seed"],
    "disjointify": ["--budget", "--seed", "--tol"],
    "selftest": ["--tol"],
}


def _valid_argv(tmp_path, command):
    if command == "selftest":
        return ["selftest", "--scale", "quick"]
    inputs, flags = FUZZ_COMMANDS[command]
    argv = [command, *flags]
    for name in inputs:
        if name == "blocks":
            argv += ["--blocks", json.dumps(BLOCKS)]
        else:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(FUZZ_DOCS[name]))
            argv.append(str(path))
    return argv


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags])
def test_unread_flag_is_one_invalid_input_line(capsys, tmp_path, command, flag):
    code = main([*_valid_argv(tmp_path, command), flag, "5"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert captured.err == ""
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert lines[0] == dumps_canonical(report)
    assert report["status"] == "invalid-input"
    assert f"unrecognized arguments: {flag} 5" in report["results"]["error"]


def test_cover_reads_every_tuning_flag(capsys, tmp_path):
    argv = [*_valid_argv(tmp_path, "cover"), "--budget", "100", "--seed", "4", "--tol", "0.5"]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["results"]["weighted"]["sandwich"]["seed"] == 4
    assert report["results"]["equality"]["within_tol"] is True


class TestSelftestCommand:
    def test_quick_scale_passes(self, capsys):
        code, report = run_cli(capsys, "selftest", "--scale", "quick")
        assert code == 0
        res = report["results"]
        assert res["all_passed"] is True
        names = [p["name"] for p in res["properties"]]
        assert "classical-weighted-agreement" in names
        assert all(p["failures"] == 0 for p in res["properties"])

    def test_quick_scale_is_deterministic(self, capsys):
        main(["selftest", "--scale", "quick"]); first = capsys.readouterr().out
        main(["selftest", "--scale", "quick"]); second = capsys.readouterr().out
        assert first == second


class TestSelftestDiagnostics:
    def test_runner_counts_checks_and_keeps_first_counterexample(self):
        from coverentropy.selftest import _run

        def checks():
            yield from [None, {"a": 1}, None, {"b": 2}]

        outcome = _run("hand-written", checks())
        assert (outcome.checks, outcome.failures) == (4, 2)
        assert outcome.passed is False
        assert outcome.counterexample == {"a": 1}
        empty = _run("empty", (c for c in ()))
        assert (empty.checks, empty.failures, empty.passed) == (0, 0, True)
        assert empty.counterexample is None

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_bad_seed_rejected(self, seed):
        from coverentropy import ValidationError
        from coverentropy.selftest import run_selftest

        with pytest.raises(ValidationError, match="seed"):
            run_selftest("quick", seed)

    @pytest.mark.parametrize("scale", ["bogus", "", None, ["quick"]])
    def test_bad_scale_rejected(self, scale):
        from coverentropy import ValidationError
        from coverentropy.selftest import run_selftest

        with pytest.raises(ValidationError, match="scale"):
            run_selftest(scale)

    def test_tampered_functional_fails_with_counterexample(self, monkeypatch):
        # flip the sign of shannon's inner map: the merge inequalities reverse
        import math

        import coverentropy.selftest as selftest_mod
        from coverentropy import CompositionCase, EntropyFunctional

        tampered = EntropyFunctional(
            name="shannon", alpha=None,
            f=lambda x: -x,
            g=lambda t: -t * math.log2(t) if t > 0 else 0.0,
            case=CompositionCase.DECREASING_SUPERADDITIVE_CONVEX,
        )
        monkeypatch.setattr(selftest_mod, "builtin_functionals", lambda: (tampered,))
        outcomes, ok = selftest_mod.run_selftest(scale="quick", seed=0)
        assert not ok
        failing = [o for o in outcomes if not o.passed]
        assert failing
        assert any(o.counterexample is not None for o in failing)
