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
from coverentropy import _kernels
from coverentropy.cli import dumps_canonical, main

from bad_values import BAD_SEEDS
from golden.regen import CASES

GOLDEN = Path(__file__).resolve().parent / "golden" / "inputs"

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

    def test_negative_zero_written_as_zero(self):
        assert dumps_canonical({"v": -0.0}) == '{"v":0}'


class TestCoverCommand:
    def test_zero_entropy_is_written_without_sign(self, capsys, tmp_path):
        # shannon's f(0) is -0.0
        path = tmp_path / "point.json"
        path.write_text(json.dumps({"n": 2, "mu": [1.0, 0.0], "cover": [[0], [1]]}))
        assert main(["cover", str(path), "--functional", "shannon"]) == 0
        out = capsys.readouterr().out
        assert out.count('"value":0,') == 2 and "-0" not in out

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

    @pytest.mark.parametrize("mode", ["classical", "weighted", "both"])
    def test_one_search_per_run(self, capsys, monkeypatch, instance_file, mode):
        # both witnesses come from the one optimal assignment
        calls = []
        search = _kernels.ordering_dp

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(_kernels, "ordering_dp", counted)
        code, _ = run_cli(capsys, "cover", instance_file, "--functional", "shannon",
                          "--mode", mode, "--samples", "5")
        assert code == 0 and len(calls) == 1

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
        assert report["results"]["equality"] == {"difference": "infinity", "within_tol": True}

    def test_budget_exceeded_status(self, capsys, instance_file):
        # the smallest valid budget; this instance needs six transitions
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

    def test_tie_heavy_cover_completes(self, capsys, tmp_path):
        # uniform edges of K_10 under the vertex stars: the optimal orderings
        # tie factorially often, and the witness walk takes the first
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        path = tmp_path / "k10.json"
        path.write_text(json.dumps(
            {"n": len(edges), "mu": [1.0 / len(edges)] * len(edges),
             "cover": [[j for j, edge in enumerate(edges) if v in edge]
                       for v in range(10)]}))
        code, report = run_cli(capsys, "cover", str(path), "--functional", "shannon",
                               "--mode", "classical")
        assert code == 0
        assert report["status"] == "ok"

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
    # component 0 leaves 2e-12 > MASS_TOL uncovered, the mixture 8e-13: no bound holds
    "mixture-covered-component-not": ("mixture", {**MIXTURE, "coefficients": [0.4, 0.6],
                                      "measures": [[1 - 2e-12, 2e-12], [1.0, 0.0]],
                                      "cover": [[0]]}, []),
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


# a valid division of INSTANCE
DIVISION = {"cover_index_rows": [[0.3333333333333333, 0.3333333333333333, 0.0],
                                 [0.0, 0.0, 0.3333333333333334]]}

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


# the golden cases that read documents: their input files and partition's
# inline --blocks are what the fuzz below mutates (the argv- cases pin how
# the command line is read)
FUZZ_CASES = [argv for name, argv in CASES.items()
              if not name.startswith("argv-") and argv[0] != "selftest"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_give_one_report_line(tmp_path, data):
    argv = list(data.draw(st.sampled_from(FUZZ_CASES)))
    docs = [i for i, a in enumerate(argv) if a.startswith("inputs/") or argv[i - 1] == "--blocks"]
    mutated = data.draw(st.sets(st.sampled_from(docs), min_size=1))
    for i in docs:
        inline = argv[i - 1] == "--blocks"
        content = argv[i].encode() if inline else (GOLDEN.parent / argv[i]).read_bytes()
        if i in mutated:
            chunks = argv_text if inline else st.binary(max_size=3)
            content = _mutated_text(data.draw, json.loads(content), chunks)
        if inline:
            argv[i] = content.decode()
        else:
            argv[i] = str(tmp_path / f"input-{i}.json")
            Path(argv[i]).write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    stdout = out.getvalue()
    assert stdout.endswith("\n") and stdout.count("\n") == 1
    assert dumps_canonical(json.loads(stdout)) + "\n" == stdout


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
        # the digest covers both files' bytes, in argument order
        data = Path(instance_file).read_bytes() + blocks.read_bytes()
        assert report["instance_digest"] == hashlib.sha256(data).hexdigest()
        other = tmp_path / "other.json"
        other.write_text("[[0, 1], [2]]")
        _, second = run_cli(capsys, "partition", instance_file,
                            "--functional", "shannon", "--blocks", str(other))
        assert second["instance_digest"] != report["instance_digest"]

    def test_inline_blocks_stay_out_of_the_digest(self, capsys, instance_file):
        _, report = run_cli(capsys, "partition", instance_file,
                            "--functional", "shannon", "--blocks", "[[0, 1], [2]]")
        data = Path(instance_file).read_bytes()
        assert report["instance_digest"] == hashlib.sha256(data).hexdigest()

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
        # status ok already says containment held
        assert "containment" not in res

    def test_identical_measures_hit_lower(self, capsys, tmp_path):
        data = dict(MIXTURE, measures=[[0.3, 0.7], [0.3, 0.7]], cover=[[0, 1], [1]])
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(data))
        code, report = run_cli(capsys, "mixture", str(path))
        assert code == 0
        res = report["results"]
        assert res["achieved"] == pytest.approx(res["lower"], abs=1e-12)

    @pytest.mark.parametrize("functional", ["renyi:0.5", "renyi:2"])
    def test_renyi_mixture_is_bounded(self, capsys, tmp_path, functional):
        path = tmp_path / "mixture.json"
        path.write_text(json.dumps(dict(MIXTURE, functional=functional)))
        code, report = run_cli(capsys, "mixture", str(path))
        assert (code, report["status"]) == (0, "ok")
        res = report["results"]
        # Renyi of the (0.5, 0.5) split is one bit at every order
        assert res["achieved"] == pytest.approx(1.0, abs=1e-12)
        assert res["achieved"] == pytest.approx(res["upper"], abs=1e-12)

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

    # finite entries whose sums leave float range: the total of x, phi of an
    # entry (1e300 ** 2) and the phi-sum (1e308 * log2(1e308) is inf)
    @pytest.mark.parametrize("doc", [
        {"x": [1e308, 1e308], "y": [1e308, 1e308], "functional": "shannon"},
        {"x": [1e300], "y": [1e300], "functional": "tsallis:2"},
        {"x": [1e308], "y": [1e308], "functional": "shannon"},
    ], ids=["total", "phi", "phi-sum"])
    def test_sums_beyond_float_range_are_invalid_input(self, capsys, tmp_path, doc):
        path = tmp_path / "hlp.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(capsys, "hlp", str(path))
        assert code == 1
        assert report["status"] == "invalid-input"


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


def _valid_argv(command):
    """The first golden case of ``command``, its input paths resolved."""
    argv = next(argv for argv in CASES.values() if argv[0] == command)
    return [str(GOLDEN.parent / a) if a.startswith("inputs/") else a for a in argv]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags])
def test_unread_flag_is_one_invalid_input_line(capsys, command, flag):
    code = main([*_valid_argv(command), flag, "5"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1
    assert captured.err == ""
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert lines[0] == dumps_canonical(report)
    assert report["status"] == "invalid-input"
    assert f"unrecognized arguments: {flag} 5" in report["results"]["error"]


def test_cover_reads_every_tuning_flag(capsys):
    argv = [*_valid_argv("cover"), "--budget", "100", "--seed", "4", "--tol", "0.5"]
    code, report = run_cli(capsys, *argv)
    assert code == 0
    assert report["results"]["weighted"]["sandwich"]["seed"] == 4
    assert report["results"]["equality"]["within_tol"] is True


def _argv(argv, instance_file):
    """``argv`` with each ``INSTANCE`` replaced by the instance file's path."""
    return [instance_file if a == "INSTANCE" else a for a in argv]


# argv that read alike: "=" joins a flag to its value, options may come before
# or after the positionals, and a repeated flag keeps its last value
SAME_READING = {
    "equals": (["cover", "INSTANCE", "--functional=shannon", "--mode=classical",
                "--budget=99"],
               ["cover", "INSTANCE", "--functional", "shannon", "--mode", "classical",
                "--budget", "99"]),
    "options-first": (["cover", "--mode", "classical", "--functional", "shannon", "INSTANCE"],
                      ["cover", "INSTANCE", "--functional", "shannon", "--mode", "classical"]),
    "last-wins": (["cover", "INSTANCE", "--functional", "tsallis:2", "--mode", "weighted",
                   "--functional", "shannon", "--mode=classical"],
                  ["cover", "INSTANCE", "--functional", "shannon", "--mode", "classical"]),
    "negative-value": (["cover", "INSTANCE", "--functional", "shannon", "--budget", "-5"],
                       ["cover", "INSTANCE", "--functional", "shannon", "--budget=-5"]),
}


@pytest.mark.parametrize("case", SAME_READING)
def test_argument_forms_give_the_same_report(capsys, instance_file, case):
    first, second = SAME_READING[case]
    assert main(_argv(first, instance_file)) == main(_argv(second, instance_file))
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == out[1]


# bad command lines, each with its error: argparse's wording
BAD_ARGV = {
    "no-value": (["cover", "INSTANCE", "--functional", "shannon", "--mode"],
                 "argument --mode: expected one argument"),
    "bad-choice": (["cover", "INSTANCE", "--functional", "shannon", "--mode", "x"],
                   "argument --mode: invalid choice: 'x' (choose from 'classical', 'weighted', "
                   "'both')"),
    "missing-flag": (["partition", "INSTANCE", "--blocks", "[[0, 1, 2]]"],
                     "the following arguments are required: --functional"),
    "missing-all": (["disjointify"],
                    "the following arguments are required: instance, division, --functional"),
    "extra-positional": (["cover", "INSTANCE", "INSTANCE", "--functional", "shannon"],
                         "unrecognized arguments: INSTANCE"),
    "prefix": (["cover", "INSTANCE", "--func", "shannon", "--functional", "shannon"],
               "unrecognized arguments: --func shannon"),
    "unknown-option-first": (["cover", "--frob", "INSTANCE", "--functional", "shannon"],
                             "unrecognized arguments: --frob"),
    "unknown-command": (["frob"], "argument command: invalid choice: 'frob' (choose from "
                        "'partition', 'cover', 'mixture', 'hlp', 'disjointify', 'selftest')"),
    "empty": ([], "the following arguments are required: command"),
}


@pytest.mark.parametrize("case", BAD_ARGV)
def test_bad_argv_is_one_invalid_input_line(capsys, instance_file, case):
    argv, error = BAD_ARGV[case]
    code = main(_argv(argv, instance_file))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    [line] = captured.out.splitlines()
    report = json.loads(line)
    assert line == dumps_canonical(report)
    assert report["status"] == "invalid-input"
    assert report["results"]["error"] == error.replace("INSTANCE", instance_file)
    assert report["command"] == (argv[0] if case not in ("unknown-command", "empty") else "")
    assert report["instance_digest"] == ""


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["cover", "--help"],
                                  ["partition", "INSTANCE", "-h"]])
def test_help_names_every_subcommand(capsys, instance_file, argv):
    assert main(_argv(argv, instance_file)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("usage: coverentropy")
    commands = {line.split()[0] for line in lines[1:]}
    assert commands == {"partition", "cover", "mixture", "hlp", "disjointify", "selftest"}


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

    def test_generators_draw_the_pinned_stdlib_stream(self):
        # the selftest seeds a random.Random per property with a str, the tests
        # with an int; a Python whose random module draws differently fails here
        import random

        from coverentropy.measure import instance_dict
        from coverentropy.selftest import random_instance

        assert instance_dict(*random_instance(random.Random(1))) == {
            "n": 3, "mu": [0.18690951630637503, 0.4342032253746781, 0.37888725831894693],
            "cover": [[1, 2], [0]]}
        assert instance_dict(*random_instance(random.Random("1:0"))) == {
            "n": 7, "mu": [0.04795870138494865, 0.1356421834749445, 0.2247718945748016,
                           0.08327547172238199, 0.07544578890796669, 0.4066385607822237,
                           0.02626739915273291],
            "cover": [[1, 5, 6], [0, 3, 4, 5, 6], [0, 1, 2, 4, 6], [1, 3, 4], [1, 4, 6]]}

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


def run_fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``argv``; this process
    has loaded every module already."""
    src = str(Path(coverentropy.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True).stdout


# the modules no child loads: numpy, dataclasses with inspect, which it
# loads, and argparse with gettext and locale, which it loads
UNLOADED = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")
NONE_LOADED = ["False"] * len(UNLOADED)

# a child that runs cli.main on its arguments and prints the exit code and
# whether each module of UNLOADED got loaded
CLI_CHILD = (
    "import contextlib, io, sys\n"
    "from coverentropy.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    f"print(code, *(m in sys.modules for m in {UNLOADED}))\n"
)

# the same for the grid check of a built-in functional: 0 when it passes
STRUCTURE_CHILD = (
    "import sys\n"
    "from coverentropy import check_structure, shannon\n"
    "print(int(not check_structure(shannon()).passed),\n"
    f"      *(m in sys.modules for m in {UNLOADED}))\n"
)


# CLI_CHILD, then the package modules the child loaded and whether it loaded
# OpenSSL's _hashlib (the digest uses the built-in sha256)
GRAPH_CHILD = CLI_CHILD + (
    "print(*sorted(m for m in sys.modules if m.startswith('coverentropy.')),\n"
    "      '_hashlib' in sys.modules)\n"
)

_BASE = {"cli", "errors", "functionals", "measure"}
_CLASSICAL = _BASE | {"classical", "_kernels"}

#: The package modules of each subcommand's child, inputs from tests/golden/inputs,
#: and its exit code: the search loads once an input has, and each probe, weighted
#: or mixture module only where the subcommand runs it.
IMPORT_GRAPH = {
    "partition": (["partition", "s1-0-instance.json", "--functional", "renyi:2",
                   "--blocks", "[[0, 1, 2, 3], [4, 5, 6, 7]]"], 0, _CLASSICAL),
    "cover-classical": (["cover", "s1-0-instance.json", "--functional", "shannon",
                         "--mode", "classical"], 0, _CLASSICAL),
    "cover": (["cover", "s1-0-instance.json", "--functional", "shannon", "--samples", "5"],
              0, _CLASSICAL | {"weighted"}),
    "mixture": (["mixture", "s1-1-mixture.json"], 0, _CLASSICAL | {"mixture"}),
    "hlp": (["hlp", "s1-0-hlp.json"], 0, _BASE | {"probes"}),
    "disjointify": (["disjointify", "s1-0-instance.json", "s1-0-division.json",
                     "--functional", "tsallis:0.5"], 0, _CLASSICAL | {"weighted"}),
    "selftest": (["selftest", "--scale", "quick"], 0,
                 _CLASSICAL | {"weighted", "mixture", "probes", "selftest"}),
    "missing-cover": (["cover", "missing-cover.json", "--functional", "shannon"], 1, _BASE),
    "nan-mass": (["cover", "nan-instance.json", "--functional", "shannon"], 1, _BASE),
}


class TestLazyImports:
    @pytest.mark.parametrize("case", IMPORT_GRAPH)
    def test_each_subcommand_loads_exactly_its_modules(self, case):
        argv, code, modules = IMPORT_GRAPH[case]
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
        status, graph = run_fresh(GRAPH_CHILD, *argv).splitlines()
        assert status.split() == [str(code), *NONE_LOADED]
        assert graph.split() == [*sorted(f"coverentropy.{m}" for m in modules), "False"]

    def test_bare_import_loads_no_submodule(self):
        code = ("import sys, coverentropy\n"
                "print(sum(m.startswith('coverentropy.') for m in sys.modules),\n"
                "      coverentropy._kernels.BACKEND)\n")
        assert run_fresh(code).split() == ["0", _kernels.BACKEND]

    def test_cli_import_leaves_weighted_mixture_and_selftest_unloaded(self):
        # and every module of UNLOADED; loaded modules are listed before any
        # name of __all__ is resolved, and a name that does not resolve fails
        # the child
        code = (
            "import sys, coverentropy.cli, coverentropy\n"
            "print(' '.join(m for m in sys.modules if m.startswith('coverentropy.')\n"
            f"               or m in {UNLOADED}))\n"
            "[getattr(coverentropy, name) for name in coverentropy.__all__]\n"
        )
        loaded = set(run_fresh(code).split())
        assert "coverentropy.cli" in loaded
        assert not loaded & {"coverentropy.selftest", "coverentropy.mixture",
                             "coverentropy.weighted", *UNLOADED}

    @pytest.mark.parametrize("case", ["cover-classical", "partition", "hlp",
                                      "nan-literal", "missing-cover", "check-structure"])
    def test_classical_commands_never_load_numpy(self, tmp_path, case):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(INSTANCE))
        hlp = tmp_path / "hlp.json"
        hlp.write_text(json.dumps({"x": [0.5, 0.5], "y": [0.7, 0.3], "functional": "shannon"}))
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps({**INSTANCE, "mu": [math.nan, 0.5, 0.5]}))
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"n": 3, "mu": INSTANCE["mu"]}))
        argv, expected = {
            "cover-classical": (["cover", str(instance), "--functional", "shannon",
                                 "--mode", "classical"], 0),
            "partition": (["partition", str(instance), "--functional", "tsallis:2",
                           "--blocks", "[[0, 1], [2]]"], 0),
            "hlp": (["hlp", str(hlp)], 0),
            "nan-literal": (["cover", str(nan), "--functional", "shannon"], 1),
            "missing-cover": (["cover", str(missing), "--functional", "shannon",
                               "--mode", "classical"], 1),
            "check-structure": ([], 0),
        }[case]
        child = STRUCTURE_CHILD if case == "check-structure" else CLI_CHILD
        assert run_fresh(child, *argv).split() == [str(expected), *NONE_LOADED]

    @pytest.mark.parametrize("case", ["mixture", "mixture-renyi", "disjointify",
                                      "cover-weighted", "cover-both",
                                      "cover-both-sampled", "cover-weighted-sampled",
                                      "nan-literal", "selftest"])
    def test_weighted_and_mixture_commands_never_load_numpy(self, tmp_path, case):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(INSTANCE))
        mixture = tmp_path / "mixture.json"
        mixture.write_text(json.dumps(MIXTURE))
        renyi = tmp_path / "renyi.json"
        renyi.write_text(json.dumps({
            "n": 3, "coefficients": [0.25, 0.75], "measures": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
            "cover": [[0, 1], [1, 2]], "functional": "renyi:2"}))
        division = tmp_path / "division.json"
        division.write_text(json.dumps(DIVISION))
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps({**INSTANCE, "mu": [math.nan, 0.5, 0.5]}))
        argv, expected = {
            "mixture": (["mixture", str(mixture)], 0),
            # a Renyi functional too; exit code 0 means status ok
            "mixture-renyi": (["mixture", str(renyi)], 0),
            "disjointify": (["disjointify", str(instance), str(division),
                             "--functional", "shannon"], 0),
            "cover-weighted": (["cover", str(instance), "--functional", "shannon",
                                "--mode", "weighted", "--samples", "0"], 0),
            "cover-both": (["cover", str(instance), "--functional", "shannon",
                            "--mode", "both", "--samples", "0"], 0),
            # the default --samples 100 draws with the standard library
            "cover-both-sampled": (["cover", str(instance), "--functional", "shannon"], 0),
            "cover-weighted-sampled": (["cover", str(instance), "--functional", "shannon",
                                        "--mode", "weighted", "--samples", "1"], 0),
            # the benchmark's invalid input: a NaN literal under --mode both
            "nan-literal": (["cover", str(nan), "--functional", "shannon", "--mode", "both",
                             "--samples", "100"], 1),
            # every property draws from random.Random
            "selftest": (["selftest", "--scale", "quick", "--seed", "3"], 0),
        }[case]
        assert run_fresh(CLI_CHILD, *argv).split() == [str(expected), *NONE_LOADED]

    def test_weighted_and_mixture_imports_leave_numpy_unloaded(self):
        code = ("import sys, coverentropy.weighted, coverentropy.mixture\n"
                "print('numpy' in sys.modules)\n")
        assert run_fresh(code).split() == ["False"]

    def test_division_rows_load_numpy(self):
        # the control: the child does see numpy when the dense view is read
        code = ("import sys\n"
                "from coverentropy import DiscreteSpace, Measure, SetFamily, random_division\n"
                "space = DiscreteSpace(2)\n"
                "mu = Measure(space, [0.5, 0.5], probability=True)\n"
                "rows = random_division(mu, SetFamily.of(space, [[0, 1], [1]]), seed=0).rows\n"
                "print(rows.shape, 'numpy' in sys.modules)\n")
        assert run_fresh(code).split() == ["(2,", "2)", "True"]

    def test_every_exported_name_resolves(self):
        from coverentropy import mixture, weighted

        for name in coverentropy.__all__:
            assert getattr(coverentropy, name) is not None
        assert coverentropy.cover_entropy_weighted is weighted.cover_entropy_weighted
        assert coverentropy.MixtureSpec is mixture.MixtureSpec
        assert coverentropy.hlp_compare is coverentropy.probes.hlp_compare
        assert set(coverentropy.__all__) <= set(dir(coverentropy))
        with pytest.raises(AttributeError):
            coverentropy.no_such_name


# cli.main in an isolated interpreter: -I drops PYTHONPATH and the user
# site, -S the site-packages where numpy lives, and numpy is marked
# unimportable too, as in an install without the numpy extra; the first
# argument is the source directory to put on sys.path
NO_NUMPY_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv.pop(1))\n"
    "sys.modules['numpy'] = None\n"
    "from coverentropy.cli import main\n"
    "raise SystemExit(main(sys.argv[1:]))\n"
)

WITHOUT_NUMPY = {
    "partition": ["partition", "s1-0-instance.json", "--functional", "renyi:2",
                  "--blocks", "[[0, 1, 2, 3], [4, 5, 6, 7]]"],
    "cover": ["cover", "s1-0-instance.json", "--functional", "shannon"],
    "mixture": ["mixture", "s1-1-mixture.json"],
    "hlp": ["hlp", "s1-0-hlp.json"],
    "disjointify": ["disjointify", "s1-0-instance.json", "s1-0-division.json",
                    "--functional", "tsallis:0.5"],
    "selftest": ["selftest", "--scale", "quick"],
}


@pytest.mark.parametrize("argv", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY.keys())
def test_every_subcommand_runs_without_numpy(argv):
    src = str(Path(coverentropy.__file__).resolve().parent.parent)
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", NO_NUMPY_CHILD, src, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    [line] = proc.stdout.splitlines()
    assert dumps_canonical(json.loads(line)) == line and json.loads(line)["status"] == "ok"


def test_weighted_name_leaves_mixture_unloaded():
    # a fresh interpreter; a weighted name loads weighted, not mixture
    code = (
        "import sys, coverentropy\n"
        "coverentropy.WeightedDivision\n"
        "print('coverentropy.mixture' in sys.modules)\n"
        "print(set(coverentropy.__all__) | {'mixture', 'selftest', 'weighted'}\n"
        "      <= set(dir(coverentropy)))\n"
    )
    assert run_fresh(code).split() == ["False", "True"]
