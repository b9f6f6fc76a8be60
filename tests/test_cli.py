"""Command-line interface: output formats, exit codes, golden files."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_surgery import cli, verification
from torus_surgery.verification import IdentityReport, ClaimResult

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestH1:
    def test_human_line(self, capsys):
        code, out, _ = run(capsys, "h1", "--k", "0,5,1,1")
        assert code == 0
        assert out == (
            "H1 = Z^3 + Z/5; b1 = 3; b2 <= 18; b3 <= 32; euler = 0; "
            "non-Kahler: yes; product-obstructed: yes\n"
        )

    def test_trivial_line(self, capsys):
        code, out, _ = run(capsys, "h1", "--k", "0,0,0,0")
        assert code == 0
        assert "H1 = Z^6" in out
        assert "non-Kahler: no" in out
        assert "product-obstructed: unknown" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "h1", "--k", "0,5,1,1", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["h1"] == {"rank": 3, "torsion": [5]}
        assert document["bound_b2"] == 18

    def test_tau_flag(self, capsys):
        code, out, _ = run(
            capsys, "h1", "--k", "2,0,0,0", "--tau", "1:1,1,0,1", "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["relations"][0] == [0, 2, 2, 0, 0, 0]

    def test_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "descriptor.json"
        path.write_text(
            json.dumps(
                {
                    "surgeries": [
                        {"k": k, "tau": [[1, 0], [0, 1]]}
                        for k in (0, 5, 1, 1)
                    ]
                }
            )
        )
        code, out, _ = run(capsys, "h1", "--descriptor", str(path))
        assert code == 0
        assert "Z^3 + Z/5" in out


class TestInputErrors:
    def test_malformed_k(self, capsys):
        code, _, err = run(capsys, "h1", "--k", "1,2")
        assert code == 2
        assert "error:" in err

    def test_non_integer_k(self, capsys):
        code, _, err = run(capsys, "h1", "--k", "1,2,three,4")
        assert code == 2

    def test_non_unimodular_tau(self, capsys):
        code, _, err = run(
            capsys, "h1", "--k", "1,1,1,1", "--tau", "1:2,0,0,2"
        )
        assert code == 2
        assert "determinant" in err

    @pytest.mark.parametrize("flags", [("--k", "9,9,9,9"), ("--tau", "1:1,1,0,1")])
    def test_descriptor_with_k_or_tau(self, capsys, flags):
        # Checked before the file is read: neither flag may be ignored.
        path = str(GOLDEN / "missing.json")
        code, out, err = run(capsys, "h1", "--descriptor", path, *flags)
        assert (code, out) == (2, "")
        assert err == "error: --descriptor cannot be combined with --k or --tau\n"

    def test_missing_descriptor_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "h1", "--descriptor", str(tmp_path / "missing.json")
        )
        assert code == 2

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "h1")
        assert code == 2

    def test_bad_verify_k(self, capsys):
        code, _, err = run(capsys, "verify-forms", "--k", "pi")
        assert code == 2

    def test_bad_realize_target(self, capsys):
        code, _, err = run(capsys, "realize", "--d", "1,2,3,-4")
        assert code == 2

    def test_repeated_tau_slot(self, capsys):
        code, out, err = run(
            capsys, "h1", "--k", "1,2,3,4", "--tau", "1:1,0,0,1", "--tau", "1:1,1,0,1"
        )
        assert (code, out, err) == (2, "", "error: --tau gives slot 1 twice\n")

    @pytest.mark.parametrize("argv", [
        ("h1", "--descriptor"),
        ("sweep", "--k-min", "0", "--k-max", "0", "--tau-file"),
        ("sweep", "--k-min", "0", "--k-max", "0", "--out"),
    ])
    def test_path_with_newline_is_quoted(self, capsys, tmp_path, argv):
        path = str(tmp_path / "missing" / "no\nerror: such")
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert repr(path) in err


class TestAsciiIntegers:
    """An integer flag takes an optional sign and ASCII digits only; other
    scripts' digits, spaces and underscores, all of which ``int()`` would
    read, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("h1", "--k=\u0663,1,1,1"),
            ("h1", "--k=\uff11,2,3,4"),
            ("h1", "--k= 1,2,3,4"),
            ("h1", "--k=1_0,2,3,4"),
            ("h1", "--k=1,2,3,4", "--tau=\u0661:1,0,0,1"),
            ("h1", "--k=1,2,3,4", "--tau=1:\u0661,0,0,1"),
            ("realize", "--d=\u0663,1,1,1"),
            ("verify-forms", "--k=\u0663"),
            ("verify-forms", "--tau=\u0661,0,0,1"),
            ("sweep", "--k-min=\u0660", "--k-max=0"),
            ("sweep", "--k-min=0", "--k-max=\u0660"),
            ("sweep", "--k-min=0", "--k-max=0", "--slot=\u0661"),
            ("sweep", "--k-min=0", "--k-max=0", "--slot=1", "--base-k=\u0660,0,0,0"),
        ],
        ids=repr,
    )
    def test_non_ascii_digits_exit_2(self, argv):
        code, err = run_quiet(*argv)
        assert code == 2
        assert [line for line in err.splitlines() if "error: " in line] == [err.splitlines()[-1]]

    @pytest.mark.parametrize(
        "text, value", [("7", 7), ("+7", 7), ("-7", -7), ("-0", 0), ("007", 7)]
    )
    def test_sign_and_ascii_digits(self, text, value):
        assert cli.integer(text) == value

    @pytest.mark.parametrize("text", ["", "+", "--1", "1.0", "1e3", "7\n", "\u0667"])
    def test_anything_else_refused(self, text):
        with pytest.raises(ValueError):
            cli.integer(text)


class TestStrictDescriptorInput:
    """Descriptor and tau files take JSON integers only: no bool, float or
    string is coerced, and nothing escapes as a traceback."""

    def assert_rejected(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "k, tau",
        [
            ("2.7", "[[1, 0], [0, 1]]"),
            ("true", "[[1, 0], [0, 1]]"),
            ('"3"', "[[1, 0], [0, 1]]"),
            ("1e400", "[[1, 0], [0, 1]]"),
            ("0", "[[1.0, 0], [0, 1]]"),
        ],
        ids=["float-k", "bool-k", "string-k", "overflowing-k", "float-tau"],
    )
    def test_non_integer_descriptor_entry(self, capsys, tmp_path, k, tau):
        identity = '{"k": 0, "tau": [[1, 0], [0, 1]]}'
        path = tmp_path / "descriptor.json"
        path.write_text(
            f'{{"surgeries": [{{"k": {k}, "tau": {tau}}}, '
            f"{identity}, {identity}, {identity}]}}"
        )
        self.assert_rejected(capsys, "report", "--json", "--descriptor", str(path))

    def test_tau_file_not_a_list(self, capsys, tmp_path):
        path = tmp_path / "taus.json"
        path.write_text("5")
        self.assert_rejected(
            capsys, "sweep", "--k-min", "0", "--k-max", "0",
            "--tau-file", str(path),
        )

    def test_deeply_nested_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "descriptor.json"
        path.write_text("[" * 100000)
        code, out, err = run(capsys, "h1", "--descriptor", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad descriptor file {str(path)!r}: ")
        assert "Traceback" not in err

    def test_deeply_nested_tau_file(self, capsys, tmp_path):
        path = tmp_path / "taus.json"
        path.write_text("[" * 100000)
        code, out, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "0",
            "--tau-file", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad tau file {str(path)!r}: ")
        assert "Traceback" not in err

    def test_repeated_tau_rejected(self, capsys, tmp_path):
        # A repeat would count every descriptor through it again.
        path = tmp_path / "taus.json"
        path.write_text(json.dumps([[[1, 0], [0, 1]], [[1, 0], [0, 1]]]))
        code, out, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "0",
            "--tau-file", str(path),
        )
        assert (code, out, err) == (2, "", "error: tau entry 1 repeats entry 0\n")


class TestReportAndRealize:
    def test_report_prints_relations(self, capsys):
        code, out, _ = run(capsys, "report", "--k", "1,2,3,4")
        assert code == 0
        assert "relations:" in out

    def test_realize(self, capsys):
        code, out, _ = run(capsys, "realize", "--d", "0,5,1,1", "--json")
        assert code == 0
        document = json.loads(out)
        assert document["report"]["h1"] == {"rank": 3, "torsion": [5]}
        ks = [s["k"] for s in document["descriptor"]["surgeries"]]
        assert ks == [0, 5, 1, 1]


class TestVerifyForms:
    def test_concrete_k_passes(self, capsys):
        code, out, _ = run(capsys, "verify-forms", "--k", "2")
        assert code == 0
        assert "[FAIL]" not in out
        assert "[PASS]" in out

    def test_negative_controls(self, capsys):
        code, out, _ = run(
            capsys, "verify-forms", "--k", "2", "--negative-controls", "--json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        controls = document["negative_controls"]
        assert set(controls) == {"alpha-sign-flip", "dropped-quadratic-term"}
        assert all(not c["passed"] for c in controls.values())

    def test_failure_exits_one(self, capsys, monkeypatch):
        broken = IdentityReport(
            "gluing-form-interpolation",
            [ClaimResult("forced failure", False, "residual-term")],
        )
        monkeypatch.setattr(
            verification, "check_lemma2", lambda k: broken
        )
        code, out, _ = run(capsys, "verify-forms", "--k", "2")
        assert code == 1
        assert "[FAIL]" in out
        assert "residual-term" in out

    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, "verify-forms", "--k", "2", "--json")
        assert code == 0
        assert out == (GOLDEN / "verify_forms_k2.json").read_text()

    @pytest.mark.parametrize(
        "name, k, tau",
        [
            ("verify_forms_symbolic_tau", "symbolic", "2,3,1,2"),
            # concrete k: residuals with k's value folded into integer
            # coefficients, and the positivity control's reduced minor
            ("verify_forms_concrete_tau", "-7", "13,8,21,13"),
        ],
        ids=["symbolic", "concrete"],
    )
    def test_golden_twist_json(self, capsys, name, k, tau):
        code, out, _ = run(
            capsys, "verify-forms", f"--k={k}", f"--tau={tau}",
            "--negative-controls", "--json",
        )
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()


class TestLemma6:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "lemma6")
        assert code == 0
        assert "rank: 10" in out
        assert "cokernel rank: 6" in out
        assert "b1 = 6, b2 = 17" in out

    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, "lemma6", "--json")
        assert code == 0
        assert out == (GOLDEN / "lemma6.json").read_text()
        document = json.loads(out)
        assert document["passed"] is True
        assert document["certificate"]["invariant_factors"] == [1] * 10


class TestSweep:
    def test_binary_grid_counts(self, capsys):
        code, out, err = run(capsys, "sweep", "--k-min", "0", "--k-max", "1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        counts = {line["b1"]: line["count"] for line in lines}
        assert counts == {6: 1, 5: 4, 4: 6, 3: 4, 2: 1}
        assert "classes: 5" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.jsonl"
        code, out, _ = run(
            capsys,
            "sweep",
            "--k-min", "2", "--k-max", "4",
            "--slot", "1",
            "--base-k", "0,1,1,1",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 3
        assert {tuple(line["h1"]["torsion"]) for line in lines} == {
            (2,), (3,), (4,)
        }

    def test_tau_file(self, capsys, tmp_path):
        path = tmp_path / "taus.json"
        path.write_text(json.dumps([[[1, 0], [0, 1]], [[1, 1], [0, 1]]]))
        code, out, _ = run(
            capsys,
            "sweep",
            "--k-min", "1", "--k-max", "1",
            "--slot", "1",
            "--tau-file", str(path),
        )
        assert code == 0
        assert out.strip()

    def test_empty_range(self, capsys):
        code, out, err = run(capsys, "sweep", "--k-min", "1", "--k-max", "0")
        assert code == 0
        assert out == ""
        assert "classes: 0" in err

    def test_unwritable_out_file(self, capsys, tmp_path):
        path = tmp_path / "missing" / "sweep.jsonl"
        code, out, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "0", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {str(path)!r}: ")
        assert "Traceback" not in err

    def test_base_k_without_slot(self, capsys):
        # With no --slot every slot varies, so --base-k would be ignored.
        code, out, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "1", "--base-k", "5,5,5,5"
        )
        assert (code, out) == (2, "")
        assert err == "error: --base-k needs --slot: with no --slot every slot varies\n"

    def test_short_base_k_names_its_flag(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "1", "--slot", "1", "--base-k", "1,2"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --base-k")

    def test_bad_base_k_with_an_empty_range(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--k-min", "1", "--k-max", "0", "--slot", "1",
            "--base-k", "garbage",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --base-k")

    def test_grid_over_the_limit_exits_before_running(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep should not start")

        monkeypatch.setattr(cli.surgery, "sweep", no_sweep)
        code, out, err = run(capsys, "sweep", "--k-min", "0", "--k-max", "100")
        assert code == 2
        assert out == ""
        assert err == "error: sweep grid has 104060401 descriptors, limit 10000000\n"

    def test_grid_limit_counts_twists(self, capsys, tmp_path):
        # 57 twists give 57^4 = 10,556,001 descriptors even for one k value.
        path = tmp_path / "taus.json"
        path.write_text(json.dumps([[[1, q], [0, 1]] for q in range(57)]))
        code, _, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "0",
            "--tau-file", str(path),
        )
        assert code == 2
        assert err.startswith("error: sweep grid has 10556001 descriptors")

    def test_range_longer_than_maxsize_is_refused(self, capsys):
        code, out, err = run(
            capsys, "sweep",
            "--k-min=-100000000000000000000", "--k-max=100000000000000000000",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: sweep grid has ")
        assert err.endswith(" descriptors, limit 10000000\n")
        assert "Traceback" not in err

    def test_single_slot_grid_under_the_limit_runs(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "100", "--slot", "2"
        )
        assert code == 0
        assert err.startswith("classes: ")

    def test_bad_tau_file(self, capsys, tmp_path):
        path = tmp_path / "taus.json"
        path.write_text(json.dumps([[[2, 0], [0, 2]]]))
        code, _, err = run(
            capsys, "sweep", "--k-min", "0", "--k-max", "0",
            "--tau-file", str(path),
        )
        assert code == 2


class TestSweepGolden:
    """Sweep stdout and stderr over three twists, byte for byte."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("sweep_grid", ("--k-min", "-1", "--k-max", "1")),
            (
                "sweep_slot2",
                ("--k-min", "0", "--k-max", "6", "--slot", "2",
                 "--base-k", "1,2,3,4"),
            ),
        ],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    def test_golden_output(self, capsys, tmp_path, name, argv, to_file):
        path = tmp_path / "classes.jsonl"
        code, out, err = run(
            capsys, "sweep", *argv, "--tau-file", str(GOLDEN / "sweep_taus.json"),
            *(("--out", str(path)) if to_file else ()),
        )
        assert code == 0
        expected = (GOLDEN / f"{name}.stdout").read_bytes()
        if to_file:
            assert out == ""
            assert path.read_bytes() == expected
        else:
            assert out.encode() == expected
        assert err == (GOLDEN / f"{name}.stderr").read_text()


class TestClosedStdout:
    """A stdout whose reader is gone exits 2 with one error line, for a
    command that prints little and for one that streams its output."""

    @pytest.mark.parametrize(
        "argv",
        [("lemma6",), ("h1", "--k=1,2,3,4"), ("sweep", "--k-min", "0", "--k-max", "3")],
        ids=" ".join,
    )
    def test_exits_two(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        # Block-buffered, as in a shell pipe, so output waits for a flush.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            result = subprocess.run(
                [sys.executable, "-m", "torus_surgery.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write stdout: ")
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr


class TestDeterminism:
    def test_lemma6_byte_identical(self, capsys):
        _, first, _ = run(capsys, "lemma6", "--json")
        _, second, _ = run(capsys, "lemma6", "--json")
        assert first == second

    def test_verify_forms_byte_identical(self, capsys):
        args = ("verify-forms", "--k", "2", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


# -- fuzzing the parsers: any argv gives exit 0, 1 or 2, never a traceback -

# Comma-joined fields that are often integers, so that well-formed and
# nearly well-formed values come up as well as arbitrary text.
FIELDS = st.lists(
    st.one_of(st.integers(-50, 50).map(str), st.text(max_size=4)), max_size=6
).map(",".join)
# Decimal digits of every script, which int() would read as integers.
DIGITS = st.text(st.characters(categories=("Nd",)), min_size=1, max_size=3)
FLAG_TEXT = st.one_of(
    st.text(max_size=20),
    FIELDS,
    st.lists(DIGITS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(("1,2,3,4", "0,-1,1,0", "2,3,1,2", "1:2,3,1,2")),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)
SURGERY = st.fixed_dictionaries(
    {
        "k": st.integers(-9, 9) | JSON_VALUE,
        "tau": st.just([[1, 0], [0, 1]]) | JSON_VALUE,
    }
)
DESCRIPTOR_TEXT = st.one_of(
    st.text(max_size=30),
    JSON_VALUE.map(json.dumps),
    st.fixed_dictionaries(
        {"surgeries": st.lists(SURGERY, min_size=3, max_size=5)}
    ).map(json.dumps),
)


def run_quiet(*argv):
    """Exit code and stderr of one CLI run; argparse's SystemExit counts
    as its exit code, any other exception escapes to the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_exit_contract(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == int(code == 2)


def flag(name, values):
    """``name`` with a drawn value, as one ``--name=value`` token or two."""
    return st.tuples(st.just(name), values, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]]
    )


def not_integer(text):
    return not re.fullmatch(r"[+-]?[0-9]+", text)


# Paths that exist, are a directory or are missing; none is a file that a
# run could overwrite, since ``--out`` is only ever given these. The last
# would print a second ``error:`` line if an error message did not quote it.
SAFE_PATHS = st.sampled_from((
    os.devnull,
    str(GOLDEN),
    str(GOLDEN / "missing" / "out"),
    str(GOLDEN / "missing" / "no\nerror: such"),
))
READ_PATHS = SAFE_PATHS | st.just(str(GOLDEN / "sweep_taus.json"))
# Only cheap valid inputs: verify-forms at k = 0, and sweep grids of at
# most 3**4 descriptors per twist or else over the limit.
VERIFY_K = st.sampled_from(("0", "-0", "+0")) | st.text(max_size=8).filter(not_integer)
SWEEP_K = st.sampled_from(("-1", "0", "1", str(10**12))) | st.text(max_size=4)
JUNK = st.one_of(
    st.text(max_size=8),
    st.sampled_from(("--", "-h", "--help", "--bogus", "--json", "-k", "--k")),
).map(lambda token: [token])
SUBCOMMAND_FLAGS = {
    "h1": [flag("--k", FLAG_TEXT), flag("--tau", FLAG_TEXT), flag("--descriptor", READ_PATHS)],
    "realize": [flag("--d", FLAG_TEXT)],
    "verify-forms": [
        flag("--k", VERIFY_K),
        flag("--tau", FLAG_TEXT),
        st.just(["--negative-controls"]),
    ],
    "lemma6": [],
    "sweep": [
        flag("--k-min", SWEEP_K),
        flag("--k-max", SWEEP_K),
        flag("--slot", FLAG_TEXT),
        flag("--base-k", FLAG_TEXT),
        flag("--tau-file", READ_PATHS),
        flag("--out", SAFE_PATHS),
    ],
}
SUBCOMMAND_FLAGS["report"] = SUBCOMMAND_FLAGS["h1"]


def argv_tail(command):
    """A few of ``command``'s flags, ``--json`` and junk, in any order."""
    token = st.one_of(*SUBCOMMAND_FLAGS[command], st.just(["--json"]), JUNK)
    return st.lists(token, max_size=6).map(lambda groups: sum(groups, []))


class TestParserFuzz:
    """Any argv or descriptor file gives exit 0, 1 or 2 without a
    traceback, and exit 2 prints exactly one ``error:`` line."""

    def test_unrecognized_argument_with_newline(self):
        # Found by test_argv: argparse echoed the path raw, on two lines.
        argv = ("report", "--", "--descriptor", "no\nerror: such")
        code, err = run_quiet(*argv)
        assert_exit_contract(code, err)
        assert code == 2 and "no\\nerror: such" in err

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_argv(self, command, data):
        argv = [command, *data.draw(argv_tail(command))]
        assert_exit_contract(*run_quiet(*argv))

    @settings(max_examples=150, deadline=None)
    @given(text=FLAG_TEXT)
    def test_verify_tau_text(self, text):
        # Parsed without running verify-forms: a valid twist would start a
        # symbolic check.
        try:
            tau = cli._parse_sl2z(text, "--tau")
        except cli.InputError as exc:
            assert str(exc).startswith("--tau")
        else:
            assert tau.p * tau.s - tau.q * tau.r == 1

    @settings(max_examples=150, deadline=None)
    @given(text=DESCRIPTOR_TEXT)
    def test_descriptor_file(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "descriptor.json"
            path.write_text(text, encoding="utf-8")
            assert_exit_contract(*run_quiet("report", "--descriptor", str(path)))
