import json

import numpy as np
import pytest

from conftest import sign_fraction
from orthofrac import cli, search
from orthofrac.catalog import CATALOG
from orthofrac.cli import main
from orthofrac.designs import full_factorial, save_design_csv


def test_enumerate_small_to_stdout(capsys):
    assert main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2"]) == 0
    out = capsys.readouterr().out
    assert out == "[0, 3, 5, 6]\n[1, 2, 4, 7]\n# count: 2\n"


def test_enumerate_to_file_and_formats(tmp_path, capsys):
    path = tmp_path / "designs.txt"
    assert (
        main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2", "--out", str(path)])
        == 0
    )
    assert path.read_text().endswith("# count: 2\n")
    assert "2 designs" in capsys.readouterr().out

    assert (
        main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2", "--format", "json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["count"] == 2
    assert payload["designs"] == [[0, 3, 5, 6], [1, 2, 4, 7]]


def test_enumerate_empty_result_is_success(capsys):
    assert main(["enumerate", "--levels", "2,2", "--size", "3", "--strength", "2"]) == 0
    assert capsys.readouterr().out == "# count: 0\n"


def test_enumerate_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--levels", "2,x", "--size", "4", "--strength", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    # size out of range is a config error reported as exit 2
    assert main(["enumerate", "--levels", "2,2", "--size", "9", "--strength", "1"]) == 2


def test_enumerate_oracle_ceiling_exit_3(capsys):
    code = main(
        ["enumerate", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2", "--oracle"]
    )
    assert code == 3
    assert "ceiling" in capsys.readouterr().err


def test_enumerate_design_ceiling_exit_3(monkeypatch, capsys, tmp_path):
    # The join counts the designs before any is built; past the ceiling
    # nothing is written and one error line names the ceiling.  A budget
    # of one 8-run int64 row puts the ceiling at 1 design.
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 8 * 8)
    path = tmp_path / "designs.txt"
    code = main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2", "--out", str(path)])
    assert code == 3
    assert capsys.readouterr().err == "error: more than 1 designs, the design ceiling for this ambient\n"
    assert not path.exists()


def test_enumerate_strength_zero_ceiling_exit_3(monkeypatch, capsys):
    # 2^4 at strength 1 slices into strength-0 candidates of the 8-run 2^3
    # sub-ambient: all C(8, 4) = 70 subsets, one more than a budget of 69
    # membership rows of 8 int64 entries admits.  The refusal is one error
    # line, before any join.
    monkeypatch.setattr(search, "_MATRIX_BUDGET", 69 * 8 * 8)
    code = main(["enumerate", "--levels", "2,2,2,2", "--size", "8", "--strength", "1"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: C(8,4) = 70 subsets exceed the design ceiling 69 for this ambient\n"


def test_classify_pipeline(tmp_path, capsys):
    designs = tmp_path / "designs.txt"
    report = tmp_path / "report.json"
    main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2", "--out", str(designs)])
    capsys.readouterr()
    assert (
        main(
            [
                "classify", "--levels", "2,2,2", "--designs", str(designs),
                "--out", str(report), "--format", "json",
            ]
        )
        == 0
    )
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert payload["class_count"] == 1
    assert payload["classes"][0]["orbit_size"] == 2
    assert payload["classes"][0]["indicator"] == "1/2 - 1/2 x1 x2 x3"


def test_classify_single_design_and_empty_file(tmp_path, capsys):
    single = tmp_path / "one.txt"
    single.write_text("[0, 3, 5, 6]\n")
    assert main(["classify", "--levels", "2,2,2", "--designs", str(single)]) == 0
    out = capsys.readouterr().out
    assert "1 designs in 1 classes" in out
    assert "orbit     2" in out

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["classify", "--levels", "2,2,2", "--designs", str(empty)]) == 0
    assert "0 designs in 0 classes" in capsys.readouterr().out


def test_classify_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("[0, 1\n")
    assert main(["classify", "--levels", "2,2,2", "--designs", str(bad)]) == 2
    # An out-of-range run index and JSON booleans are parse errors of their line.
    for text in ("[0, 1]\n[0, 99]\n", "[0, 1]\n[true, false]\n"):
        bad.write_text(text)
        assert main(["classify", "--levels", "2,2", "--designs", str(bad)]) == 2
        assert "error: line 2:" in capsys.readouterr().err


def test_enumerate_int64_overflow_exit_4(monkeypatch, capsys):
    # Every int64 path falls back to Python ints, so an OverflowError is
    # unexpected; a checker that raises one stands in for such a fault.
    class Overflowing:
        def verify(self, y, size, strength):
            raise OverflowError("int64 overflow")

    monkeypatch.setattr(search, "get_checker", lambda ambient: Overflowing())
    code = main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: int64 overflow\n"


def test_cross_check_failure_exit_5(monkeypatch, capsys):
    # A checker that rejects every design stands in for an engine fault.
    class RejectAll:
        def verify(self, y, size, strength):
            return np.zeros(len(y), dtype=bool)

    monkeypatch.setattr(search, "get_checker", lambda ambient: RejectAll())
    code = main(["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2"])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal consistency failure")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (MemoryError(), 3, "error: out of memory\n"),
        (KeyError("lost"), 6, "error: internal error (KeyError): 'lost'\n"),
        (ZeroDivisionError("two\nlines"), 6, "error: internal error (ZeroDivisionError): two lines\n"),
    ],
)
def test_uncaught_errors_exit_3_or_6(monkeypatch, capsys, exc, code, err):
    # Never Python's exit 1, which means "verification failed", and no traceback.
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", fail)
    assert main(["verify", "--levels", "2,2", "--size", "2", "--strength", "1",
                 "--indicator", "1/2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_indicator_command(tmp_path, capsys):
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 2, 3), 1)
    path = tmp_path / "design.csv"
    save_design_csv(frac, path)
    assert main(["indicator", "--levels", "2,2,2,2,3", "--design", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1/2 + 1/2 x1 x2 x3 x4"


def test_verify_command_pass_fail(capsys, tmp_path):
    ok = main(
        [
            "verify", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2",
            "--indicator", "1/2 + 1/2 x1 x2 x3 x4",
        ]
    )
    assert ok == 0
    out = capsys.readouterr().out
    assert "idempotency: PASS" in out
    assert "overall: PASS" in out

    fail = main(
        [
            "verify", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2",
            "--indicator", "1/2",
        ]
    )
    assert fail == 1
    out = capsys.readouterr().out
    assert "idempotency: FAIL" in out

    # design route: a strength-2 design fails a strength-3 verify
    amb = full_factorial([2, 2, 2, 2, 3])
    frac = sign_fraction(amb, (0, 1, 3), 1)
    path = tmp_path / "design.csv"
    save_design_csv(frac, path)
    assert (
        main(["verify", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "3",
              "--design", str(path)])
        == 1
    )
    assert (
        main(["verify", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2",
              "--design", str(path)])
        == 0
    )


def test_verify_published_misprints(capsys):
    # Both misprinted catalog originals are balanced but not indicators.
    misprints = [entry.published_text for entry in CATALOG if entry.published_text]
    assert len(misprints) == 2
    for text in misprints:
        assert main(["verify", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2",
                     "--indicator", text]) == 1
        assert capsys.readouterr().out == (
            "idempotency: FAIL\nsize: PASS\ncontrast[1]: PASS\ncontrast[2]: PASS\noverall: FAIL\n"
        )


def test_verify_indicator_file(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("1/2 + 1/2 x1 x2 x3 x4\n")
    assert (
        main(["verify", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2",
              "--indicator-file", str(path)])
        == 0
    )
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_parse_error_exit_2(capsys):
    assert (
        main(["verify", "--levels", "2,2", "--size", "2", "--strength", "1",
              "--indicator", "1/2 + garbage"])
        == 2
    )


def test_verify_json_format(capsys):
    assert (
        main(["verify", "--levels", "2,2", "--size", "2", "--strength", "1",
              "--indicator", "1/2 + 1/2 x1 x2", "--format", "json"])
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["checks"]["idempotency"] is True


def test_commands_are_idempotent(tmp_path, capsys):
    args = ["enumerate", "--levels", "2,2,3", "--size", "6", "--strength", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
