import errno
import hashlib
import io
import json
import resource
import signal
import types

import numpy as np
import pytest

from conftest import sign_fraction
from orthofrac import cli, designs, search
from orthofrac.catalog import CATALOG
from orthofrac.cli import main
from orthofrac.designs import design_keys, full_factorial
from reference import save_design_csv


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


def test_out_replaces_a_longer_file_and_accepts_devices(tmp_path, capsys):
    argv = ["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2"]
    path = tmp_path / "designs.txt"
    path.write_text("x" * 1000 + "\n")
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_text() == "[0, 3, 5, 6]\n[1, 2, 4, 7]\n# count: 2\n"
    assert main([*argv, "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out == f"2 designs -> {path}\n2 designs -> /dev/null\n"


def test_out_cut_at_the_new_text_when_a_write_fails(tmp_path, monkeypatch, capsys):
    # A disk that fills after one line: the command fails (exit 2), and the
    # file holds that line alone, with no stale designs or count line of the
    # longer file it overwrote.
    path = tmp_path / "designs.txt"
    path.write_text("[0, 3, 5, 6]\n" * 50 + "# count: 50\n")

    def full_disk(keys, fh):
        fh.write("[1, 2, 4, 7]\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "write_design_keys", full_disk)
    argv = ["enumerate", "--levels", "2,2,2", "--size", "4", "--strength", "2", "--out", str(path)]
    assert main(argv) == 2
    assert path.read_text() == "[1, 2, 4, 7]\n"
    assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")


def test_out_cut_at_the_bytes_written_when_the_kernel_refuses_a_write(tmp_path, capsys):
    # Past the file-size limit the kernel writes up to it and then refuses
    # (EFBIG), and flushing the rest fails again, so the file must be cut at
    # the bytes that got through: the first `limit` bytes of the new text,
    # with no tail of the longer file it overwrote.
    argv = ["enumerate", "--levels", "2,2,2,3", "--size", "12", "--strength", "2"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    limit = 1024
    assert len(text) > limit
    path = tmp_path / "designs.txt"
    path.write_text("# stale\n" * 1000)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        code = main([*argv, "--out", str(path)])
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert code == 2
    assert capsys.readouterr() == ("", "error: [Errno 27] File too large\n")
    assert path.read_text() == text[:limit]


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
    # Removed options are unknown arguments.
    for option in ("--workers", "--oracle-ceiling"):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--levels", "2,2", "--size", "2", "--strength", "1", option, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 2" in capsys.readouterr().err


def test_enumerate_oracle_ceiling_exit_3(capsys):
    code = main(
        ["enumerate", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2", "--oracle"]
    )
    assert code == 3
    assert "ceiling" in capsys.readouterr().err


def test_enumerate_design_ceiling_exit_3(monkeypatch, capsys, tmp_path):
    # The join counts the designs before any is built; past the key budget
    # nothing is written and one error line names it.  The flagship's top
    # level is charged 1,083,660 bytes (35,200 one-word designs at 24 bytes,
    # 3,109 join rows at 72, 222 candidates at 56, 129 slice keys at 20),
    # so one byte less refuses it.
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 1083660 - 1)
    path = tmp_path / "designs.txt"
    code = main(["enumerate", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2", "--out", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: at least 35200 designs exceed the key budget of 1083659 bytes for this ambient\n"
    assert not path.exists()


def test_enumerate_strength_zero_ceiling_exit_3(monkeypatch, capsys):
    # 2^4 at strength 1 slices into strength-0 candidates of the 8-run 2^3
    # sub-ambient: all C(8, 4) = 70 subsets, charged 16 W + 8 = 24 bytes
    # each, one more than a budget of 69 * 24 bytes admits.  The refusal is
    # one error line, before any join.
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 69 * 24)
    code = main(["enumerate", "--levels", "2,2,2,2", "--size", "8", "--strength", "1"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: C(8,4) = 70 subsets exceed the key budget of 1656 bytes for this ambient\n"


def test_refused_enumerate_piped_into_classify_exits_2(monkeypatch, capsys):
    # enumerate | classify, in process: a refused enumerate writes no line,
    # and classify refuses an input of no line at all instead of reporting
    # 0 designs in 0 classes.
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 69 * 24)
    assert main(["enumerate", "--levels", "2,2,2,2", "--size", "8", "--strength", "1"]) == 3
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["classify", "--levels", "2,2,2,2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the design list is empty: not even a '# count' line\n"


def test_verify_huge_level_power_exit_3(capsys):
    # 3^(10^7) would take 2.4 MB, more than designs._CHUNK_BYTES: refused
    # before it is formed, with one error line.
    code = main(["verify", "--levels", "4,2", "--size", "4", "--strength", "1", "--indicator", "x1^10000000"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: x^10000000 on levels of up to 2 bits exceeds the 1048576-byte budget of a level power\n"


def test_classify_group_table_budget_exit_3(monkeypatch, capsys, tmp_path):
    # The 2^3 group has 3! * 2^3 = 48 elements, a 48 x 8 uint8 table of
    # 384 bytes.  One byte less of budget refuses it before it is built, and
    # before generate_group lists a single level permutation.
    from orthofrac import classify
    from orthofrac.classify import generate_group, run_perm_table

    assert isinstance(classify, types.ModuleType)
    amb = full_factorial([2, 2, 2])
    for cached in (generate_group, run_perm_table):
        cached.cache_clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 48 * 8 * 1)
    assert len(generate_group(amb)) == 48
    for cached in (generate_group, run_perm_table):
        cached.cache_clear()
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 48 * 8 * 1 - 1)
    listed = []
    real_level_perms = classify._level_perms
    monkeypatch.setattr(classify, "_level_perms", lambda ambient: listed.append(ambient) or real_level_perms(ambient))
    with pytest.raises(search.ProblemTooLargeError, match="48 x 8 uint8"):
        generate_group(amb)
    assert listed == []
    design_file = tmp_path / "one.txt"
    design_file.write_text("[0, 3, 5, 6]\n")
    assert main(["classify", "--levels", "2,2,2", "--designs", str(design_file)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the symmetry group has 48 elements; its 48 x 8 uint8 run-permutation "
        "table exceeds the 383-byte budget\n"
    )


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

    # A list of no designs still holds its count line; a file with no line
    # at all is what a failed enumerate leaves, and is refused.
    none = tmp_path / "none.txt"
    none.write_text("# count: 0\n")
    assert main(["classify", "--levels", "2,2,2", "--designs", str(none)]) == 0
    assert "0 designs in 0 classes" in capsys.readouterr().out

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["classify", "--levels", "2,2,2", "--designs", str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["\n\n", " \t\n  \n"])
def test_classify_refuses_blank_stdin(monkeypatch, capsys, text):
    # printf '\n\n' | orthofrac classify: blank lines are no design list.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["classify", "--levels", "2,2,2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the design list is empty: not even a '# count' line\n"


def test_classify_names_a_repeated_design(monkeypatch, capsys):
    # Fractions are sets: a design read twice is refused with its runs (exit 2).
    monkeypatch.setattr("sys.stdin", io.StringIO("[0, 1]\n[0, 1]\n"))
    assert main(["classify", "--levels", "2,2"]) == 2
    assert capsys.readouterr() == ("", "error: designs must be pairwise distinct: [0, 1] appears more than once\n")


def test_classify_count_line_alone_on_stdin_is_no_designs(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n# count: 0\n"))
    assert main(["classify", "--levels", "2,2,2"]) == 0
    assert "0 designs in 0 classes" in capsys.readouterr().out


@pytest.mark.parametrize("route", ["file", "stdin"])
def test_classify_names_the_line_of_invalid_utf8(route, monkeypatch, capsys, tmp_path):
    # The design file is read as bytes, from a file or from stdin, and a
    # byte that is not UTF-8 is refused with its line number (exit 2): in a
    # design line, which sends its chunk line by line, and in a "#" line of
    # a chunk that is otherwise canonical and read in bulk.
    cases = [
        (b"[0, 3, 5, 6]\n[1, 2, \xff4, 7]\n# count: 2\n", "byte 0xff in position 7: invalid start byte"),
        (b"[0, 3, 5, 6]\n# \xe9t\xe9\n[1, 2, 4, 7]\n# count: 2\n",
         "byte 0xe9 in position 2: invalid continuation byte"),
    ]
    for data, message in cases:
        argv = ["classify", "--levels", "2,2,2"]
        if route == "file":
            path = tmp_path / "designs.txt"
            path.write_bytes(data)
            argv += ["--designs", str(path)]
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: line 2: 'utf-8' codec can't decode {message}\n"


def _note(read, report):
    return (
        f"note: {read} designs read, {report['total_designs']} in the orbits of their "
        f"{report['class_count']} classes: the input is not closed under the symmetry group\n"
    )


def test_classify_notes_designs_read_against_orbit_sizes(tmp_path, capsys):
    # The report counts whole orbits.  Fewer designs read than that adds one
    # note on stderr; stdout and the exit code stay those of the report.
    def run_classify(levels, path, *fmt):
        code = main(["classify", "--levels", levels, "--designs", str(path), *fmt])
        out, err = capsys.readouterr()
        return code, out, err

    # The 576 designs of 4^3 read as designs of 2^6, which also has 64 runs.
    probe = tmp_path / "4x3.txt"
    assert main(["enumerate", "--levels", "4,4,4", "--size", "16", "--strength", "2", "--out", str(probe)]) == 0
    capsys.readouterr()
    code, out, err = run_classify("2,2,2,2,2,2", probe, "--format", "json")
    report = json.loads(out)
    assert (code, report["class_count"], report["total_designs"]) == (0, 7, 3780)
    assert err == _note(576, report)
    code, out, err = run_classify("2,2,2,2,2,2", probe)
    assert (code, out.splitlines()[0], err) == (0, "576 designs in 7 classes", _note(576, report))

    flagship = tmp_path / "flagship.txt"
    assert main(["enumerate", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2", "--out", str(flagship)]) == 0
    capsys.readouterr()
    # A hand-picked subset is legitimate input: exit 0, with the note.
    subset = tmp_path / "subset.txt"
    subset.write_text("".join(flagship.read_text().splitlines(keepends=True)[:-1:3520]))
    code, out, err = run_classify("2,2,2,2,3", subset, "--format", "json")
    report = json.loads(out)
    assert code == 0 and "catalog_check" not in report
    assert err == _note(10, report)
    # The complete file reads every design of its orbits: no note.
    code, out, err = run_classify("2,2,2,2,3", flagship)
    assert (code, out.splitlines()[0], err) == (0, "35200 designs in 63 classes", "")


@pytest.fixture
def classify_flagship(monkeypatch, capsys, flagship_designs, flagship_classes):
    """`orthofrac classify --levels 2,2,2,2,3 [args]` on the flagship design
    list, whose keys and classes are those of the session's fixtures:
    returns (exit code, stdout, stderr)."""
    keys = design_keys(flagship_designs, 48)
    monkeypatch.setattr(cli, "read_design_keys", lambda fh, ambient: keys)
    monkeypatch.setattr(cli, "classify_keys", lambda ambient, read: flagship_classes)

    def run(*args):
        code = main(["classify", "--levels", "2,2,2,2,3", *args])
        out, err = capsys.readouterr()
        return code, out, err

    return run


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_flagship_text_report_is_pinned(classify_flagship):
    # The report of `enumerate | classify`, with the table and the catalog check.
    code, out, err = classify_flagship()
    assert (code, err) == (0, "")
    assert _sha256(out) == "072aaa6176e5b46a5725176dca24874a34b32c3d4fa2ccc24c8ac50e4873a41d"


def test_text_report_without_table_is_pinned(tmp_path, capsys):
    # Off the flagship ambient classes carry no invariants: no table, no catalog check.
    designs = tmp_path / "designs.txt"
    args = ["--levels", "2,2,2,3", "--size", "12", "--strength", "2"]
    assert main(["enumerate", *args, "--out", str(designs)]) == 0
    capsys.readouterr()
    assert main(["classify", "--levels", "2,2,2,3", "--designs", str(designs)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out) == "abf841ef49e66030aaa4cab12d820e51c9a2cbbfa9e7eb5069185ad443a3bf31"


def test_catalog_check_failure_exits_1(classify_flagship, monkeypatch):
    problems = ["expected 63 classes, got 62", "some classes matched no catalog entry"]
    monkeypatch.setattr(cli, "cross_check_classes", lambda classes: list(problems))
    code, out, err = classify_flagship()
    assert (code, err) == (1, "")
    assert out.endswith("\n\ncatalog check: FAIL\n" + "".join(f"  {problem}\n" for problem in problems))
    code, out, err = classify_flagship("--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["catalog_check"] == {"pass": False, "problems": problems}


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
        def verify(self, keys, size, strength):
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
        def verify(self, keys, size, strength):
            return np.zeros(len(keys), dtype=bool)

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
    # A zero denominator is a parse error, not an internal one (exit 6).
    assert (
        main(["verify", "--levels", "2,2", "--size", "2", "--strength", "1",
              "--indicator", "1/0 + x1"])
        == 2
    )
    assert "'1/0'" in capsys.readouterr().err


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
