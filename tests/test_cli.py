"""Command line behavior: output text, exit codes and files."""

import json

import pytest

from rschur import ComputedNumber, cli, formula_value, min_n_weak
from rschur.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormula:
    def test_rainbow_value(self, capsys):
        code, out, _ = run(capsys, "formula", "--m", "4", "--n", "100")
        assert code == 0
        assert "RS_4(100) = 53" in out
        assert "method: formula" in out

    def test_three_term_value(self, capsys):
        code, out, _ = run(capsys, "formula", "--m", "3", "--n", "8")
        assert code == 0
        assert "RS_3(8) = 5" in out

    def test_weak_constant_band(self, capsys):
        code, out, _ = run(capsys, "formula", "--m", "5", "--t", "2", "--n", "6")
        assert code == 0
        assert "RS_{2,5}(6) = 2" in out

    def test_below_constant_band(self, capsys):
        code, out, _ = run(capsys, "formula", "--m", "5", "--t", "2", "--n", "4")
        assert code == 0
        assert "RS_{2,5}(4) = 4" in out
        assert "formula: max(2, 2m - 2 - n)" in out

    def test_t2_below_least_n_is_domain_error(self, capsys):
        code, out, err = run(capsys, "formula", "--m", "6", "--t", "2", "--n", "3")
        assert code == 2
        assert out == ""
        assert "domain error: n must be at least t(t-1)/2 + m - t = 5, got 3" in err

    def test_small_n_is_domain_error(self, capsys):
        code, _, err = run(capsys, "formula", "--m", "4", "--n", "5")
        assert code == 2
        assert "domain error" in err

    def test_bad_m(self, capsys):
        code, _, err = run(capsys, "formula", "--m", "2", "--n", "5")
        assert code == 2


class TestDomain:
    @pytest.mark.parametrize("command", ["formula", "search", "verify", "construct", "check"])
    def test_t_above_m_is_one_line(self, capsys, tmp_path, command):
        path = tmp_path / "c.txt"
        path.write_text("1 2 3 4 5 6\n")
        rest = {"verify": ["--n-from", "6", "--n-to", "8"], "check": [str(path)]}
        argv = [command, "--m", "4", "--t", "5", *rest.get(command, ["--n", "6"])]
        assert run(capsys, *argv) == (
            2, "", "rschur: domain error: t must lie in [2, m] = [2, 4], got 5\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["solutions", "--m", "1200", "--n", "1200"],
            ["check", "--m", "1200", "ONES"],
            ["search", "--m", "1200", "--t", "2", "--n", "1200"],
        ],
    )
    def test_recursion_past_the_limit_is_one_line(self, capsys, tmp_path, argv):
        # the summand walks recurse m - 1 deep
        path = tmp_path / "ones.txt"
        path.write_text("1 " * 1200)
        code, out, err = run(capsys, *[str(path) if a == "ONES" else a for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith("rschur: domain error: m = 1200 is too large")
        assert err.count("\n") == 1

    def test_formula_has_no_cap_on_m(self, capsys):
        code, out, _ = run(capsys, "formula", "--m", "1200", "--n", "719400")
        assert code == 0
        assert "RS_1200(719400) = 719400" in out


class TestUsage:
    def test_missing_required_flag(self, capsys):
        assert run(capsys, "formula", "--m", "4")[0] == 64

    def test_unknown_command(self, capsys):
        assert run(capsys, "bogus")[0] == 64

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 64

    def test_backwards_range(self, capsys):
        code, _, err = run(
            capsys, "verify", "--m", "3", "--n-from", "5", "--n-to", "3"
        )
        assert code == 64
        assert "--n-from" in err


class TestSearch:
    def test_value_and_witness(self, capsys, tmp_path):
        out_file = tmp_path / "witness.json"
        code, out, _ = run(
            capsys, "search", "--m", "4", "--n", "6", "--out", str(out_file)
        )
        assert code == 0
        assert "RS_4(6) = 6" in out
        assert "method: search" in out
        assert "witness with 5 colors: [1, 1, 2, 3, 4, 5]" in out
        assert json.loads(out_file.read_text()) == {
            "colors": [1, 1, 2, 3, 4, 5],
            "n": 6,
        }

    def test_undefined_instance(self, capsys):
        code, out, _ = run(capsys, "search", "--m", "4", "--n", "5")
        assert code == 0
        assert "undefined" in out

    def test_below_constant_band(self, capsys):
        code, out, err = run(capsys, "search", "--m", "6", "--t", "2", "--n", "6")
        assert code == 0
        assert "RS_{2,6}(6) = 4" in out
        assert err == ""

    def test_node_budget_flag(self, capsys):
        code, _, err = run(
            capsys, "search", "--m", "3", "--n", "12", "--max-nodes", "5"
        )
        assert code == 3
        assert "nodes explored" in err

    @pytest.mark.parametrize("limit", ["0", "nan"])
    def test_time_limit_must_be_positive(self, capsys, limit):
        code, _, err = run(
            capsys, "search", "--m", "3", "--n", "20", "--time-limit", limit
        )
        assert code == 2
        assert "time_limit must be positive" in err

    def test_unwritable_out_exits_73(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "witness.json"
        code, _, err = run(capsys, "search", "--m", "4", "--n", "6", "--out", str(out_file))
        assert code == 73
        assert err == f"rschur: cannot write {out_file}: No such file or directory\n"


class TestVerify:
    def test_tsv_table(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m", "4", "--n-from", "6", "--n-to", "9"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == [
            "m", "t", "n", "formula", "search", "agree", "nodes", "millis",
        ]
        assert len(lines) == 5
        for line, n in zip(lines[1:], range(6, 10)):
            cells = line.split("\t")
            assert cells[:3] == ["4", "4", str(n)]
            assert cells[3] == cells[4]
            assert cells[5] == "true"

    def test_jsonl_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--m", "3", "--n-from", "3", "--n-to", "6",
            "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [row["n"] for row in rows] == [3, 4, 5, 6]
        for row in rows:
            assert row["agree"] is True
            assert sorted(row) == [
                "agree", "formula", "m", "millis", "n", "nodes", "search", "t",
            ]

    def test_rows_below_constant_band_agree(self, capsys):
        # below n = 2m - 4 the value is 2m - 2 - n
        code, out, err = run(
            capsys,
            "verify", "--m", "6", "--t", "2", "--n-from", "6", "--n-to", "8",
            "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [(row["formula"], row["search"]) for row in rows] == [(4, 4), (3, 3), (2, 2)]
        assert all(row["agree"] is True for row in rows)
        assert err == ""

    def test_rows_below_least_n_are_undefined(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m", "6", "--t", "2", "--n-from", "4", "--n-to", "5"
        )
        assert code == 0
        rows = [line.split("\t")[:6] for line in out.strip().splitlines()[1:]]
        assert rows == [["6", "2", "4", "", "", ""], ["6", "2", "5", "5", "5", "true"]]

    def test_budget_exhaustion_yields_exit_three(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--m", "3", "--n-from", "12", "--n-to", "12",
            "--max-nodes", "5",
        )
        assert code == 3
        row = out.strip().splitlines()[1].split("\t")
        assert row[4] == ""  # no search value recorded

    def test_undefined_search_on_a_defined_row_exits_three(self, capsys, monkeypatch):
        # the search and the formula share one domain, so this takes a stub
        monkeypatch.setattr(cli, "search_rs", lambda *args: ComputedNumber(None, None, 0))
        code, out, _ = run(capsys, "verify", "--m", "4", "--n-from", "6", "--n-to", "6")
        assert code == 3
        assert out.splitlines()[1].split("\t")[3:6] == ["6", "", ""]


class TestConstruct:
    def test_rainbow_document_on_stdout(self, capsys):
        code, out, err = run(capsys, "construct", "--m", "4", "--n", "10")
        assert code == 0
        assert json.loads(out) == {
            "colors": [1, 1, 1, 1, 2, 3, 4, 5, 6, 7],
            "n": 10,
        }
        assert "colors used: 7 (one below RS_4(10) = 8)" in err
        assert "block [1, 4]" in err

    def test_weak_construction(self, capsys):
        code, out, _ = run(capsys, "construct", "--m", "4", "--t", "3", "--n", "10")
        assert code == 0
        assert json.loads(out)["colors"] == [1, 1, 1, 1, 1, 1, 1, 1, 2, 3]

    def test_written_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "coloring.json"
        code, out, _ = run(
            capsys, "construct", "--m", "5", "--n", "12", "--out", str(out_file)
        )
        assert code == 0
        assert f"coloring written to {out_file}" in out
        assert json.loads(out_file.read_text())["n"] == 12

    def test_unwritable_out_exits_73(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "coloring.json"
        code, out, err = run(capsys, "construct", "--m", "4", "--n", "10", "--out", str(out_file))
        assert code == 73
        assert out == ""
        assert err == f"rschur: cannot write {out_file}: No such file or directory\n"

    def test_domain_error(self, capsys):
        assert run(capsys, "construct", "--m", "4", "--n", "5")[0] == 2
        code, _, err = run(capsys, "construct", "--m", "6", "--t", "2", "--n", "4")
        assert code == 2
        assert "n must be at least" in err

    def test_two_color_class_with_a_hole(self, capsys):
        code, out, err = run(capsys, "construct", "--m", "6", "--t", "2", "--n", "6")
        assert code == 0
        assert json.loads(out)["colors"] == [1, 1, 2, 3, 1, 1]
        assert "classes: [1, 2] u [5, 6] plus singletons 3..4" in err
        assert "colors used: 3 (one below RS_{2,6}(6) = 4)" in err

    def test_two_adic_coloring(self, capsys):
        code, out, err = run(capsys, "construct", "--m", "3", "--n", "10")
        assert code == 0
        assert json.loads(out)["colors"] == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2]
        assert "classes: {1, 3, ..., 9}, {2, 6, 10} plus singletons 4, 8" in err
        assert "colors used: 4 (one below RS_3(10) = 5)" in err

    @pytest.mark.parametrize("m", range(3, 7))
    def test_check_confirms_every_construction(self, capsys, tmp_path, m):
        out_file = tmp_path / "coloring.json"
        for t in range(2, m + 1):
            for n in range(min_n_weak(t, m), 2 * m + 6):
                value = formula_value(m, n, t)
                flags = ("--m", str(m), "--t", str(t))
                code, _, _ = run(capsys, "construct", *flags, "--n", str(n), "--out", str(out_file))
                assert code == 0
                code, out, _ = run(capsys, "check", *flags, str(out_file))
                assert code == 1, (m, t, n)
                assert f"colors used: {value - 1}\n" in out


class TestCheck:
    def test_spread_free_coloring(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1 1 2 3 1 1\n")
        code, out, _ = run(capsys, "check", "--m", "6", "--t", "2", str(path))
        assert code == 1
        assert "n: 6" in out
        assert "colors used: 3" in out
        assert "surplus integers: 3" in out
        assert "max colors over solutions: 1" in out
        assert "no solution shows >= 2 distinct colors" in out

    def test_rainbow_found(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n": 6, "colors": [1, 2, 3, 4, 5, 6]}')
        code, out, _ = run(capsys, "check", "--m", "4", str(path))
        assert code == 0
        assert "max colors over solutions: 4" in out
        assert "witness with >= 4 colors: 1 + 2 + 3 = 6" in out

    def test_garbage_file(self, capsys, tmp_path):
        # a row of non-integers, and a JSON document cut short
        for text, reason in [
            ("definitely not a coloring\n", "labels must be integers"),
            ('{"colors": [1, 1, 2, 3], "n": 4', "invalid JSON"),
        ]:
            path = tmp_path / "c.txt"
            path.write_text(text)
            code, out, err = run(capsys, "check", "--m", "4", str(path))
            assert (code, out) == (65, "")
            assert err.startswith(f"rschur: parse error: {reason}: ")
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1 2\n")
        code, out, err = run(capsys, "check", "--m", "4", str(path))
        assert (code, out) == (65, "")
        assert err == (
            f"rschur: parse error: {path} is not UTF-8 text (invalid start byte at byte 0)\n"
        )

    @pytest.mark.parametrize(
        "text", ['{"n": 6, "colors": [1, 1, 2, 3, 1, 1]}', "1 1 2 3 1 1\n"], ids=["json", "row"]
    )
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        code, out, err = run(capsys, "check", "--m", "6", "--t", "2", str(plain))
        assert (code, out.splitlines()) == (1, [
            "n: 6",
            "colors used: 3",
            "surplus integers: 3",
            "max colors over solutions: 1",
            "no solution shows >= 2 distinct colors",
        ])
        assert run(capsys, "check", "--m", "6", "--t", "2", str(marked)) == (code, out, err)

    def test_missing_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent")
        code, _, err = run(capsys, "check", "--m", "4", path)
        assert code == 66
        assert err == f"rschur: cannot read {path}: No such file or directory\n"


class TestSolutions:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "solutions", "--m", "3", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1 + 1 = 2", "1 + 2 = 3", "count: 2"]

    def test_distinct_only(self, capsys):
        code, out, _ = run(capsys, "solutions", "--m", "4", "--n", "6", "--distinct")
        assert code == 0
        assert out.splitlines() == ["1 + 2 + 3 = 6", "count: 1"]

    def test_empty_interval(self, capsys):
        code, out, _ = run(capsys, "solutions", "--m", "5", "--n", "3")
        assert code == 0
        assert out.strip() == "count: 0"
