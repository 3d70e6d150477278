import json
import os
import pathlib
import subprocess
import sys

import pytest

from mask_oracle import reference_sweep_rows
from mfl import cli, permcomb, suites, tableaux, theoremsets
from mfl.cli import main, parse_permutation
from mfl.quadideal import classify_oracle
from mfl.suites import SuiteReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_binomial_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4", "--ell", "2", "--w", "3214")
        assert code == 0
        assert "verdict: binomial" in out
        assert "generator: P_1*P_23 + P_3*P_12" in out

    def test_zero_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4", "--ell", "0", "--w", "1234")
        assert code == 0
        assert "verdict: zero" in out

    def test_nonbinomial_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3", "--ell", "1", "--w", "231")
        assert code == 0
        assert "verdict: nonbinomial" in out
        assert "monomial: P_2*P_13" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "classify", "--n", "4", "--ell", "2",
            "--w", "3214",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "mfl/1"
        assert obj["verdict"] == "binomial"
        assert obj["combinatorial_class"] == "T"
        assert obj["in_pattern_family"] is True

    def check_bad_w(self, capsys, w, message):
        for command in ("classify", "ideal", "tableaux"):
            code, out, err = run(capsys, command, "--n", "4", "--ell", "2", "--w", w)
            assert (code, out) == (2, ""), command
            assert err == f"error: {message}\n", command

    def test_malformed_w_exits_2(self, capsys):
        for w, message in (
            ("32x4", "malformed permutation string: '32x4'"),
            ("0123", "not a permutation of [4]: (0, 1, 2, 3)"),
            ("1123", "not a permutation of [4]: (1, 1, 2, 3)"),
            ("", "empty permutation string"),
            # an empty field between, before or after the commas
            ("1,,2,3", "malformed permutation string: '1,,2,3'"),
            (",1,2,3", "malformed permutation string: ',1,2,3'"),
            ("1,2,3,", "malformed permutation string: '1,2,3,'"),
            ("3,x,1,2", "malformed permutation string: '3,x,1,2'"),
        ):
            self.check_bad_w(capsys, w, message)

    def test_wrong_length_exits_2(self, capsys):
        for w, message in (
            ("321", "permutation '321' has length 3, expected 4"),
            (" 321", "permutation ' 321' has length 3, expected 4"),
            (",".join(map(str, range(1, 18))), "permutation length must be in 1..16, got 17"),
        ):
            self.check_bad_w(capsys, w, message)

    def test_out_of_range_ell_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "4", "--ell", "4", "--w", "3214")
        assert code == 2

    def test_oracle_bound_exits_2(self, capsys):
        code, _, err = run(
            capsys, "classify", "--n", "8", "--ell", "0", "--w", "12345678"
        )
        assert code == 2


class TestTables:
    def test_table2(self, capsys):
        code, out, _ = run(capsys, "tables", "table2", "--n-max", "5")
        assert code == 0
        assert out.startswith("n,ell,binomial_count,zero_count,nonbinomial_count\n")
        assert "5,2,24,8,88" in out
        assert "# total n=5: 144 (reference prints 114" in out

    def test_table2_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "tables", "table2", "--n-max", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["diffs"] == []
        assert obj["totals"]["4"] == 30

    def test_table2_oracle_disagreement_exits_1(self, capsys, monkeypatch):
        # empty the binomial families at n = 4 only: the oracle disagrees
        original = theoremsets.family_masks

        def emptied(n, ell):
            masks = original(n, ell)
            return masks._replace(binomial=0) if n == 4 else masks

        monkeypatch.setattr(theoremsets, "family_masks", emptied)
        code, out, err = run(capsys, "tables", "table2", "--n-max", "4")
        assert code == 1
        assert "4,0,0,5,19" in out
        assert err.splitlines()[0] == (
            "mismatch at (n=4, ell=0): families give binomial=0, zero=5; "
            "the oracle gives binomial=9, zero=5"
        )
        assert len(err.splitlines()) == 4
        code, out, _ = run(capsys, "--format", "json", "tables", "table2", "--n-max", "4")
        assert code == 1
        rows = json.loads(out)["rows"]
        assert rows[3] == {"n": 4, "ell": 0, "binomial_count": 0, "zero_count": 5,
                           "nonbinomial_count": 19, "oracle_counts": [9, 5]}
        assert "oracle_counts" not in rows[0]

    def test_table1(self, capsys):
        code, out, _ = run(capsys, "tables", "table1")
        assert code == 0
        assert "toric 4/2: 1342 1432 3214 3241 4231 4321" in out
        assert "ideal 2/321" in out

    @pytest.mark.parametrize("n_max", ["3", "4", "8"])
    def test_table1_rejects_n_max(self, capsys, n_max):
        code, out, err = run(capsys, "tables", "table1", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == (
            "error: table1 is fixed at n = 3 and 4; "
            "--n-max applies to table2 and zn\n"
        )

    def test_zn(self, capsys):
        code, out, _ = run(capsys, "zn", "--n-max", "15")
        assert code == 0
        assert "3,123" in out
        assert "# |Z_15| = 987" in out

    def test_zn_size_mismatch_exits_1(self, capsys, monkeypatch):
        # n = 7 has no golden listing, so only the size check can see this
        original = permcomb.zero_family

        def short(n):
            members = original(n)
            return members - {min(members)} if n == 7 else members

        monkeypatch.setattr(permcomb, "zero_family", short)
        code, out, _ = run(capsys, "zn", "--n-max", "8")
        assert code == 1
        assert "# |Z_7| = 21" in out
        code, out, _ = run(capsys, "--format", "json", "zn", "--n-max", "8")
        assert code == 1
        assert json.loads(out)["diffs"] == [["size", 7]]

    @pytest.mark.parametrize("n_max", ["0", "2", "-1"])
    def test_n_max_below_three_exits_2(self, capsys, n_max):
        for argv in (["tables", "table2"], ["tables", "zn"], ["zn"]):
            code, out, err = run(capsys, *argv, "--n-max", n_max)
            assert (code, out) == (2, ""), argv
            assert err == f"error: --n-max must be at least 3, got {n_max}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_zn_n_max_above_max_n_exits_2(self, capsys, monkeypatch, fmt):
        # the bound of verify --n-max, checked before any output
        code, out, _ = run(capsys, "--format", fmt, "zn", "--n-max", "16")
        assert code == 0 and "1597" in out  # |Z_16|

        def must_not_run(n):
            raise AssertionError(f"zero_family({n}) called")

        monkeypatch.setattr(permcomb, "zero_family", must_not_run)
        for argv in (["tables", "zn"], ["zn"]):
            code, out, err = run(capsys, "--format", fmt, *argv, "--n-max", "17")
            assert (code, out) == (2, ""), argv
            assert err == "error: --n-max must be at most 16, got 17\n"


class TestIdeal:
    def test_unrestricted_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "ideal", "--n", "4", "--ell", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "binomial"
        assert len(obj["generators"]) == 10

    def test_restricted_text(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "--n", "4", "--ell", "2", "--w", "3214"
        )
        assert code == 0
        assert out.strip() == "P_1*P_23 + P_3*P_12"

    @pytest.mark.parametrize("n, message", [
        ("-1", "classification needs n >= 3, got -1"),
        ("20", "oracle bound is n <= 7, got n = 20"),
    ])
    def test_bad_n_without_w_names_n(self, capsys, n, message):
        # checked before the default word w_0 is built from n
        code, out, err = run(capsys, "ideal", "--n", n, "--ell", "0")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_all_pairs_flag(self, capsys):
        code_a, out_a, _ = run(capsys, "--format", "json", "ideal", "--n", "4", "--ell", "0")
        code_b, out_b, _ = run(
            capsys, "--all-pairs", "--format", "json", "ideal", "--n", "4", "--ell", "0"
        )
        assert code_a == code_b == 0
        assert len(json.loads(out_b)["generators"]) >= len(json.loads(out_a)["generators"])


class TestTableaux:
    def test_json_listing(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "tableaux", "--n", "3", "--ell", "1",
            "--w", "321",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["tableaux"]) == 20
        assert all("image" in t for t in obj["tableaux"])

    def test_json_pins_columns_and_image(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "tableaux", "--n", "4", "--ell", "2"
        )
        assert code == 0
        (entry,) = [t for t in json.loads(out)["tableaux"]
                    if t["columns"] == [["1", "3", "4"], ["2"]]]
        assert entry["image"] == [["3", "1", "4"], ["2"]]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_json_listing_matches_one_dump(self, capsys, n):
        # the streamed listing is what one json.dumps of the whole object prints
        identity = "".join(map(str, range(1, n + 1)))
        top = identity[::-1]
        for flags in ([], ["--ell", "0"], ["--ell", str(n - 1)], ["--w", identity],
                      ["--w", top], ["--ell", "1", "--w", top]):
            code, out, _ = run(capsys, "--format", "json", "tableaux", "--n", str(n), *flags)
            assert code == 0, flags
            obj = json.loads(out)
            assert obj["tableaux"], flags
            cli._emit_json(obj)
            assert out == capsys.readouterr().out, flags

    def test_json_listing_of_no_items(self, capsys):
        obj = {"ell": None, "n": 3, "schema": cli.SCHEMA}
        cli._emit_json_listing(obj, "tableaux", iter(()))
        streamed = capsys.readouterr().out
        cli._emit_json(dict(obj, tableaux=[]))
        assert streamed == capsys.readouterr().out

    def test_json_listing_streams(self, capsys, monkeypatch):
        # the first entry reaches stdout before the enumeration ends; the
        # command imports enumerate_ssyt2 from the tableaux layer when it runs
        seen = []
        real = tableaux.enumerate_ssyt2

        def enumerate_ssyt2(n, w):
            items = real(n, w)
            yield next(items)
            seen.append(capsys.readouterr().out)
            yield from items

        monkeypatch.setattr(tableaux, "enumerate_ssyt2", enumerate_ssyt2)
        code, out, _ = run(capsys, "--format", "json", "tableaux", "--n", "3")
        assert code == 0
        (head,) = seen
        assert head.startswith('{\n  "ell": null,\n  "n": 3,\n  "schema": "mfl/1",\n'
                               '  "tableaux": [\n    {\n      "columns": [')
        assert len(json.loads(head + out)["tableaux"]) == 20

    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "tableaux", "--n", "3", "--w", "123")
        assert code == 0
        assert "1 | 1" in out

    def test_listing_streams(self, capsys):
        # the listing walks the lazy enumeration and keeps no tuple of it
        tableaux._level.cache_clear()
        code, out, _ = run(capsys, "tableaux", "--n", "4")
        assert code == 0 and out
        assert tableaux._level.cache_info().currsize == 0

    def test_closed_stdout_ends_quietly(self):
        src = pathlib.Path(cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "mfl.cli", "tableaux", "--n", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    @pytest.mark.parametrize("ell", ["9", "-1"])
    def test_out_of_range_ell_exits_2(self, capsys, ell):
        code, out, err = run(capsys, "tableaux", "--n", "4", "--ell", ell)
        assert code == 2
        assert out == ""
        assert err == f"error: ell must be in 0..3, got {ell}\n"
        _, _, classify_err = run(
            capsys, "classify", "--n", "4", "--ell", ell, "--w", "1234"
        )
        assert classify_err == err

    def test_n_below_two_exits_2(self, capsys):
        code, out, err = run(capsys, "tableaux", "--n", "1")
        assert code == 2
        assert out == ""
        assert err == "error: tableaux need n >= 2, got 1\n"

    def test_n_above_max_exits_2(self, capsys):
        code, out, err = run(capsys, "tableaux", "--n", "17")
        assert code == 2
        assert out == ""
        assert err == "error: n must be at most 16, got 17\n"


class TestVerify:
    def test_coherence_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coherence", "--n-max", "5")
        assert code == 0
        assert out.startswith("PASS coherence")

    def test_mismatch_w_is_a_digit_string(self, capsys, monkeypatch):
        # empty the zero family at n = 4: theoremB reports every member of
        # Z_4, with w serialized as in every other suite
        original = theoremsets.family_masks

        def emptied(n, ell):
            masks = original(n, ell)
            return masks._replace(zero=0) if n == 4 else masks

        monkeypatch.setattr(theoremsets, "family_masks", emptied)
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--suite", "theoremB",
            "--n-max", "4",
        )
        assert code == 1
        mismatches = json.loads(out)["mismatches"]
        assert len(mismatches) == 4 * 5
        assert {m["w"] for m in mismatches} == {"1234", "1243", "1324", "2134", "2143"}
        assert mismatches[0] == {"n": 4, "ell": 0, "w": "1234", "verdict": "zero"}

    def test_theorem_b_suite_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--suite", "theoremB",
            "--n-max", "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["mismatches"] == []

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--suite", "bogus")
        assert exc.value.code == 2

    def test_negative_la_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "--la-cap", "-1", "verify", "--suite", "coherence")
        assert code == 2
        assert out == ""
        assert err == "error: --la-cap must be at least 0, got -1\n"

    def test_la_cap_reaches_suite_not_environment(self, capsys, monkeypatch):
        seen = []

        def fake_run_suite(name, n_max=None, cap=None):
            seen.append(cap)
            return SuiteReport(name)

        # cmd_verify imports run_suite from the suites layer when it runs
        monkeypatch.setattr(suites, "run_suite", fake_run_suite)
        environ = dict(os.environ)
        code, _, _ = run(capsys, "--la-cap", "6", "verify", "--suite", "theoremA")
        assert code == 0
        assert seen == [6]
        assert dict(os.environ) == environ

    def test_la_cap_flag_exits_2(self, capsys):
        code, _, err = run(
            capsys, "--la-cap", "3", "verify", "--suite", "theoremA", "--n-max", "4"
        )
        assert code == 2
        assert "cap" in err

    def test_small_la_cap_refuses_suite_all_before_any_suite(self, capsys, monkeypatch):
        # theoremA runs fifth in --suite all, at its default n_max 4
        ran = []
        monkeypatch.setitem(suites._RUNNERS, "coherence", lambda: ran.append(1))
        code, out, err = run(capsys, "--la-cap", "3", "verify", "--suite", "all")
        assert (code, out, ran) == (2, "", [])
        assert err == (
            "error: --suite all runs theoremA to n = 4 (its default range), past the"
            " linear-algebra cap 3; use --la-cap 4 or more\n"
        )

    def test_la_cap_not_oracle_bound_gates_theorem_a(self, capsys):
        # n = 8 is past the oracle bound (n <= 7): the la-cap message, not
        # the oracle bound's, stops the run
        code, out, err = run(
            capsys, "--la-cap", "7", "verify", "--suite", "theoremA", "--n-max", "8"
        )
        assert (code, out) == (2, "")
        assert err == "error: n_max 8 exceeds the linear-algebra cap 7\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", suite, "--n-max", n_max]
        for suite in ("theoremB", "theoremC", "P") for n_max in ("8", "9")
    ] + [
        [*fmt, "tables", "table2", "--n-max", n_max]
        for fmt in ([], ["--format", "json"]) for n_max in ("8", "9")
    ], ids=" ".join)
    def test_oracle_bound_refused_before_any_work(self, capsys, monkeypatch, argv):
        # the first n past the bound is named, as when the sweep reached it
        def fail(n, ell, *args, **kwargs):
            raise AssertionError(f"masks of ({n}, {ell}) built")

        # the suites read the verdict masks through cross_validate only, and
        # import family_masks from theoremsets when they run
        monkeypatch.setattr(theoremsets, "verdict_masks", fail)
        monkeypatch.setattr(theoremsets, "family_masks", fail)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: oracle bound is n <= 7, got n = 8\n"

    @pytest.mark.parametrize("n_max", ["3", "99"])
    def test_all_rejects_n_max(self, capsys, n_max):
        code, out, err = run(capsys, "verify", "--suite", "all", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == (
            "error: --n-max applies to a single suite; "
            "--suite all runs each at its default range\n"
        )

    @pytest.mark.parametrize("n_max", ["0", "2", "-1"])
    def test_n_max_below_three_exits_2(self, capsys, n_max):
        code, out, err = run(capsys, "verify", "--suite", "theoremB", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == f"error: --n-max must be at least 3, got {n_max}\n"

    @pytest.mark.parametrize("n_max", ["17", "40"])
    def test_n_max_above_max_n_exits_2(self, capsys, monkeypatch, n_max):
        # refused before any suite (and its 2^n_max-entry tables) runs
        def must_not_run(*args, **kwargs):
            raise AssertionError("suite ran")

        monkeypatch.setattr(suites, "run_suite", must_not_run)
        code, out, err = run(capsys, "verify", "--suite", "coherence", "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == f"error: --n-max must be at most 16, got {n_max}\n"


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "3", "--ell", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,ell,w,verdict,class,tags"
        assert "3,1,231,nonbinomial,N," in lines
        assert "3,1,321,binomial,T,base" in lines
        assert len(lines) == 7

    def test_all_ells(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 18

    def test_jobs_flag_is_gone(self, capsys):
        # argparse rejects the flag's value as the command, or the flag itself
        for argv, message in (
            (["--jobs", "2", "sweep", "--n", "3"], "invalid choice: '2'"),
            (["--jobs=2", "sweep", "--n", "3"], "unrecognized arguments: --jobs=2"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            assert exc.value.code == 2
            assert captured.out == ""
            assert message in captured.err

    def test_bad_n_and_ell_exit_2(self, capsys):
        for n in ("2", "1", "0", "-1"):
            for fmt in ("text", "json"):
                code, out, err = run(capsys, "--format", fmt, "sweep", "--n", n)
                assert (code, out) == (2, ""), (n, fmt)
                assert err == f"error: families are defined for n >= 3, got {n}\n"
        code, out, err = run(capsys, "sweep", "--n", "4", "--ell", "9")
        assert (code, out) == (2, "")
        assert err == "error: ell must be in 0..3, got 9\n"
        # the cut is checked before the oracle bound, as the families did
        code, out, err = run(capsys, "sweep", "--n", "8", "--ell", "9")
        assert (code, out) == (2, "")
        assert err == "error: ell must be in 0..7, got 9\n"

    @pytest.mark.parametrize("n, ell", [(n, ell) for n in range(3, 8) for ell in range(n)])
    def test_rows_match_per_w_reference(self, n, ell):
        assert cli._sweep_rows(n, ell) == reference_sweep_rows(n, ell)

    def test_n8_exits_2_before_families(self, capsys, monkeypatch):
        def family_masks(n, ell):
            raise AssertionError(f"family_masks({n}, {ell}) called")

        monkeypatch.setattr(theoremsets, "family_masks", family_masks)
        for argv in (["sweep", "--n", "8"], ["--format", "json", "sweep", "--n", "8", "--ell", "3"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "error: oracle bound is n <= 7, got n = 8\n"

    def test_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "4")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            n, ell, w, verdict, _, _ = line.split(",", 5)
            outcome = classify_oracle(int(n), int(ell), parse_permutation(w, int(n)))
            assert outcome.verdict == verdict, line
