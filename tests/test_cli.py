import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelcodes import cli, codes
from abelcodes.cli import (
    EXIT_BUDGET,
    EXIT_FALSIFIED,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    MAX_BUDGET,
    MAX_THREADS,
    MIN_BUDGET,
    RunConfig,
    UsageError,
    exit_code,
    main,
    parse_budget,
    parse_group_spec,
    render_json,
    render_text,
    run,
)
from abelcodes.codes import FalsificationError, family_verification
from abelcodes.idempotents import family_pq, family_prime_power

from oracles import argparse_reference

# text stdout and exit code of thirteen commands: the first ten recorded before the
# text view was derived from the JSON report, the next two (overridden hypotheses
# that build with warnings, and that fail in construction) before the two-sided
# families shared one builder, and the last (an overridden three-prime triple)
# before the three-prime family shared the product builder
TEXT_VIEWS = json.loads((Path(__file__).parent / "data" / "text_views.json").read_text())
# sha256 of the JSON stdout and the exit code of the three perfbench workload
# commands, recorded when the translation-orbit enumeration landed
WORKLOAD_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "workload_stdout_sha256.json").read_text()
)
# sha256 of the `--idempotents --format json` stdout of seven groups: six recorded
# before the two-sided families shared one builder, and 3x11x13 before the
# three-prime family shared the product builder
IDEMPOTENT_EXPORTS = json.loads(
    (Path(__file__).parent / "data" / "idempotent_export_sha256.json").read_text()
)
# sha256 of the JSON stdout and the exit code of two analyses of orders 3375 and
# 10125, recorded before each ideal was built from its distinct translates only
LARGE_GROUP_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "large_group_stdout_sha256.json").read_text()
)
# sha256 of the JSON stdout and the exit code of the two runs whose refusals
# come from a scan: members that are not minimal ideals (3x5x13 under
# overridden hypotheses) and a scan over the scan limit (9x25 at 2^64),
# recorded before each ideal kept the refusal of its one scan
REFUSAL_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "refusal_stdout_sha256.json").read_text()
)


class TestClosedStdout:
    def test_a_closed_pipe_still_exports_and_keeps_the_exit_code(self, tmp_path, capsys):
        argv = ["9x25", "--idempotents", "--dims", "--export"]
        expected_code = main(argv + [str(tmp_path / "expected.json")])
        capsys.readouterr()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        try:
            done = subprocess.run(
                [sys.executable, "-m", "abelcodes", *argv, str(tmp_path / "out.json")],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert "Traceback" not in done.stderr
        assert done.returncode == expected_code
        exported = (tmp_path / "out.json").read_bytes()
        assert exported == (tmp_path / "expected.json").read_bytes()


class TestGroupSpecParsing:
    def test_single_integer_pq(self):
        shape = parse_group_spec("15")
        assert shape.kind == "pq"
        assert shape.factors == ((3, 1), (5, 1))

    def test_two_factor_powers(self):
        shape = parse_group_spec("9x25")
        assert shape.kind == "prime_power"
        assert shape.factors == ((3, 2), (5, 2))

    def test_caret_form(self):
        shape = parse_group_spec("3^2 x 5^1")
        assert shape.kind == "prime_power"
        assert shape.factors == ((3, 2), (5, 1))

    def test_three_primes(self):
        shape = parse_group_spec("3x5x11")
        assert shape.kind == "three_primes"
        assert shape.factors == ((3, 1), (5, 1), (11, 1))

    def test_single_integer_three_primes(self):
        assert parse_group_spec("165").kind == "three_primes"

    def test_single_integer_prime_power_pair(self):
        shape = parse_group_spec("45")
        assert shape.kind == "prime_power"
        assert shape.factors == ((3, 2), (5, 1))

    @pytest.mark.parametrize(
        "spec, factors, kind, order",
        [
            ("15", ((3, 1), (5, 1)), "pq", 15),
            ("45", ((3, 2), (5, 1)), "prime_power", 45),
            ("165", ((3, 1), (5, 1), (11, 1)), "three_primes", 165),
            ("3^2 x 5^1", ((3, 2), (5, 1)), "prime_power", 45),
            ("3x5x11", ((3, 1), (5, 1), (11, 1)), "three_primes", 165),
            ("25x3", ((5, 2), (3, 1)), "prime_power", 75),  # spec order, not sorted
            ("11x5x3", ((11, 1), (5, 1), (3, 1)), "three_primes", 165),
        ],
    )
    def test_factors_kind_and_order(self, spec, factors, kind, order):
        shape = parse_group_spec(spec)
        assert (shape.factors, shape.kind, shape.order) == (factors, kind, order)

    @pytest.mark.parametrize("bad", ["", "8", "9", "27", "4x9", "3x3", "105x2", "abc"])
    def test_rejected_specs(self, bad):
        with pytest.raises(UsageError):
            parse_group_spec(bad)


SPEC_TEXT = st.text(alphabet="0123456789^x ", max_size=14)


class TestParserFuzz:
    @settings(max_examples=400, deadline=timedelta(milliseconds=250))
    @given(SPEC_TEXT)
    def test_group_spec_returns_or_raises_usage_error(self, text):
        try:
            shape = parse_group_spec(text)
        except UsageError:
            return
        assert shape.kind in ("pq", "prime_power", "three_primes")

    @settings(max_examples=400, deadline=timedelta(milliseconds=250))
    @given(SPEC_TEXT)
    def test_budget_returns_or_raises_usage_error(self, text):
        try:
            value = parse_budget(text)
        except UsageError:
            return
        assert MIN_BUDGET <= value <= MAX_BUDGET


# command-line tokens: every flag but -h, unique and ambiguous prefixes of the
# long ones, an unknown option, and values; "=" forms and attached short values
# are built from these
FLAG_TOKENS = [flag for flag in cli._FLAGS if flag not in ("-h", "--help")]
PREFIX_TOKENS = ["--gr", "--idem", "--dim", "--dist", "--w", "--v", "--e", "--f", "--bud",
                 "--t", "--allow", "--d", "--di", "--bogus"]
VALUE_TOKENS = ["-", "-1", "-2^20", "json", "xml", "many", "15", "3x11", "9x25", "2^20", ""]
TOKENS = st.one_of(
    st.sampled_from([*FLAG_TOKENS, *PREFIX_TOKENS, *VALUE_TOKENS, "--"]),
    st.builds("{}={}".format, st.sampled_from(FLAG_TOKENS + PREFIX_TOKENS),
              st.sampled_from(VALUE_TOKENS)),
    st.builds("-g{}".format, st.sampled_from(VALUE_TOKENS)),
)


def _parsed(parse, argv):
    """What a parser makes of argv: its destinations, or the code it exits with."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code


def _reference(argv):
    return vars(argparse_reference().parse_args(argv))


def _table(argv):
    values = cli._parse_argv(argv)
    assert values.pop("help") is False
    return values


class TestCommandLineGrammar:
    @settings(max_examples=600, deadline=None)
    @example(["15", "--dist", "--budget=2^20", "--f", "json"])  # prefixes and "=" values
    @example(["-g15", "--dims"])  # a short flag with its value attached
    @example(["-g=15", "--group", "15", "--dims"])  # the last of a repeated option wins
    @example(["15", "--threads", "-1"])  # a negative number is a value
    @example(["15", "--budget", "-2^20"])  # anything else starting with "-" is not
    @example(["15", "--verify=1"])  # a flag takes no value
    @example(["15", "--d"])  # an ambiguous prefix is refused
    @example(["15", "3x11"])  # one positional only
    @example(["--", "-1"])  # "--" ends the options
    @example(["-", "--dims"])  # a lone "-" is a positional
    @given(st.lists(TOKENS, max_size=6))
    def test_the_table_parser_reads_argv_as_argparse_did(self, argv):
        reference = _parsed(_reference, argv)
        assert reference == EXIT_USAGE or isinstance(reference, dict)
        assert _parsed(_table, argv) == reference

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["--he"], ["15", "-h"], ["-h", "--threads", "many"],
         ["-hg15"], ["-hh"], ["-h=g5"], ["-h", "--bogus"], ["--budget", "-h"],
         ["--threads", "many", "-h"], ["-hg"], ["-hx"], ["-h="], ["--help=1"], ["-h", "--d"]],
    )
    def test_help_exits_where_argparse_did(self, argv, capsys):
        reference = _parsed(_reference, argv)
        assert _parsed(_table, argv) == reference
        # the help goes to stdout and ends the parse with 0; what comes before it decides
        assert bool(capsys.readouterr().out) == (reference == EXIT_OK)

    @pytest.mark.parametrize(
        "argv", [["15", "--budget=--"], ["15", "--threads=--"], ["15", "--format=--"], ["-g--"]]
    )
    def test_an_attached_double_dash_is_a_value(self, argv, capsys):
        # argparse dropped it and passed on an empty list: a traceback from
        # --budget and --threads, a text run from --format
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        assert status == EXIT_USAGE
        err = capsys.readouterr().err
        assert "'--'" in err and "Traceback" not in err

    def test_help_names_every_option_and_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        shown = " ".join(captured.out.split())
        for flags, _, _, _, metavar, text in cli._OPTIONS:
            assert all(flag in shown for flag in flags) and metavar in (None, *shown.split())
            assert " ".join(text.split()) in shown
        codes_shown = [code for code, _ in cli._EXIT_CODES]
        assert codes_shown == [EXIT_OK, EXIT_USAGE, EXIT_HYPOTHESIS, EXIT_BUDGET, EXIT_FALSIFIED]
        assert "\nexit codes:\n" in captured.out
        for code, meaning in cli._EXIT_CODES:
            assert f"\n  {code}  {meaning}\n" in captured.out


class TestDigitNumerals:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--dims", "-g=-3^2x25"],
            ["--dims", "-g=-3^2x5", "--budget=-2^20"],
            ["15", "--budget", "-2^20"],
            ["15", "--budget=-2^20"],
            ["+15"],
            ["1_5"],
            ["15", "--budget=+2^20"],
            ["15", "--budget=1_048_576"],
        ],
    )
    def test_signs_and_underscores_exit_1(self, argv, capsys):
        # int() reads "-3^2" as 9 and "1_5" as 15; the parser itself refuses a
        # separate "-2^20" as a missing --budget value
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        assert status == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", ["-3^2x25", "+15", "1_5", "3x-5", "3^+2x5", "3^2_0x5"])
    def test_signed_specs_are_refused(self, text):
        with pytest.raises(UsageError, match="cannot parse"):
            parse_group_spec(text)

    def test_digit_numerals_still_parse(self):
        assert parse_group_spec("15").kind == "pq"
        assert parse_group_spec("3^2 x 5^1").order == 45
        assert parse_budget("2^20") == parse_budget("1048576") == 1 << 20


class TestFailFast:
    @pytest.mark.parametrize(
        "argv",
        [
            ["999999999999999989"],
            ["3^100000000x5"],
            ["81x625"],
            ["15", "--budget", "2^99999999999"],
        ],
    )
    def test_oversized_spec_exits_1_within_a_second(self, argv, capsys):
        outcome = []
        worker = threading.Thread(target=lambda: outcome.append(main(argv)), daemon=True)
        start = time.perf_counter()
        worker.start()
        worker.join(timeout=1.0)
        elapsed = time.perf_counter() - start
        assert not worker.is_alive() and elapsed < 1.0
        assert outcome == [EXIT_USAGE]
        assert "exceeds" in capsys.readouterr().err


class TestBudget:
    def test_power_notation(self):
        assert parse_budget("2^20") == 1 << 20

    def test_plain_integer(self):
        assert parse_budget("4096") == 4096

    def test_minimum_enforced(self):
        with pytest.raises(UsageError):
            parse_budget("512")

    def test_maximum_enforced(self):
        assert parse_budget("2^64") == MAX_BUDGET
        with pytest.raises(UsageError):
            parse_budget("2^65")

    def test_a_scan_over_the_limit_is_refused_like_the_budget(self, capsys):
        # the dim-60 pair of 9x25 fits 2^64 but not the scan limit
        argv = ["9x25", "--weights", "--distribution", "--budget", "2^64", "--format", "json"]
        assert main(argv) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        big = json.loads(captured.out)
        _, small, _ = run(RunConfig("9x25", ("weights", "distribution"), budget=1 << 20))
        over = {"I22*", "I22**"}
        for label in over:
            weight = big["weights"][label]["min_weight"]
            assert not weight["exact"] and "scan limit" in weight["notes"][0]
            assert (weight["lower"], weight["upper"]) == (2, 8)
            dist = big["distributions"][label]
            assert dist["refused"] and dist["required_budget"] is None, label
            assert dist["reason"] == weight["notes"][0].removeprefix("enumeration refused: ")
            assert "over the scan limit 16777216" in dist["reason"], label
        others = set(big["weights"]) - over
        assert len(others) == 11
        for label in others:
            assert big["weights"][label] == small["weights"][label], label
            assert big["distributions"][label] == small["distributions"][label], label


class TestRun:
    def test_verify_c15(self):
        config = RunConfig(group_spec="15", analyses=("verify",), budget=1 << 12)
        code, report, text = run(config)
        assert code == EXIT_OK
        assert report["verify"]["passed"]
        assert "verification passed" in text

    def test_hypothesis_failure(self):
        config = RunConfig(group_spec="35", analyses=("verify",))
        code, report, _ = run(config)
        assert code == EXIT_HYPOTHESIS
        assert not report["hypotheses"]["satisfied"]

    def test_override_runs_with_warnings(self):
        # (5, 11) fails only the coprimality condition; the construction survives
        config = RunConfig(
            group_spec="55", analyses=("dims",), budget=1 << 12, override=True
        )
        code, report, _ = run(config)
        assert report["hypotheses"]["failures"]
        assert code in (EXIT_OK, EXIT_FALSIFIED)

    def test_override_cannot_save_a_broken_construction(self):
        # 2 has order 3 mod 7, so the block construction degenerates
        config = RunConfig(
            group_spec="35", analyses=("dims",), budget=1 << 12, override=True
        )
        code, report, _ = run(config)
        assert code == EXIT_HYPOTHESIS
        assert any("construction failed" in f for f in report["hypotheses"]["failures"])

    def test_budget_refusal_exit(self):
        config = RunConfig(
            group_spec="143", analyses=("distribution",), budget=1 << 10
        )
        code, report, _ = run(config)
        assert code == EXIT_BUDGET
        assert report["distributions"]["e3"]["refused"]

    def test_distribution_c33(self):
        config = RunConfig(group_spec="33", analyses=("distribution",), budget=1 << 12)
        code, report, _ = run(config)
        assert code == EXIT_OK
        assert report["distributions"]["e3"] == {
            "12": 165, "14": 165, "16": 165, "18": 330, "20": 165, "22": 33,
        }

    def test_theory_values_carry_source_labels(self):
        config = RunConfig(group_spec="33", analyses=("weights",), budget=1 << 12)
        code, report, _ = run(config)
        assert code == EXIT_OK
        for label, entry in report["weights"].items():
            theory = entry["theory"]
            if theory["kind"] != "none":
                assert theory["source"], label


class TestMembersThatAreNotMinimal:
    """Under overridden hypotheses 3x5x13 builds 14 members for 20 squaring
    orbits: e8 to e13 (dimension 24, ord_195(2) = 12) are sums of two
    minimal ideals, which no enumeration certifies as a field."""

    SUMS = ("e8", "e9", "e10", "e11", "e12", "e13")

    def _run(self, *analyses):
        return run(RunConfig(group_spec="3x5x13", analyses=analyses, override=True))

    def test_weights_are_bounded_with_the_reason(self):
        code, report, text = self._run("weights")
        assert code == EXIT_OK
        for label, entry in report["weights"].items():
            found = entry["min_weight"]
            if label not in self.SUMS:
                assert found["exact"], label
                continue
            assert entry["dimension"] == 24 and not found["exact"], label
            assert "not a minimal ideal" in found["notes"][0], label
            # 48, the minimum an exhaustive Gray walk over all 2**24 - 1 words finds
            assert found["lower"] <= 48 <= found["upper"], label
        assert "e8       in [2, 72] (bounded)" in text

    def test_distributions_are_refused_with_the_reason(self):
        code, report, text = self._run("distribution")
        assert code == EXIT_BUDGET
        for label, dist in report["distributions"].items():
            if label in self.SUMS:
                assert dist["refused"] and dist["required_budget"] is None, label
                assert "not a minimal ideal" in dist["reason"], label
            else:
                assert "refused" not in dist, label
        assert "e13      refused, F2[G]e is not a field, so it is not a minimal ideal" in text

    def test_each_sum_is_refused_by_one_field_search(self, monkeypatch):
        # the refused distribution gives the weight bounds; no second certificate
        refused = []
        original = codes._certify_field

        def counted(quotient):
            try:
                return original(quotient)
            except codes.NotMinimalIdealError:
                refused.append(quotient.word)
                raise

        monkeypatch.setattr(codes, "_certify_field", counted)
        code, report, _ = self._run("weights", "distribution")
        assert code == EXIT_BUDGET
        assert len(refused) == len(self.SUMS)
        for label in self.SUMS:
            assert "not a minimal ideal" in report["weights"][label]["min_weight"]["notes"][0]
            assert "not a minimal ideal" in report["distributions"][label]["reason"]

    def test_each_label_is_scanned_once_across_the_analysis_and_the_verification(
        self, monkeypatch
    ):
        # each sum's refusal is kept by its ideal record: the --verify pass raises
        # it again without a second scan, so 14 scans where there were 20
        scanned = []
        original = codes.scan_codewords

        def counted(rows, *, e):
            scanned.append(e)
            return original(rows, e=e)

        monkeypatch.setattr(codes, "scan_codewords", counted)
        code, report, _ = self._run("weights", "distribution", "verify")
        assert code == EXIT_FALSIFIED
        labels = report["group"]["labels"]
        assert len(labels) == len(scanned) == len(set(scanned)) == 14
        for label in self.SUMS:
            assert "not a minimal ideal" in report["weights"][label]["min_weight"]["notes"][0]
            assert "not a minimal ideal" in report["distributions"][label]["reason"]

    def test_verify_reports_the_orbit_count_mismatch(self):
        code, report, _ = self._run("dims", "weights", "verify")
        assert code == EXIT_FALSIFIED
        assert not report["dimensions"]["count_matches"]
        failed = [c["name"] for c in report["verify"]["checks"] if not c["passed"]]
        assert failed == ["member count equals squaring-orbit count"]


class TestMain:
    def test_json_output_is_deterministic_across_threads(self, capsys, monkeypatch):
        scans = []
        original = codes.scan_codewords

        def counted(*args, **kwargs):
            scans.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(codes, "scan_codewords", counted)
        outputs = []
        scans_per_run = []
        for threads in ("1", "2", "8"):
            before = len(scans)
            assert main(["33", "--distribution", "--format", "json",
                         "--threads", threads]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
            scans_per_run.append(len(scans) - before)
        assert outputs[0] == outputs[1] == outputs[2]
        parsed = json.loads(outputs[0])
        assert "distributions" in parsed
        # every run enumerates afresh, whatever the thread count
        assert scans_per_run[0] > 0 and scans_per_run == [scans_per_run[0]] * 3

    def test_missing_group_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_flag_and_positional_agree(self, capsys):
        assert main(["15", "-g", "15", "--dims"]) == EXIT_OK
        capsys.readouterr()

    def test_export_writes_json(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["15", "--idempotents", "--export", str(path)]) == EXIT_OK
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["group"]["order"] == 15
        e3 = payload["idempotents"]["e3"]
        assert len(e3["hex"]) == 4  # two little-endian bytes
        assert e3["predicted_dimension"] == 4

    def test_export_holds_the_stdout_json_bytes(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["33", "--weights", "--format", "json", "--export", str(path)]) == EXIT_OK
        assert path.read_text(encoding="utf-8") == capsys.readouterr().out

    @pytest.mark.parametrize("where", ["/nonexistent/dir/x.json", "{tmp}"])
    def test_unwritable_export_path_exits_1_before_any_work(
        self, where, tmp_path, monkeypatch, capsys
    ):
        runs = []
        monkeypatch.setattr(cli, "run", lambda config: runs.append(config))
        path = where.format(tmp=tmp_path)  # a directory cannot be written as a file
        assert main(["15", "--export", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert runs == [] and captured.out == ""
        assert captured.err.count("\n") == 1 and "--export" in captured.err
        assert "Traceback" not in captured.err

    def test_a_run_that_exits_1_removes_only_the_file_its_probe_created(
        self, tmp_path, capsys
    ):
        created = tmp_path / "new.json"
        assert main(["10", "--export", str(created)]) == EXIT_USAGE
        assert not created.exists()
        existing = tmp_path / "old.json"
        existing.write_text("kept", encoding="utf-8")
        assert main(["10", "--export", str(existing)]) == EXIT_USAGE
        assert existing.read_text(encoding="utf-8") == "kept"
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    def test_a_failed_export_write_is_a_one_line_error(self, capsys):
        assert main(["15", "--export", "/dev/full"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "idempotents" in captured.out  # the report was printed first
        assert captured.err.startswith("error: cannot write --export /dev/full")
        assert captured.err.count("\n") == 1

    def test_a_failed_write_removes_the_file_its_probe_created(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "new.json"

        def refusing_open(name, mode="r", **kwargs):
            if mode == "w":
                raise OSError(28, "No space left on device")
            return open(name, mode, **kwargs)

        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
        assert main(["15", "--export", str(path)]) == EXIT_USAGE
        assert not path.exists()
        assert "cannot write --export" in capsys.readouterr().err

    def test_exported_hex_reconstructs_the_elements(self, tmp_path, capsys):
        from abelcodes.group_algebra import AbelianGroup, AlgebraElement
        from abelcodes.idempotents import family_pq

        path = tmp_path / "family.json"
        assert main(["33", "--idempotents", "--export", str(path)]) == EXIT_OK
        capsys.readouterr()
        payload = json.loads(path.read_text())
        group = AbelianGroup(payload["group"]["factor_orders"])
        fam = family_pq(3, 11)
        for label, entry in payload["idempotents"].items():
            rebuilt = AlgebraElement.from_hex(group, entry["hex"])
            assert rebuilt == fam.elements[label]
            assert rebuilt.support_ranks() == entry["support_ranks"]

    def test_default_run_prints_summary(self, capsys):
        assert main(["15"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "idempotents" in out and "dimensions" in out


class TestDimsWithoutEnumeration:
    @pytest.fixture
    def scans(self, monkeypatch):
        codes.clear_caches()
        calls = []
        original = codes.scan_codewords

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(codes, "scan_codewords", counted)
        return calls

    @pytest.mark.parametrize("flags", [["--dims"], []])
    def test_dims_enumerate_no_codeword(self, flags, scans, capsys):
        assert main(["3x5x11", *flags, "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert scans == []
        assert report["dimensions"]["sum_matches_order"]

    def test_dims_still_checks_the_seed_words(self, scans, monkeypatch, capsys):
        seeds = []
        original = codes.code_seed_word
        monkeypatch.setattr(
            codes, "code_seed_word", lambda *args: seeds.append(args[1]) or original(*args)
        )
        assert main(["15", "--dims", "--format", "json"]) == EXIT_OK
        assert scans == [] and seeds == ["e3", "e4"]

    def test_dims_section_is_the_one_an_enumerating_run_reports(self, scans, capsys):
        assert main(["45", "--dims", "--format", "json"]) == EXIT_OK
        alone = json.loads(capsys.readouterr().out)
        assert scans == []
        assert main(["45", "--dims", "--weights", "--format", "json"]) == EXIT_OK
        both = json.loads(capsys.readouterr().out)
        assert scans
        del both["weights"]
        both["config"]["analyses"] = ["dims"]
        assert alone == both


class TestTextView:
    @pytest.mark.parametrize("view", TEXT_VIEWS, ids=lambda v: " ".join(v["argv"]))
    def test_text_stdout_and_exit_code_are_unchanged(self, view, capsys):
        assert main(view["argv"]) == view["exit"]
        assert capsys.readouterr().out == view["text"]

    @pytest.mark.parametrize("view", TEXT_VIEWS, ids=lambda v: " ".join(v["argv"]))
    def test_text_and_exit_code_come_from_the_json_alone(self, view, capsys, monkeypatch):
        runs = []
        original = cli.run

        def recorded(config):
            runs.append(original(config))
            return runs[-1]

        monkeypatch.setattr(cli, "run", recorded)
        assert main(view["argv"]) == view["exit"]
        capsys.readouterr()
        ((code, report, text),) = runs
        parsed = json.loads(render_json(report))
        assert render_text(parsed) == text
        assert exit_code(parsed) == code


class TestWorkloadStdout:
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_STDOUT))
    def test_json_stdout_bytes_and_exit_code_are_unchanged(self, workload, capsys):
        pinned = WORKLOAD_STDOUT[workload]
        assert main(pinned["argv"]) == pinned["exit"]
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == pinned["stdout_sha256"]

    @pytest.mark.parametrize("threads", ["2", "8"])
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_STDOUT))
    def test_the_thread_count_leaves_the_json_stdout_unchanged(self, workload, threads, capsys):
        pinned = WORKLOAD_STDOUT[workload]
        argv = pinned["argv"][:-1] + [threads]
        assert pinned["argv"][-2:] == ["--threads", "1"]
        assert main(argv) == pinned["exit"]
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == pinned["stdout_sha256"]

    @pytest.mark.parametrize("spec", sorted(IDEMPOTENT_EXPORTS))
    def test_idempotent_export_bytes_are_unchanged(self, spec, capsys):
        pinned = IDEMPOTENT_EXPORTS[spec]
        assert main(pinned["argv"]) == pinned["exit"]
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == pinned["stdout_sha256"]

    @pytest.mark.parametrize("spec", sorted(LARGE_GROUP_STDOUT))
    def test_large_group_json_stdout_is_unchanged(self, spec, capsys):
        pinned = LARGE_GROUP_STDOUT[spec]
        assert main(pinned["argv"]) == pinned["exit"]
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == pinned["stdout_sha256"]

    @pytest.mark.parametrize("spec", sorted(REFUSAL_STDOUT))
    def test_refused_scans_leave_the_json_stdout_unchanged(self, spec, capsys):
        pinned = REFUSAL_STDOUT[spec]
        assert main(pinned["argv"]) == pinned["exit"]
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == pinned["stdout_sha256"]


def _raise_falsification(*args, **kwargs):
    raise FalsificationError("probe word has the wrong weight")


class TestFalsifiedProbeWords:
    @pytest.mark.parametrize(
        "flags", [["--dims"], ["--verify"], ["--weights", "--verify"]]
    )
    def test_seed_word_failure_exits_4(self, flags, monkeypatch, capsys):
        monkeypatch.setattr(codes, "code_seed_word", _raise_falsification)
        argv = ["15", *flags, "--budget", "2^12", "--format", "json"]
        assert main(argv) == EXIT_FALSIFIED
        report = json.loads(capsys.readouterr().out)
        if "--dims" in flags or "--weights" in flags:
            assert report["falsification"] == "probe word has the wrong weight"
        if "--verify" in flags:
            failed = [c["name"] for c in report["verify"]["checks"] if not c["passed"]]
            assert "short split codeword has weight p + q" in failed

    def test_witness_word_failure_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(codes, "table_witness_words", _raise_falsification)
        assert main(["45", "--verify", "--budget", "2^14"]) == EXIT_FALSIFIED
        out = capsys.readouterr().out
        assert "[FAIL] single-factor weight witnesses have the table weights" in out
        assert out.rstrip().endswith("verification FAILED")

    def test_family_verification_lists_the_failing_checks(self, monkeypatch):
        monkeypatch.setattr(codes, "code_seed_word", _raise_falsification)
        outcome = family_verification(family_pq(3, 5), budget=1 << 12)
        assert not outcome["passed"]
        failed = {c["name"] for c in outcome["checks"] if not c["passed"]}
        assert failed == {
            "every code of the family is analyzed",
            "short split codeword has weight p + q",
        }

    def test_family_verification_names_a_failing_witness(self, monkeypatch):
        monkeypatch.setattr(codes, "table_witness_words", _raise_falsification)
        outcome = family_verification(family_prime_power(3, 2, 5, 1), budget=1 << 14)
        assert not outcome["passed"]
        failed = {c["name"] for c in outcome["checks"] if not c["passed"]}
        assert "single-factor weight witnesses have the table weights" in failed


class TestThreadsGuard:
    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda config: calls.append(config))
        return calls

    @pytest.mark.parametrize("threads", ["0", "-1", str(MAX_THREADS + 1), "1000000"])
    def test_flag_outside_range_exits_1_before_any_work(self, threads, runs, capsys):
        assert main(["3x5x11", "--dims", "--threads", threads]) == EXIT_USAGE
        assert runs == []
        assert "--threads" in capsys.readouterr().err

    def test_non_integer_flag_exits_1_before_any_work(self, runs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["3x5x11", "--dims", "--threads", "many"])
        assert exc.value.code == EXIT_USAGE
        assert runs == []
        assert "--threads" in capsys.readouterr().err

    def test_range_ends_are_accepted(self, capsys):
        assert MAX_THREADS >= 8
        for threads in ("1", str(MAX_THREADS)):
            assert main(["3x5x11", "--dims", "--threads", threads]) == EXIT_OK
        capsys.readouterr()
