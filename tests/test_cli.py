"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("review", "headline", "rate", "machine", "license",
                        "sensitivity", "simulate", "acquire"):
            args = {
                "review": [command],
                "headline": [command],
                "rate": [command, "--clock-mhz", "100"],
                "machine": [command],
                "license": [command, "Cray C916", "India"],
                "sensitivity": [command],
                "simulate": [command],
                "acquire": [command, "5000"],
            }[command]
            parsed = parser.parse_args(args)
            assert parsed.command == command


class TestCommands:
    def test_headline(self, capsys):
        code, out = run_cli(capsys, "headline")
        assert code == 0
        assert "4,000-5,000" in out
        assert "4088" in out

    def test_review(self, capsys):
        code, out = run_cli(capsys, "review", "--year", "1995.5")
        assert code == 0
        assert "premise 1: HOLDS" in out
        assert "STALE" in out

    def test_rate_supercomputer(self, capsys):
        code, out = run_cli(
            capsys, "rate", "--clock-mhz", "300", "--fp-per-cycle", "2",
            "--int-per-cycle", "2", "--concurrent", "--processors", "12",
        )
        assert code == 0
        assert "11,100" in out
        assert "supercomputer" in out

    def test_rate_below_definition(self, capsys):
        code, out = run_cli(capsys, "rate", "--clock-mhz", "50")
        assert code == 0
        assert "below definition" in out

    def test_machine_lookup(self, capsys):
        code, out = run_cli(capsys, "machine", "Cray C916")
        assert code == 0
        assert "21,125" in out
        assert "controllable" in out

    def test_machine_listing(self, capsys):
        code, out = run_cli(capsys, "machine")
        assert code == 0
        assert "Cray C916" in out
        assert "Sun SPARCstation 10" in out

    def test_machine_unknown_is_error(self, capsys):
        code, out = run_cli(capsys, "machine", "Cray C917")
        assert code == 1
        assert "error:" in out

    def test_license_denied(self, capsys):
        code, out = run_cli(capsys, "license", "Cray C916", "Iran")
        assert code == 0
        assert "DENIED" in out

    def test_license_supplier(self, capsys):
        code, out = run_cli(capsys, "license", "Cray C916", "Japan")
        assert code == 0
        assert "license required  no" in out

    def test_license_custom_threshold(self, capsys):
        code, out = run_cli(capsys, "license", "Sun SPARCstation 10",
                            "India", "--threshold", "50")
        assert code == 0
        assert "license required  yes" in out

    def test_simulate_listing(self, capsys):
        code, out = run_cli(capsys, "simulate")
        assert code == 0
        assert "ray tracing" in out
        assert "embarrassingly parallel" in out

    def test_simulate_workload(self, capsys):
        code, out = run_cli(capsys, "simulate", "shallow-water model")
        assert code == 0
        assert "efficiency ratio" in out

    def test_simulate_unknown_workload(self, capsys):
        code, out = run_cli(capsys, "simulate", "mining")
        assert code == 1
        assert "error:" in out

    def test_acquire(self, capsys):
        code, out = run_cli(capsys, "acquire", "10000", "--attempts", "100")
        assert code == 0
        assert "easiest adequate system" in out

    def test_acquire_unreachable(self, capsys):
        code, out = run_cli(capsys, "acquire", "99999999")
        assert code == 0
        assert "no cataloged system" in out

    def test_sensitivity(self, capsys):
        code, out = run_cli(capsys, "sensitivity", "--samples", "25")
        assert code == 0
        assert "4,000-5,000 band" in out
        assert "verdict stability" in out.lower()


class TestOutputErrors:
    def test_unwritable_output_is_one_line_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.md"
        code = main(["report", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("error: ")
        assert str(target) in captured.out
        assert len(captured.out.strip().splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err


class TestRateValidation:
    """Bad ``rate`` flags exit nonzero with a one-line flag-named
    diagnostic — never a traceback."""

    @pytest.mark.parametrize("argv,flag", [
        (["rate", "--clock-mhz", "-100"], "--clock-mhz"),
        (["rate", "--clock-mhz", "0"], "--clock-mhz"),
        (["rate", "--clock-mhz", "100", "--processors", "0"], "--processors"),
        (["rate", "--clock-mhz", "100", "--processors", "-4"],
         "--processors"),
        (["rate", "--clock-mhz", "100", "--word-bits", "-40"], "--word-bits"),
        (["rate", "--clock-mhz", "100", "--fp-per-cycle", "-1"],
         "--fp-per-cycle"),
        (["rate", "--clock-mhz", "100", "--int-per-cycle", "-1"],
         "--int-per-cycle"),
    ])
    def test_invalid_flag_is_clean_error(self, capsys, argv, flag):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out.startswith("error:")
        assert flag in out
        assert "Traceback" not in out
        assert len(out.strip().splitlines()) == 1

    def test_valid_rate_still_works(self, capsys):
        code, out = run_cli(capsys, "rate", "--clock-mhz", "100")
        assert code == 0
        assert "CTP" in out


class TestMachineNormalization:
    def test_lowercase_key_resolves(self, capsys):
        code, out = run_cli(capsys, "machine", "cray c916")
        assert code == 0
        assert "21,125" in out

    def test_extra_whitespace_resolves(self, capsys):
        code, out = run_cli(capsys, "machine", "  Cray   C916 ")
        assert code == 0
        assert "21,125" in out

    def test_miss_suggests_closest(self, capsys):
        code, out = run_cli(capsys, "machine", "Cray C917")
        assert code == 1
        assert out.startswith("error:")
        assert "closest" in out
        assert "Cray C916" in out
        assert len(out.strip().splitlines()) == 1


class TestProfileFlag:
    def test_review_profile_prints_span_tree_and_cache_counters(self, capsys):
        code, out = run_cli(capsys, "review", "--profile")
        assert code == 0
        assert "premise 1: HOLDS" in out          # normal output intact
        assert "profile (wall time per span)" in out
        assert "review.run" in out
        assert "bounds.derive" in out
        assert "ms" in out
        assert "credit_cache.hits" in out
        assert "credit_cache.misses" in out

    def test_sensitivity_profile(self, capsys):
        code, out = run_cli(capsys, "sensitivity", "--samples", "25",
                            "--profile")
        assert code == 0
        assert "sensitivity.bound" in out
        assert "sensitivity.sample_weights" in out

    def test_no_profile_output_by_default(self, capsys):
        code, out = run_cli(capsys, "review")
        assert code == 0
        assert "profile (wall time per span)" not in out
