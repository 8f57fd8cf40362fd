import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import mp_skew_symmetric_log_tails
from skewlab import cli, divisibility, mechanisms
from skewlab.cli import FAMILIES, UsageError, _json, build_mechanism, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_child_left():
    # every process a command forked has been waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class CountingStream:
    """A stream that keeps each write; with an error, its second write
    raises it."""

    def __init__(self, error=None):
        self.writes = []
        self.error = error

    def write(self, text):
        if self.error is not None and self.writes:
            raise self.error
        self.writes.append(text)


def parse_csv(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestEval:
    def test_marshall_olkin_cdf_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "marshall-olkin",
                               "--param", "gamma=2", "--what", "cdf", "--grid=-1:1:3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "value"]
        assert float(rows[1][0]) == 0.0
        assert float(rows[1][1]) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_identity_orderstats_pdf_matches_base(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "orderstats",
                               "--param", "psi1=1", "--param", "psi2=1",
                               "--what", "pdf", "--grid=-2:2:5")
        assert code == 0
        _, rows = parse_csv(out)
        for x_str, v_str in rows:
            x, v = float(x_str), float(v_str)
            assert v == pytest.approx(math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), rel=1e-12)

    def test_twopiece_cdf_spot(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "twopiece-eps",
                               "--param", "gamma=-0.5", "--what", "cdf", "--grid=1:2:2")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.62126119367961563, rel=1e-10)

    def test_quantile_grid_must_be_unit(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "azzalini",
                               "--param", "alpha=1", "--what", "quantile", "--grid=0:1:5")
        assert code == 2
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "marshall-olkin",
                               "--param", "gamma=1", "--what", "cdf", "--grid=0:1:2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"x": 0.0, "value": 0.5}

    def test_bad_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "marshall-olkin",
                               "--param", "gamma=-2", "--what", "cdf", "--grid=0:1:3")
        assert code == 2
        assert "gamma" in err

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "orderstats",
                               "--param", "psi1=2", "--what", "cdf", "--grid=0:1:3")
        assert code == 2
        assert "psi2" in err

    def test_bad_grid_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--family", "azzalini",
                             "--param", "alpha=1", "--what", "cdf", "--grid=0:1:1")
        assert code == 2

    @pytest.mark.parametrize("grid", ["-1e400:1:3", "-1:nan:3", "-1e308:1e308:3"])
    def test_grid_ends_must_be_finite(self, capsys, grid):
        # linspace warned and made NaNs, and the command ended with "y must
        # be finite, got nan"
        code, out, err = run_cli(capsys, "eval", "--family", "azzalini",
                                 "--param", "alpha=1", "--what", "pdf", f"--grid={grid}")
        assert code == 2 and out == ""
        assert "--grid needs lo < hi with hi - lo finite" in err

    def test_skewsym_custom_logistic(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "skewsym-custom",
                               "--param", "pi=logistic", "--param", "alpha=2",
                               "--what", "p", "--grid=0.2:0.8:3")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[1][1]) == pytest.approx(1.0, rel=1e-12)  # p(0.5) = 2*pi(0) = 1

    def test_skewsym_custom_needs_known_pi(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "skewsym-custom",
                               "--param", "pi=unknown", "--what", "p", "--grid=0.2:0.8:3")
        assert code == 2
        assert "pi=" in err


class TestSample:
    def test_reproducible_given_seed(self, capsys):
        args = ("sample", "--family", "twopiece-eps", "--param", "gamma=-0.5",
                "--n", "5", "--seed", "1")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5

    def test_missing_seed_draws_fresh_entropy(self, capsys):
        args = ("sample", "--family", "azzalini", "--param", "alpha=1", "--n", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 != out2

    def test_n_validation(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--family", "azzalini",
                             "--param", "alpha=1", "--n", "0")
        assert code == 2

    # one write a slice of 4,096 draws: n on both sides of the slice ends,
    # and of the fork threshold: with two CPUs, 9 slices are formatted by one
    # process and 10 by two
    SLICE_NS = (1, 4095, 4096, 4097, 3 * 4096 + 5, 9 * 4096, 9 * 4096 + 1, 12 * 4096 + 7)

    @pytest.fixture(params=[2, 3])
    def processes(self, request, monkeypatch):
        """The processes cmd_sample used, by slice count. With param 2 the
        process may run on two CPUs and the real rule picks; with 3 every
        sample forks two formatters, so that at 1 to 4 slices one of them
        formats fewer slices than the others or none."""
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork: one process formats every sample")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if request.param == 3:
            monkeypatch.setattr(cli, "_sample_processes", lambda n_slices: 3)
        picked, used = cli._sample_processes, {}

        def spy(n_slices):
            used[n_slices] = picked(n_slices)
            return used[n_slices]

        monkeypatch.setattr(cli, "_sample_processes", spy)
        yield
        if request.param == 2:
            assert used == {k: 1 + (k >= 10) for k in used}
        assert request.param in used.values()

    @pytest.mark.parametrize("family,params", [("orderstats", {"psi1": 5.0, "psi2": 1e-3}),
                                               ("azzalini", {"alpha": 3.0})])
    def test_bytes_are_the_reprs_of_the_library_draws(self, capsys, tmp_path, processes,
                                                      family, params):
        # the per-draw loop's bytes. Order statistics (5, 1e-3) draws far in
        # the upper tail, past y = 100; with seed 11, Azzalini 3 draws
        # include |y| < 1e-4, whose reprs take the exponent form
        from skewlab.distributions import RngState, StandardNormal

        argv = ["sample", "--family", family, "--seed", "11"]
        argv += [a for k, v in params.items() for a in ("--param", f"{k}={v!r}")]
        dist = mechanisms.compose(StandardNormal(), build_mechanism(family, dict(params)))
        for n in self.SLICE_NS:
            draws = mechanisms.sample_skewed(dist, RngState(11), n)
            want = "".join(repr(float(v)) + "\n" for v in draws)
            code, out, err = run_cli(capsys, *argv, "--n", str(n))
            assert (code, err) == (0, "")
            assert out == want
            assert_no_child_left()
            target = tmp_path / f"{family}-{n}.txt"
            code, out, _ = run_cli(capsys, *argv, "--n", str(n), "--out", str(target))
            assert (code, out) == (0, "")
            assert target.read_bytes() == want.encode("utf-8")
            assert_no_child_left()
        assert ("e" in want) == (family == "azzalini")
        assert (draws.max() > 100.0) == (family == "orderstats")

    def test_one_write_a_slice(self, monkeypatch, processes):
        for n in self.SLICE_NS:
            stream = CountingStream()
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stream)
                code = main(["sample", "--family", "twopiece-eps", "--param", "gamma=-0.5",
                             "--n", str(n), "--seed", "3"])
            assert code == 0
            assert 1 <= len(stream.writes) <= math.ceil(n / 4096) + 1
            text = "".join(stream.writes)
            assert text.endswith("\n") and text.count("\n") == n
            assert_no_child_left()

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["write-error", "ctrl-c"])
    def test_a_failing_stream_leaves_no_child(self, monkeypatch, processes, error):
        # the second write raises while the formatters wait on their pipes
        for n in [n for n in self.SLICE_NS if n > 4096]:
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", CountingStream(error))
                with pytest.raises(type(error)):
                    main(["sample", "--family", "azzalini", "--param", "alpha=3",
                          "--n", str(n), "--seed", "3"])
            assert_no_child_left()

    def test_a_failing_formatter_fails_the_command(self, monkeypatch):
        # a formatter that raises ends in os._exit(1) before its first slice:
        # the relay reads a short slice, and main does not return 0
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork: no formatter to fail")
        parent, text = os.getpid(), cli._slice_text

        def slice_text(draws, i):
            if os.getpid() != parent:
                raise MemoryError("in a formatter")
            return text(draws, i)

        monkeypatch.setattr(cli, "_slice_text", slice_text)
        monkeypatch.setattr(cli, "_sample_processes", lambda n_slices: 2)
        with pytest.raises(RuntimeError, match="formatter"):
            main(["sample", "--family", "azzalini", "--param", "alpha=3", "--n", "20000",
                  "--seed", "3"])
        assert_no_child_left()


class TestOutFile:
    KEPT = "kept from an earlier run\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--family", "azzalini", "--param", "alpha=1", "--n", "0"],
        ["sample", "--family", "azzalini", "--n", "5"],
        ["check", "--family", "orderstats", "--param", "psi1=-1", "--param", "psi2=1"],
        ["eval", "--family", "azzalini", "--param", "alpha=1", "--what", "quantile",
         "--grid", "0:1:5"],
    ])
    def test_a_command_that_exits_2_leaves_the_file(self, capsys, tmp_path, argv):
        target = tmp_path / "kept.txt"
        target.write_text(self.KEPT)
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert target.read_text() == self.KEPT

    def test_a_forking_sample_that_cannot_open_its_file(self, capsys, tmp_path, monkeypatch):
        # the formatter is forked before the first write opens --out; a path
        # under a regular file cannot be opened, so the command exits 2
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork: nothing is forked")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        target = tmp_path / "kept.txt"
        target.write_text(self.KEPT)
        code, out, err = run_cli(capsys, "sample", "--family", "azzalini", "--param", "alpha=1",
                                 "--n", "100000", "--seed", "1", "--out", str(target / "x.txt"))
        assert code == 2
        assert out == "" and err.startswith("error: cannot open --out")
        assert target.read_text() == self.KEPT
        assert forks == [1]
        assert_no_child_left()

    def test_a_command_that_succeeds_replaces_the_file(self, capsys, tmp_path):
        target = tmp_path / "kept.txt"
        target.write_text(self.KEPT * 1000)
        code, _, _ = run_cli(capsys, "sample", "--family", "azzalini", "--param", "alpha=1",
                             "--n", "3", "--seed", "1", "--out", str(target))
        assert code == 0
        assert len(target.read_text().splitlines()) == 3


class TestTail:
    def test_identity_statistic_at_ten(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--family", "orderstats",
                               "--param", "psi1=1", "--param", "psi2=1", "--ys", "10")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["y", "log_tail", "statistic"]
        assert float(rows[0][2]) == pytest.approx(2.2817023409822095, abs=1e-3)

    def test_statistic_increasing_from_five(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--family", "azzalini",
                               "--param", "alpha=1", "--ys", "5,8,10,15,20,30")
        assert code == 0
        _, rows = parse_csv(out)
        stats = [float(r[2]) for r in rows]
        assert all(a < b for a, b in zip(stats, stats[1:]))

    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--family", "azzalini", "--param", "alpha=1")
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[0]) for r in rows] == [1.5, 2, 3, 5, 8, 10, 15, 20, 30]

    def test_rejects_small_ordinates(self, capsys):
        code, _, err = run_cli(capsys, "tail", "--family", "azzalini",
                               "--param", "alpha=1", "--ys", "0.5,2")
        assert code == 2
        assert err == "error: all ordinates must exceed 1, got [0.5, 2.0]\n"

    def test_rejects_empty_grid(self, capsys):
        code, _, _ = run_cli(capsys, "tail", "--family", "azzalini",
                             "--param", "alpha=1", "--ys", "")
        assert code == 2


class TestLogisticPi:
    """pi=logistic is scipy's expit: 1 / (1 + exp(-alpha y)) overflowed, a
    RuntimeWarning, from alpha y ~ -710, at alpha = 10 by |y| = 71."""

    @pytest.mark.parametrize("alpha", [10.0, 1e3])
    def test_tail_out_to_forty(self, capsys, alpha):
        import mpmath as mp
        import numpy as np
        from oracles import mp_skew_symmetric_log_tails

        code, out, _ = run_cli(capsys, "tail", "--family", "skewsym-custom", "--param",
                               "pi=logistic", "--param", f"alpha={alpha!r}", "--ys", "5,20,40")
        assert code == 0
        mp_pi = lambda t: 1 / (1 + mp.exp(-alpha * t))
        for y, log_tail, _ in parse_csv(out)[1]:
            y = float(y)
            want = np.logaddexp(mp_skew_symmetric_log_tails(mp_pi, -y)[0],
                                mp_skew_symmetric_log_tails(mp_pi, y)[1])
            assert float(log_tail) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha", [10.0, 1e3])
    def test_eval_over_the_grid(self, capsys, alpha):
        for what, grid in (("pdf", "-40:40:17"), ("cdf", "-40:40:17"),
                           ("quantile", "0.00001:0.99999:9")):
            code, out, _ = run_cli(capsys, "eval", "--family", "skewsym-custom", "--param",
                                   "pi=logistic", "--param", f"alpha={alpha!r}",
                                   "--what", what, f"--grid={grid}")
            assert code == 0
            assert all(math.isfinite(float(r[1])) for r in parse_csv(out)[1])


class TestCheck:
    def test_azzalini_not_id(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "azzalini", "--param", "alpha=2")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "NOT_ID"
        assert d["rule"] == "theorem-1"
        assert d["bound"] == 2.0
        assert "sup_trace" in d["evidence"] and "tail_rows" in d["evidence"]
        rows = d["evidence"]["rule_rows"]
        assert [r["y"] for r in rows] == [r["y"] for r in d["evidence"]["tail_rows"]]
        assert all(r["passed"] and r["log_tail"] <= r["log_bound"] for r in rows)

    def test_twopiece_identity_escapes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "twopiece-eps", "--param", "gamma=0")
        assert code == 0
        assert json.loads(out)["verdict"] == "NORMAL_ESCAPE"

    @pytest.mark.parametrize("p1,p2", [("1", "1.0000000000000002"), ("1.00000000000001", "1"),
                                       ("1.000000000000001", "1")])
    def test_orderstats_shape_next_to_one(self, capsys, p1, p2):
        # analytic_sup divided by zero or left [0, 1] at these shapes
        code, out, _ = run_cli(capsys, "check", "--family", "orderstats",
                               "--param", f"psi1={p1}", "--param", f"psi2={p2}")
        assert code == 0
        d = json.loads(out)
        assert d["verdict"] == "NOT_ID" and d["rule"] == "theorem-1"
        assert d["bound"] == pytest.approx(max(float(p1), float(p2)), rel=1e-15)

    def test_twopiece_scales_past_the_doubles_exit_2(self, capsys):
        # a + b overflows: math.log(2 / (a + b)) raised ValueError, exit 1
        code, out, err = run_cli(capsys, "check", "--family", "twopiece-ab",
                                 "--param", "a=9e307", "--param", "b=9e307")
        assert code == 2 and out == ""
        assert "scale factors must be positive, a + b < 2^1023" in err

    def test_orderstats_below_one_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "orderstats",
                               "--param", "psi1=0.5", "--param", "psi2=2")
        assert code == 0
        assert json.loads(out)["verdict"] == "INCONCLUSIVE"


class TestVerify:
    def test_thm2_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm2")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["suite", "case_id", "lhs", "rhs", "pass"]
        assert rows and all(r[4] == "true" for r in rows)

    def test_thm1_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm1")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 10 * 9  # matrix instances x default grid

    def test_roundtrip_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "roundtrip")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[2]) <= 1e-7 for r in rows)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "verify", "--suite", "thm2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("suite,case_id,lhs,rhs,pass")

    @pytest.mark.parametrize("command", [["verify", "--suite", "thm2"],
                                         ["tail", "--family", "marshall-olkin", "--param", "gamma=2"]])
    def test_out_that_cannot_be_opened_exits_2(self, capsys, tmp_path, command):
        # exit 1 means a failed verify row; a path that cannot be written is
        # a usage error, whether its directory is missing or it is one
        for target in (tmp_path / "missing_dir" / "x.csv", tmp_path):
            code, out, err = run_cli(capsys, *command, "--out", str(target))
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot open --out {str(target)!r}: ")
        assert not (tmp_path / "missing_dir").exists()

    def test_failing_row_exits_1(self, capsys, monkeypatch):
        import skewlab.cli as cli_mod
        from skewlab.divisibility import BoundCheckRow

        def broken_bound_check(mech, ys=None, report=None):
            return [BoundCheckRow(5.0, -1.0, -2.0, passed=False)]

        monkeypatch.setattr(cli_mod.divisibility, "verify_theorem1_bound", broken_bound_check)
        code, out, err = run_cli(capsys, "verify", "--suite", "thm1")
        assert code == 1
        assert "FAILED" in err
        _, rows = parse_csv(out)
        assert any(r[4] == "false" for r in rows)


class TestEnvTolerance:
    def test_tolerance_override_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWLAB_TOL", "1e-9")
        code, out, _ = run_cli(capsys, "eval", "--family", "skewsym-custom",
                               "--param", "pi=logistic", "--param", "alpha=1.5",
                               "--what", "quantile", "--grid=0.25:0.75:3")
        assert code == 0
        _, rows = parse_csv(out)
        # logistic skewing at q=0.75 must invert back through the cdf
        from skewlab.cli import build_mechanism
        from skewlab.mechanisms import compose
        from skewlab.distributions import StandardNormal
        dist = compose(StandardNormal(), build_mechanism(
            "skewsym-custom", {"pi": "logistic", "alpha": 1.5}))
        assert dist.cdf(float(rows[2][1])) == pytest.approx(0.75, abs=1e-6)

    def test_tolerance_changes_quantiles(self, capsys, monkeypatch):
        # at q = 1e-300, below the CDF table's first value, Newton starts at
        # the bracket's lower end and takes several steps
        argv = ("eval", "--family", "skewsym-custom", "--param", "pi=logistic",
                "--param", "alpha=2", "--what", "quantile", "--grid=1e-300:1e-200:5")
        _, default, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("SKEWLAB_TOL", "1e-3")
        code, loose, _ = run_cli(capsys, *argv)
        assert code == 0
        loose, default = parse_csv(loose)[1][0][1], parse_csv(default)[1][0][1]
        assert loose == "-35.11966770173825"
        assert default == "-35.11966770173996"
        assert loose != default and abs(float(loose) - float(default)) <= 1e-3
        logistic = lambda t: 1 / (1 + mp.exp(-2 * t))
        log_cdf = mp_skew_symmetric_log_tails(logistic, float(default), ())[0]
        assert abs(log_cdf - math.log(1e-300)) <= 1e-12

    def test_bad_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWLAB_TOL", "not-a-number")
        code, _, err = run_cli(capsys, "eval", "--family", "azzalini",
                               "--param", "alpha=1", "--what", "quantile",
                               "--grid=0.25:0.75:3")
        assert code == 2
        assert "SKEWLAB_TOL" in err

    @pytest.mark.parametrize("what", ["pdf", "cdf", "p"])
    def test_bad_value_is_read_by_quantile_only(self, capsys, monkeypatch, what):
        monkeypatch.setenv("SKEWLAB_TOL", "not-a-number")
        code, _, _ = run_cli(capsys, "eval", "--family", "azzalini", "--param", "alpha=1",
                             "--what", what, "--grid=0.25:0.75:3")
        assert code == 0


class TestRepeatedCalls:
    """The parser is built once per process and reused by every main call."""

    CALLS = (
        ("check", "--family", "orderstats", "--param", "psi1=1", "--param", "psi2=1"),
        ("eval", "--family", "marshall-olkin", "--param", "gamma=2", "--what", "p",
         "--grid=0.1:0.9:5", "--format", "json"),
        ("check", "--family", "twopiece-ab", "--param", "a=0.5", "--param", "b=0.8",
         "--ys", "2,5,20"),
    )

    def test_reused_parser_prints_the_bytes_of_a_first_call(self, capsys):
        import skewlab.cli as cli_mod

        first = []
        for argv in self.CALLS:
            cli_mod._parser.cache_clear()
            first.append(run_cli(capsys, *argv))
        parser = cli_mod._parser()
        again = [run_cli(capsys, *argv) for argv in self.CALLS + self.CALLS]
        assert cli_mod._parser() is parser
        assert again == first + first
        assert all(code == 0 and out and not err for code, out, err in again)

    def test_param_lists_do_not_carry_over(self, capsys):
        import skewlab.cli as cli_mod

        run_cli(capsys, *self.CALLS[0])
        args = cli_mod._parser().parse_args(["check", "--family", "azzalini", "--param", "alpha=2"])
        assert args.param == ["alpha=2"] and args.ys is None
        args = cli_mod._parser().parse_args(["tail", "--family", "azzalini"])
        assert args.param == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "skewlab.cli", "tail", "--family", "azzalini",
         "--param", "alpha=1", "--ys", "10"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("y,log_tail,statistic")


def test_unknown_family_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "skewlab.cli", "eval", "--family", "nope",
         "--what", "cdf", "--grid=0:1:3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2


_LAZY_SCIPY_SCRIPT = """
import contextlib, io, json, math, sys
import skewlab.cli
from skewlab import numcore

LAZY = ("scipy.integrate", "scipy.optimize")
codes = []
for argv in (
    ["eval", "--family", "azzalini", "--param", "alpha=3", "--what", "quantile",
     "--grid=0.01:0.99:5"],
    ["sample", "--family", "marshall-olkin", "--param", "gamma=2", "--n", "100",
     "--seed", "1", "--out", sys.argv[1]],
    ["tail", "--family", "skewsym-custom", "--param", "pi=logistic", "--ys", "5,20"],
    ["check", "--family", "orderstats", "--param", "psi1=2", "--param", "psi2=3"],
    ["verify", "--suite", "all"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(skewlab.cli.main(argv))
after_cli = [m for m in LAZY if m in sys.modules]
root = numcore.find_root(lambda y: y * y - 2, 0, 2)
mass = numcore.integrate(numcore.normal_pdf, -math.inf, math.inf)
print(json.dumps({"codes": codes, "after_cli": after_cli, "root": root, "mass": mass,
                  "after_calls": [m for m in LAZY if m in sys.modules]}))
"""


def test_cli_never_loads_quadrature_or_root_finding(tmp_path):
    # scipy.integrate and scipy.optimize cost a process about 0.3 s and 26 MB
    # to import, and only find_root and integrate use them: one fresh
    # interpreter runs every command, then those two functions
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY_SCRIPT, str(tmp_path / "draws.txt")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * 5
    assert got["after_cli"] == []
    assert got["root"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert got["mass"] == pytest.approx(1.0, abs=1e-10)
    assert got["after_calls"] == ["scipy.integrate", "scipy.optimize"]


# one README-style instance per family name, and the mechanism it builds
FAMILY_INSTANCES = {
    "azzalini": ({"alpha": 3.0}, "SkewSymmetric(pi=AzzaliniPi(alpha=3.0))"),
    "skewsym-custom": ({"pi": "logistic", "alpha": 2.0}, None),
    "orderstats": ({"psi1": 2.0, "psi2": 3.0}, "OrderStatistics(psi1=2.0, psi2=3.0)"),
    "marshall-olkin": ({"gamma": 2.0}, "MarshallOlkin(gamma=2.0)"),
    "twopiece-eps": ({"gamma": -0.5}, "TwoPiece(a=1.5, b=0.5)"),
    "twopiece-isf": ({"gamma": 2.0}, "TwoPiece(a=0.5, b=2.0)"),
    "twopiece-ab": ({"a": 5.0, "b": 0.1}, "TwoPiece(a=5.0, b=0.1)"),
}


class TestFamilyTable:
    """Every family name lives in one table, read by ``FAMILIES``, the
    ``--family`` choices and ``build_mechanism``."""

    def test_every_family_has_an_instance(self):
        assert FAMILIES == tuple(FAMILY_INSTANCES)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_builds(self, family):
        params, expected = FAMILY_INSTANCES[family]
        mech = build_mechanism(family, dict(params))
        assert isinstance(mech, mechanisms.SkewingMechanism)
        if expected is not None:
            assert repr(mech) == expected

    def test_twopiece_isf_checks_from_the_cli(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--family", "twopiece-isf", "--param", "gamma=2")
        assert code == 0
        assert json.loads(out)["verdict"] == "NOT_ID"

    def test_skewsym_custom_alpha_defaults_to_one(self):
        mech = build_mechanism("skewsym-custom", {"pi": "logistic"})
        assert mech.pi(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-15)

    @pytest.mark.parametrize("family,params,text", [
        ("orderstats", {"psi1": 2.0}, "family 'orderstats' requires --param psi2=..."),
        ("twopiece-ab", {}, "family 'twopiece-ab' requires --param a=..."),
        ("orderstats", {"psi1": "x"}, "parameter 'psi1' must be numeric, got 'x'"),
        ("skewsym-custom", {"pi": "logistic", "alpha": "z"},
         "parameter 'alpha' must be numeric, got 'z'"),
        ("skewsym-custom", {"pi": "nope"},
         "skewsym-custom requires --param pi=<cauchy-cdf|half|logistic|sign>"),
        ("nope", {}, "unknown family 'nope'; choose from azzalini, skewsym-custom, "
                     "orderstats, marshall-olkin, twopiece-eps, twopiece-isf, twopiece-ab"),
    ])
    def test_usage_error_texts(self, family, params, text):
        with pytest.raises(UsageError) as info:
            build_mechanism(family, params)
        assert str(info.value) == text


class TestFormatOption:
    """``--format`` exists where a table is printed: eval, tail and verify."""

    @pytest.mark.parametrize("argv", [
        ("check", "--family", "azzalini", "--param", "alpha=2", "--format", "json"),
        ("sample", "--family", "azzalini", "--param", "alpha=2", "--n", "3",
         "--format", "csv"),
    ])
    def test_rejected_where_nothing_reads_it(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_tail_prints_json(self, capsys):
        code, out, _ = run_cli(capsys, "tail", "--family", "azzalini", "--param", "alpha=1",
                               "--ys", "5,10", "--format", "json")
        assert code == 0
        assert [row["y"] for row in json.loads(out)] == [5.0, 10.0]


_JSON_LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(),  # non-ASCII and control characters included
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


class TestJsonEmitter:
    """check's JSON is json.dumps(indent=2, default=float) byte for byte."""

    @given(_JSON_TREES)
    def test_same_bytes_as_json_dumps(self, payload):
        assert _json(payload) == json.dumps(payload, indent=2, default=float)

    def test_check_payload(self, capsys):
        mech = build_mechanism("orderstats", {"psi1": 2.0, "psi2": 3.0})
        verdict = divisibility.divisibility_verdict(mech, ys=list(divisibility.DEFAULT_Y_GRID))
        _, out, _ = run_cli(capsys, "check", "--family", "orderstats", "--param", "psi1=2",
                            "--param", "psi2=3")
        assert out == json.dumps(verdict.to_dict(), indent=2, default=float) + "\n"
