import math
from pathlib import Path

import pytest

from cornerwalk.cli import RunManifest, build_parser, main

from conftest import ALL_FIVE_TEXT, BIG_JUMP_TEXT, FIB_TEXT

BAD_NORM_TEXT = "1 1 1/2\n1 -1 1/4\n-1 1 1/8\n"
LAZY_TEXT = "1 1 1/4\n1 -1 1/4\n-1 1 1/4\n0 0 1/4\n"


@pytest.fixture(scope="session")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    out = {}
    for name, text in [
        ("fib", FIB_TEXT),
        ("all_five", ALL_FIVE_TEXT),
        ("big_jump", BIG_JUMP_TEXT),
        ("bad_norm", BAD_NORM_TEXT),
        ("lazy", LAZY_TEXT),
        ("garbled", "1 1\n"),
    ]:
        f = d / f"{name}.txt"
        f.write_text(text)
        out[name] = str(f)
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key}: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"{key!r} not found in output:\n{out}")


def csv_rows(out):
    return [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]


class TestManifest:
    def test_header_layout_and_sorting(self):
        man = RunManifest("demo", "m.txt", {"b": 2, "a": 0.5}, seed=7)
        assert man.header_lines() == [
            "# command: demo",
            "# model: m.txt",
            "# param a: 0.5",
            "# param b: 2",
            "# tool_version: 0.10.0",
            "# seed: 7",
        ]

    def test_seed_line_omitted_when_absent(self):
        assert "# seed" not in "\n".join(RunManifest("demo", "m").header_lines())


class TestValidate:
    def test_good_model(self, capsys, paths):
        code, out, _ = run(capsys, "validate", paths["fib"])
        assert code == 0
        assert out.startswith(f"# command: validate\n# model: {paths['fib']}\n")
        assert "# tool_version: 0.10.0" in out
        assert body_value(out, "steps") == "3"
        assert body_value(out, "passed") == "yes"
        assert body_value(out, "small-step") == "yes"

    def test_wide_support_passes_as_not_small(self, capsys, paths):
        code, out, _ = run(capsys, "validate", paths["big_jump"])
        assert code == 0
        assert body_value(out, "small-step") == "no"

    def test_stay_put_note(self, capsys, paths):
        code, out, _ = run(capsys, "validate", paths["lazy"])
        assert code == 0
        assert "note:" in out

    def test_failing_model(self, capsys, paths):
        code, out, _ = run(capsys, "validate", paths["bad_norm"])
        assert code == 1
        assert body_value(out, "passed") == "no"
        assert "violation norm:" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/model.txt")
        assert code == 1
        assert err.startswith("error:")

    def test_garbled_file(self, capsys, paths):
        code, _, err = run(capsys, "validate", paths["garbled"])
        assert code == 1
        assert "expected" in err


class TestCurveDump:
    def test_default_grid(self, capsys, paths):
        code, out, _ = run(capsys, "curve-dump", paths["fib"])
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["x", "f(x)", "y", "g(y)"]
        assert len(rows) == 1 + 51
        x0 = -0.2938933324510595
        assert float(rows[1][0]) == pytest.approx(x0, abs=1e-13)
        assert float(rows[1][1]) == pytest.approx(0.11157177565710494, abs=1e-13)
        assert "# param hi: 0" in out

    def test_rows_stay_on_curve_symmetry(self, capsys, paths):
        # fibonacci model is exchange-symmetric: the two half-rows agree
        _, out, _ = run(capsys, "curve-dump", paths["fib"])
        for row in csv_rows(out)[1:]:
            assert float(row[1]) == pytest.approx(float(row[3]), abs=1e-12)

    def test_empty_grid_is_usage_error(self, capsys, paths):
        code, _, err = run(capsys, "curve-dump", paths["fib"], "--lo", "0.5")
        assert code == 2
        assert "empty grid" in err

    def test_bad_step(self, capsys, paths):
        code, _, _ = run(capsys, "curve-dump", paths["fib"], "--step", "-0.1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--step", "nan"), ("--step", "inf"), ("--lo=-inf", "--step", "0.1"),
    ])
    def test_non_finite_grid_is_usage_error(self, capsys, paths, argv):
        code, out, err = run(capsys, "curve-dump", paths["fib"], *argv)
        assert code == 2
        assert argv[0].split("=")[0] in err
        assert out == ""

    def test_oversized_grid_is_usage_error(self, capsys, paths):
        # about 1e11 rows: refused before the first one is built
        code, out, err = run(capsys, "curve-dump", paths["fib"], "--step", "1e-12")
        assert code == 2
        assert "--step" in err
        assert out == ""

    def test_row_cap_counts_the_default_grid(self, capsys, paths, monkeypatch):
        # the default grid has 51 rows: allowed at a cap of 51, not of 50
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 51)
        code, out, _ = run(capsys, "curve-dump", paths["fib"])
        assert code == 0
        assert len(csv_rows(out)) == 1 + 51
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 50)
        code, out, err = run(capsys, "curve-dump", paths["fib"])
        assert code == 2
        assert "--step" in err
        assert out == ""

    def test_invalid_model(self, capsys, paths):
        code, _, _ = run(capsys, "curve-dump", paths["bad_norm"])
        assert code == 1


class TestEscape:
    def test_interior_value(self, capsys, paths):
        code, out, _ = run(capsys, "escape", paths["fib"], "1", "1")
        assert code == 0
        assert float(body_value(out, "escape_probability")) == pytest.approx(
            0.17317888355122063, abs=1e-13
        )
        assert float(body_value(out, "tail_bound")) < 1e-13
        assert int(body_value(out, "terms_used")) > 10

    def test_boundary_is_exact_zero(self, capsys, paths):
        code, out, _ = run(capsys, "escape", paths["fib"], "0", "3")
        assert code == 0
        assert body_value(out, "escape_probability") == "0"
        assert body_value(out, "terms_used") == "0"

    def test_boundary_mc_check_is_exact_zero(self, capsys, paths):
        # an absorbed start is not simulated: its Monte Carlo value is 0 too
        code, out, _ = run(
            capsys, "escape", paths["fib"], "0", "3", "--mc-check", "64", "10", "1",
        )
        assert code == 0
        assert body_value(out, "mc_mean") == "0"
        assert body_value(out, "mc_verdict") == "agree"

    @pytest.mark.parametrize("mc_check, name", [
        (("0", "0", "-1"), "n_paths"), (("64", "10", "-1"), "seed"),
    ])
    def test_boundary_mc_check_inputs_are_gated(self, capsys, paths, mc_check, name):
        # an absorbed start is not simulated, but its inputs are checked
        # as an interior start's are
        code, out, err = run(
            capsys, "escape", paths["fib"], "0", "3", "--mc-check", *mc_check,
        )
        assert code == 2
        assert name in err
        assert out == ""

    def test_mc_check_agrees(self, capsys, paths):
        code, out, _ = run(
            capsys, "escape", paths["fib"], "1", "1",
            "--mc-check", "20000", "500", "77",
        )
        assert code == 0
        assert "# seed: 77" in out
        assert body_value(out, "mc_verdict") == "agree"
        delta = float(body_value(out, "mc_delta"))
        se = float(body_value(out, "mc_std_error"))
        bias = float(body_value(out, "mc_bias_bound"))
        assert 0.0 <= bias <= 1e-7
        assert delta <= 3.0 * se + bias + 1e-10
        keys = [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("mc_")]
        assert keys == ["mc_mean", "mc_std_error", "mc_bias_bound", "mc_delta",
                        "mc_verdict"]

    def test_negative_coordinate(self, capsys, paths):
        code, _, err = run(capsys, "escape", paths["fib"], "-1", "2")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("i,j", [("2000", "1"), ("1", "2000")])
    def test_far_start_is_served(self, capsys, paths, i, j):
        # the other axis is exited with chance 2^-2000 at most
        code, out, _ = run(capsys, "escape", paths["fib"], i, j)
        assert code == 0
        value = float(body_value(out, "escape_probability"))
        assert abs(value - 0.5) <= float(body_value(out, "tail_bound")) + 1e-14

    @pytest.mark.parametrize("argv", [
        ["3000000000", "1", "--mc-check", "64", "10", "1"],
        [str(2**53), "1"],
        [str(10**400), "1"],
    ])
    def test_unservable_start_is_usage_error(self, capsys, paths, argv):
        code, _, err = run(capsys, "escape", paths["fib"], *argv)
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("i,j", [("0", "1"), ("1", "1")])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_tolerance_not_positive_is_usage_error(self, capsys, paths, i, j, tol):
        # an axis start needs no series, but its tolerance is checked too
        code, out, err = run(capsys, "escape", paths["fib"], i, j, "--tol", tol)
        assert code == 2
        assert "tol" in err
        assert out == ""


class TestHarmonicTable:
    def test_small_table(self, capsys, paths):
        code, out, _ = run(
            capsys, "harmonic-table", paths["fib"], "--imax", "3", "--jmax", "2"
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["i", "1", "2"]
        assert len(rows) == 4
        assert float(rows[3][2]) == pytest.approx(0.6319349959640216, abs=1e-13)

    def test_bounds_column(self, capsys, paths):
        _, out, _ = run(
            capsys, "harmonic-table", paths["fib"],
            "--imax", "2", "--jmax", "2", "--bounds",
        )
        rows = csv_rows(out)
        assert rows[0][-1] == "tail_bound"
        assert all(float(r[-1]) >= 0.0 for r in rows[1:])

    def test_bad_bounds(self, capsys, paths):
        code, _, _ = run(capsys, "harmonic-table", paths["fib"], "--imax", "0")
        assert code == 2

    def test_cell_cap_counts_the_grid(self, capsys, paths, monkeypatch):
        # a 3 x 4 grid has 12 cells: allowed at a cap of 12, not of 11
        argv = ("harmonic-table", paths["fib"], "--imax", "3", "--jmax", "4")
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 12)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(csv_rows(out)) == 1 + 3
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 11)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "--imax" in err and "11" in err
        assert out == ""

    def test_oversized_grid_is_usage_error(self, capsys, paths):
        code, out, err = run(capsys, "harmonic-table", paths["fib"],
                             "--imax", "100000", "--jmax", "100000")
        assert code == 2
        assert "100000 grid cells" in err
        assert out == ""


class TestBoundaryHarmonic:
    def test_value(self, capsys, paths):
        code, out, _ = run(capsys, "boundary-harmonic", paths["fib"], "1", "1")
        assert code == 0
        assert float(body_value(out, "boundary_harmonic")) == pytest.approx(
            0.758535465461935, abs=1e-11
        )

    def test_axis_rejected(self, capsys, paths):
        code, _, _ = run(capsys, "boundary-harmonic", paths["fib"], "0", "1")
        assert code == 2

    def test_overflow_is_numerical_failure(self, capsys, paths):
        # the function grows exponentially along the boundary
        code, _, err = run(capsys, "boundary-harmonic", paths["fib"], "100000", "1")
        assert code == 3
        assert "numerical failure" in err


class TestSequence:
    def test_golden_section_gives_fibonacci_reciprocals(self, capsys, paths):
        s_star = repr((math.sqrt(5.0) - 1.0) / 2.0)
        code, out, _ = run(
            capsys, "sequence", paths["fib"], "--s", s_star,
            "--nmin", "-2", "--nmax", "2",
        )
        assert code == 0
        rows = {r[0]: r for r in csv_rows(out)[1:]}
        # inv_alpha_n = F(|4n-1|), inv_beta_n = F(|4n+1|)
        for n, fa, fb in [("-1", 5, 2), ("0", 1, 1), ("1", 2, 5), ("2", 13, 34)]:
            assert float(rows[n][3]) == pytest.approx(fa, abs=1e-9)
            assert float(rows[n][4]) == pytest.approx(fb, abs=1e-9)

    def test_default_endpoint(self, capsys, paths):
        code, out, _ = run(capsys, "sequence", paths["fib"], "--nmin", "0", "--nmax", "0")
        assert code == 0
        row = csv_rows(out)[1]
        assert float(row[1]) == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-13)
        assert float(row[2]) == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-13)

    def test_s_outside_window(self, capsys, paths):
        code, _, err = run(capsys, "sequence", paths["fib"], "--s", "1.2")
        assert code == 2
        assert "window" in err

    def test_inverted_range(self, capsys, paths):
        code, _, _ = run(capsys, "sequence", paths["fib"], "--nmin", "3", "--nmax", "1")
        assert code == 2

    def test_wide_support_rejected(self, capsys, paths):
        code, _, _ = run(capsys, "sequence", paths["big_jump"])
        assert code == 1

    # at s = 1 the fibonacci terms leave the float range from |n| = 369
    @pytest.mark.parametrize("nmin, nmax, first", [
        (0, 369, 369), (0, 400, 369), (369, 400, 369), (370, 400, 370),
        (-369, 0, -369), (-400, 0, -369), (-400, 400, -369), (-400, -380, -380),
    ])
    def test_terms_past_the_float_range_refused(self, capsys, paths, nmin, nmax, first):
        code, out, err = run(
            capsys, "sequence", paths["fib"], "--nmin", str(nmin), "--nmax", str(nmax)
        )
        assert code == 2
        assert f"reaches n = {first}," in err
        assert out == ""

    @pytest.mark.parametrize("nmin, nmax", [(0, 368), (-368, 0)])
    def test_terms_up_to_the_float_limit_print(self, capsys, paths, nmin, nmax):
        code, out, _ = run(
            capsys, "sequence", paths["fib"], "--nmin", str(nmin), "--nmax", str(nmax)
        )
        assert code == 0
        rows = csv_rows(out)[1:]
        assert [int(r[0]) for r in rows] == list(range(nmin, nmax + 1))
        assert all(math.isfinite(float(x)) and float(x) > 0 for r in rows for x in r[1:])

    def test_row_cap_counts_the_default_range(self, capsys, paths, monkeypatch):
        # the default range -6..6 has 13 rows: allowed at a cap of 13, not of 12
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 13)
        code, out, _ = run(capsys, "sequence", paths["fib"])
        assert code == 0
        assert len(csv_rows(out)) == 1 + 13
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 12)
        code, out, err = run(capsys, "sequence", paths["fib"])
        assert code == 2
        assert "--nmax" in err
        assert out == ""


class TestSimulate:
    def test_escape_row(self, capsys, paths):
        code, out, _ = run(
            capsys, "simulate", paths["fib"], "escape", "1", "1",
            "--seed", "5", "--n-paths", "4096", "--horizon", "300",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["quantity", "value", "std_error", "n_paths", "horizon", "seed"]
        q, val, se, n, hor, seed = rows[1]
        assert q == "escape"
        assert 0.0 < float(val) < 1.0
        assert (n, hor, seed) == ("4096", "300", "5")

    def test_survival_arity(self, capsys, paths):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", paths["fib"], "survival", "1", "2",
                  "--seed", "1", "--n-paths", "64"])
        assert exc.value.code == 2

    def test_seed_required(self, capsys, paths):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", paths["fib"], "escape", "1", "1", "--n-paths", "64"])
        assert exc.value.code == 2

    def test_green_with_twist(self, capsys, paths):
        code, out, _ = run(
            capsys, "simulate", paths["all_five"], "green", "1", "1", "3", "3",
            "--seed", "2", "--n-paths", "4096", "--twist-u", "2", "1",
        )
        assert code == 0
        assert "# param twist_u: (2 1)" in out
        assert csv_rows(out)[1][0] == "green"

    def test_martin_rejects_twist_flag(self, capsys, paths):
        code, _, err = run(
            capsys, "simulate", paths["all_five"], "martin", "2", "3", "9", "9",
            "--seed", "2", "--n-paths", "1024", "--twist-u", "1", "1",
        )
        assert code == 2
        assert "twist" in err

    @pytest.mark.parametrize("quantity, coords", [
        ("escape", ["1", "1"]), ("survival", ["2"]),
    ])
    def test_escape_and_survival_reject_twist_flag(self, capsys, paths, quantity,
                                                   coords):
        code, out, err = run(
            capsys, "simulate", paths["fib"], quantity, *coords,
            "--seed", "2", "--n-paths", "64", "--horizon", "10",
            "--twist-u", "2", "1",
        )
        assert code == 2
        assert "--twist-u" in err
        assert out == ""

    @pytest.mark.parametrize("u", [("nan", "1"), ("inf", "1"), ("0", "0")])
    def test_bad_twist_direction_is_usage_error(self, capsys, paths, u):
        code, out, err = run(
            capsys, "simulate", paths["all_five"], "green", "2", "2", "3", "3",
            "--seed", "5", "--n-paths", "1000", "--horizon", "4", "--twist-u", *u,
        )
        assert code == 2
        assert "--twist-u" in err
        assert out == ""

    def test_martin_parity_degenerate_is_numerical_failure(self, capsys, paths):
        code, _, err = run(
            capsys, "simulate", paths["fib"], "martin", "2", "3", "3", "4",
            "--seed", "3", "--n-paths", "2048", "--horizon", "50",
        )
        assert code == 3
        assert err.startswith("numerical failure")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_usage_error(self, capsys, paths, seed):
        code, out, err = run(
            capsys, "simulate", paths["fib"], "escape", "1", "1",
            "--seed", seed, "--n-paths", "64", "--horizon", "10",
        )
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_mc_check_seed_outside_64_bits_is_usage_error(self, capsys, paths):
        code, _, err = run(
            capsys, "escape", paths["fib"], "1", "1", "--mc-check", "64", "10", "-1",
        )
        assert code == 2
        assert "seed" in err

    def test_start_that_could_overflow_is_usage_error(self, capsys, paths):
        code, out, err = run(
            capsys, "simulate", paths["fib"], "escape", "3000000000", "1",
            "--seed", "1", "--n-paths", "64", "--horizon", "10",
        )
        assert code == 2
        assert out == ""
        assert "int32" in err

    @pytest.mark.parametrize("n_paths,horizon", [("0", "10"), ("64", "0")])
    def test_survival_sizes_are_usage_errors(self, capsys, paths, n_paths, horizon):
        code, _, err = run(
            capsys, "simulate", paths["fib"], "survival", "1", "--seed", "1",
            "--n-paths", n_paths, "--horizon", horizon,
        )
        assert code == 2
        assert "usage error" in err

    def test_green_unreachable_reports_zero(self, capsys, paths):
        code, out, _ = run(
            capsys, "simulate", paths["fib"], "green", "1", "1", "2", "3",
            "--seed", "1", "--n-paths", "1024",
        )
        assert code == 0
        assert csv_rows(out)[1][1] == "0"


class TestGreenScan:
    def test_rows_and_auto_horizon(self, capsys, paths):
        code, out, _ = run(
            capsys, "green-scan", paths["fib"], "1", "1", "--u", "1", "1",
            "--radii", "6,10", "--seed", "11", "--n-paths", "5000",
        )
        assert code == 0
        assert "# param horizon: auto" in out
        rows = csv_rows(out)
        assert rows[1][0] == "scaled_green_4_4"
        assert rows[2][0] == "scaled_green_7_7"
        assert rows[1][4] == "60"  # 10 * |y - x|_1 for y = (4,4)
        assert rows[2][4] == "120"
        assert float(rows[1][1]) > 0.0

    def test_point_stopped_in_the_first_block_keeps_its_value(self, capsys, paths):
        # (4, 4) stops at step 60, inside the first block of the walk it
        # shares with (7, 7): it prints what a scan of it alone printed
        code, out, _ = run(
            capsys, "green-scan", paths["fib"], "1", "1", "--u", "1", "1",
            "--radii", "6,10", "--seed", "11", "--n-paths", "20000",
        )
        assert code == 0
        assert csv_rows(out)[1][:2] == ["scaled_green_4_4", "0.36472982217133448"]

    def test_explicit_horizon_column(self, capsys, paths):
        code, out, _ = run(
            capsys, "green-scan", paths["fib"], "1", "1", "--u", "1", "1",
            "--radii", "6,10", "--seed", "11", "--n-paths", "64",
            "--horizon", "25",
        )
        assert code == 0
        assert [row[4] for row in csv_rows(out)[1:]] == ["25", "25"]

    def test_bad_direction(self, capsys, paths):
        code, _, _ = run(
            capsys, "green-scan", paths["fib"], "1", "1", "--u", "0", "1",
            "--radii", "5", "--seed", "1", "--n-paths", "64",
        )
        assert code == 2

    @pytest.mark.parametrize("u, radii, name", [
        (("1", "1"), "inf", "radii"), (("1", "1"), "5,nan", "radii"),
        (("nan", "1"), "5", "direction"), (("inf", "1"), "5", "direction"),
    ])
    def test_non_finite_input_is_usage_error(self, capsys, paths, u, radii, name):
        code, out, err = run(
            capsys, "green-scan", paths["fib"], "1", "1", "--u", *u,
            "--radii", radii, "--seed", "1", "--n-paths", "100",
        )
        assert code == 2
        assert name in err
        assert out == ""

    def test_empty_radii(self, capsys, paths):
        code, _, _ = run(
            capsys, "green-scan", paths["fib"], "1", "1", "--u", "1", "1",
            "--radii", ",", "--seed", "1", "--n-paths", "64",
        )
        assert code == 2


class TestCompare:
    def test_boundary_rows_and_z(self, capsys, paths):
        code, out, _ = run(
            capsys, "compare", paths["fib"], "2", "2",
            "--imin", "0", "--jmin", "0",
            "--seed", "31", "--n-paths", "2000", "--horizon", "200",
        )
        assert code == 0
        rows = csv_rows(out)
        assert rows[0] == ["i", "j", "series", "tail_bound",
                           "mc_mean", "mc_std_error", "z"]
        assert len(rows) == 1 + 9
        assert rows[1] == ["0", "0", "0", "0", "0", "0", "0"]
        interior = [r for r in rows[1:] if r[0] != "0" and r[1] != "0"]
        assert all(abs(float(r[6])) < 6.0 for r in interior)

    def test_zero_std_error_gives_an_infinite_z(self, capsys, tmp_path):
        # all 5 paths from (2, 2) escape: mc_mean 1 and mc_std_error 0,
        # against a series value below 1
        model = Path(__file__).resolve().parent.parent / "models" / "diag_heavy.txt"
        code, out, _ = run(capsys, "compare", str(model), "2", "2",
                           "--seed", "1", "--n-paths", "5", "--horizon", "50")
        assert code == 0
        cells = {(r[0], r[1]): r for r in csv_rows(out)[1:]}
        i, j, series, _, mean, se, z = cells["2", "2"]
        assert float(series) < 1.0 and (mean, se, z) == ("1", "0", "inf")
        # a cell whose Monte Carlo spread is not zero keeps a finite z
        assert all(math.isfinite(float(r[6])) for p, r in cells.items() if p != ("2", "2"))

    @pytest.mark.parametrize("offset, z", [(-0.25, "-inf"), (0.0, "0")])
    def test_zero_std_error_z_takes_the_sign_of_the_gap(self, capsys, paths,
                                                        monkeypatch, offset, z):
        import cornerwalk.montecarlo as mc
        from cornerwalk import escape_probability, find_extrema, parse_model_file

        value = escape_probability(find_extrema(parse_model_file(paths["fib"])), 1, 1).value
        monkeypatch.setattr(mc, "estimate_escape", lambda dist, x, cfg: mc.SimEstimate(
            value + offset, 0.0, cfg.n_paths, cfg.horizon, 0.0, 0.0))
        code, out, _ = run(capsys, "compare", paths["fib"], "1", "1",
                           "--seed", "1", "--n-paths", "5", "--horizon", "50")
        assert code == 0
        assert csv_rows(out)[1][6] == z

    @pytest.mark.parametrize("argv, name", [
        (("--imin", "-1"), "imin"), (("--imin", "3"), "imax"),
        (("--jmin", "3"), "jmax"),
    ])
    def test_bad_range_is_usage_error(self, capsys, paths, argv, name):
        code, out, err = run(
            capsys, "compare", paths["fib"], "2", "2", *argv, "--seed", "1",
        )
        assert code == 2
        assert name in err
        assert out == ""

    @pytest.mark.parametrize("argv, name", [
        (("--seed", "-5", "--n-paths", "0", "--horizon", "0"), "n_paths"),
        (("--seed", "-5", "--n-paths", "64", "--horizon", "10"), "seed"),
    ])
    def test_axis_only_grid_gates_mc_inputs(self, capsys, paths, argv, name):
        # no row of this grid is simulated, but its inputs are checked
        code, out, err = run(
            capsys, "compare", paths["fib"], "0", "2", "--imin", "0", "--jmin", "0",
            *argv,
        )
        assert code == 2
        assert name in err
        assert out == ""

    def test_cell_cap_counts_the_grid(self, capsys, paths, monkeypatch):
        # rows 1..3 by columns 0..2 are 9 cells: allowed at 9, not at 8
        argv = ("compare", paths["fib"], "3", "2", "--jmin", "0",
                "--seed", "1", "--n-paths", "16", "--horizon", "10")
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 9)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(csv_rows(out)) == 1 + 9
        monkeypatch.setattr("cornerwalk.cli._MAX_ROWS", 8)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "IMAX" in err and "8 grid cells" in err
        assert out == ""

    def test_oversized_grid_is_usage_error(self, capsys, paths):
        code, out, err = run(capsys, "compare", paths["fib"], "100000", "100000",
                             "--seed", "1", "--n-paths", "1", "--horizon", "1")
        assert code == 2
        assert "100000 grid cells" in err
        assert out == ""

    def test_byte_identical_reruns(self, capsys, paths, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = main([
                "compare", paths["fib"], "2", "2",
                "--seed", "31", "--n-paths", "2000", "--horizon", "100",
                "-o", str(target),
            ])
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert b"# seed: 31" in a.read_bytes()

    def test_sorted_param_lines(self, capsys, paths):
        _, out, _ = run(
            capsys, "compare", paths["fib"], "1", "1",
            "--seed", "1", "--n-paths", "100", "--horizon", "10",
        )
        params = [ln.split()[2].rstrip(":") for ln in out.splitlines()
                  if ln.startswith("# param")]
        assert params == sorted(params)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.10.0"


def test_parser_builds_all_subcommands():
    p = build_parser()
    names = set(p._subparsers._group_actions[0].choices)
    assert names == {
        "validate", "curve-dump", "escape", "harmonic-table",
        "boundary-harmonic", "sequence", "simulate", "green-scan", "compare",
    }
