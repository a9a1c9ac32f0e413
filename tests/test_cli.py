import json
import math
import textwrap
from fractions import Fraction

import pytest

from codesmooth import codes as cd
from codesmooth import decoding as dec
from codesmooth import kernels as kn
from codesmooth import smoothing as sm
from codesmooth.cli import main

from conftest import run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestWiretapRates:
    def test_reference_numbers(self, capsys):
        code, out = run_cli(capsys, "wiretap", "rates",
                            "--db", "0.05", "--de", "0.3")
        assert code == 0
        rows = {r["regime"]: float(r["rate"]) for r in csv_rows(out)}
        assert abs(rows["shannon_capacity"] - 0.5949) <= 5e-4
        assert abs(rows["bec_dual"] - 0.3181) <= 5e-4
        assert abs(rows["rm"] - 0.5536) <= 5e-4

    def test_grid_sweep_ends_at_one_half(self, capsys):
        code, out = run_cli(capsys, "wiretap", "rates", "--db", "0.1", "--grid", "3")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 9 and all(r["delta_e"] == "0.5" for r in rows[2::3])

    def test_grid_sweep_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "rates.csv"
        code, _ = run_cli(capsys, "wiretap", "rates", "--db", "0.05",
                          "--regime", "rm", "--grid", "10",
                          "--csv", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# command: wiretap rates")
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 11

    def test_alpha_secrecy_regime(self, capsys):
        code, out = run_cli(capsys, "wiretap", "rates", "--db", "0.05",
                            "--de", "0.3", "--regime", "alpha_secrecy",
                            "--alpha", "2")
        assert code == 0
        assert "alpha_secrecy(a=2" in out

    def test_all_regimes_skip_alpha_secrecy_without_alpha(self, capsys):
        # one rule for a single point and a sweep
        for extra in (("--de", "0.3"), ("--grid", "3")):
            code, out = run_cli(capsys, "wiretap", "rates", "--db", "0.05", *extra)
            assert code == 0
            regimes = {r["regime"] for r in csv_rows(out)}
            assert regimes == {"shannon_capacity", "bec_dual", "rm"}, extra

    def test_all_regimes_include_alpha_secrecy_with_alpha(self, capsys):
        code, out = run_cli(capsys, "wiretap", "rates", "--db", "0.05",
                            "--grid", "3", "--alpha", "2")
        assert code == 0
        assert sum(r["regime"].startswith("alpha_secrecy") for r in csv_rows(out)) == 3

    def test_alpha_secrecy_alone_needs_alpha(self, capsys):
        for extra in (("--de", "0.3"), ("--grid", "3")):
            assert main(["wiretap", "rates", "--db", "0.05",
                         "--regime", "alpha_secrecy", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--alpha" in captured.err, extra


class TestCapacityCurve:
    def test_quarter_row(self, capsys):
        code, out = run_cli(capsys, "capacity-curve", "--grid", "101")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 101
        quarter = [r for r in rows if abs(float(r["delta"]) - 0.25) < 1e-12]
        assert len(quarter) == 1
        h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert abs(float(quarter[0]["shannon"]) - (1 - h)) < 1e-9

    def test_endpoints_exact(self, capsys):
        _, out = run_cli(capsys, "capacity-curve", "--grid", "3")
        rows = csv_rows(out)
        assert float(rows[0]["shannon"]) == 1.0
        assert float(rows[-1]["shannon"]) == 0.0
        assert float(rows[-1]["sinf"]) == 0.0


class TestCodeAndSmooth:
    def test_gen_then_smooth(self, capsys, tmp_path):
        path = tmp_path / "rm14.code"
        code, _ = run_cli(capsys, "code", "gen", "--family", "rm",
                          "--params", "1,4", "--out", str(path))
        assert code == 0
        assert cd.load_code(path).k == 5

        code, out = run_cli(capsys, "smooth", "--code", str(path),
                            "--kernel", "bernoulli:0.1",
                            "--alpha", "1,2,inf", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 16
        ds = [r["d_alpha"] for r in payload["reports"]]
        assert ds == sorted(ds)  # divergence grows with the order

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_every_form_of_the_kernel_grammar(self, capsys, tmp_path, mode):
        # each report is the library's own, on the cell pmf of the same kernel
        path, csv = tmp_path / "rm14.code", tmp_path / "bch.csv"
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "1,4", "--out", str(path))
        bch = kn.two_error_bch_profile(16)
        csv.write_text(",".join(map(str, bch.radial_profile())) + "\n")
        kernels = {"bernoulli:1/10": kn.Kernel.bernoulli(16, Fraction(1, 10)),
                   "ball:1": kn.Kernel.ball(16, 1), "sphere:2": kn.Kernel.sphere(16, 2),
                   "subcube:0,2": kn.Kernel.subcube(16, [0, 2]), f"radial:@{csv}": bch}
        rm = cd.load_code(path)
        for spec, kernel in kernels.items():
            code, out = run_cli(capsys, "smooth", "--code", str(path), "--kernel", spec,
                                "--alpha", "1,2,inf", "--mode", mode, "--json")
            assert code == 0, spec
            noisy = sm.cell_pmf(rm, kernel, mode == "exact")
            want = [sm.divergence_to_uniform(noisy, alpha) for alpha in (1, 2, math.inf)]
            got = json.loads(out)["reports"]
            assert [(r["d_alpha"], r["l_alpha"], r["dimensionless"]) for r in got] == \
                [(w.d_alpha, w.l_alpha, w.dimensionless) for w in want], spec

    def test_smooth_reads_cosets_at_n32(self, capsys, tmp_path):
        path = tmp_path / "rm25.code"
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "2,5",
                "--out", str(path))
        code, out = run_cli(capsys, "smooth", "--code", str(path),
                            "--kernel", "bernoulli:0.3", "--alpha", "0,1,2,inf", "--json")
        assert code == 0
        ds = [r["d_alpha"] for r in json.loads(out)["reports"]]
        assert ds == sorted(ds) and ds[0] == 0.0  # full support

    def test_large_order_float_equals_exact(self, capsys, tmp_path):
        # D_100 of repetition(12) under Bernoulli(1/100) is 10.8242476401;
        # the float mode must not overflow to inf on the way
        path = tmp_path / "rep12.code"
        run_cli(capsys, "code", "gen", "--family", "repetition", "--params", "12",
                "--out", str(path))
        ds = []
        for mode in ("float", "exact"):
            code, out = run_cli(capsys, "smooth", "--code", str(path), "--kernel",
                                "bernoulli:1/100", "--alpha", "100", "--mode", mode, "--json")
            assert code == 0
            ds.append(json.loads(out)["reports"][0]["d_alpha"])
        assert math.isclose(ds[0], ds[1], rel_tol=1e-9) and round(ds[1], 10) == 10.8242476401

    def test_exact_mode_perfect_code(self, capsys, tmp_path):
        path = tmp_path / "hamming.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        code, out = run_cli(capsys, "smooth", "--code", str(path),
                            "--kernel", "ball:1", "--alpha", "2",
                            "--mode", "exact", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["d_alpha"] == 0.0


class TestWiretapLeakage:
    def test_nested_rm_scheme(self, capsys, tmp_path):
        inner, outer = tmp_path / "in.code", tmp_path / "out.code"
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "1,4",
                "--out", str(inner))
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "2,4",
                "--out", str(outer))
        code, out = run_cli(capsys, "wiretap", "leakage", "--inner",
                            str(inner), "--outer", str(outer),
                            "--de", "0.3", "--alpha", "1,2,inf", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["message_bits"] == 6
        assert all(r["holds"] for r in payload["bounds"])
        assert payload["leakage"] <= payload["bounds"][0]["secrecy_bound"] + 1e-9

    def test_nested_rm_scheme_at_n32(self, capsys, tmp_path):
        inner, outer = tmp_path / "in.code", tmp_path / "out.code"
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "2,5",
                "--out", str(inner))
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "3,5",
                "--out", str(outer))
        code, out = run_cli(capsys, "wiretap", "leakage", "--inner", str(inner),
                            "--outer", str(outer), "--de", "0.1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 32 and payload["message_bits"] == 10
        assert payload["leakage"] <= payload["bounds"][0]["secrecy_bound"]

    def test_non_nested_rejected(self, capsys, tmp_path):
        inner, outer = tmp_path / "in.code", tmp_path / "out.code"
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "2,4",
                "--out", str(inner))
        run_cli(capsys, "code", "gen", "--family", "rm", "--params", "1,4",
                "--out", str(outer))
        code, _ = run_cli(capsys, "wiretap", "leakage", "--inner", str(inner),
                          "--outer", str(outer), "--de", "0.3")
        assert code == 2


class TestErasureBound:
    def test_exact_mode(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        code, out = run_cli(capsys, "erasure-bound", "--code", str(path),
                            "--delta", "0.1", "--alpha", "2")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["divergence"]) <= float(row["bec_entropy"]) + 1e-12

    def test_mc_mode_deterministic(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "parity",
                "--params", "8", "--out", str(path))
        _, out1 = run_cli(capsys, "erasure-bound", "--code", str(path),
                          "--delta", "0.1", "--alpha", "1",
                          "--mode", "mc:2000", "--seed", "3")
        _, out2 = run_cli(capsys, "erasure-bound", "--code", str(path),
                          "--delta", "0.1", "--alpha", "1",
                          "--mode", "mc:2000", "--seed", "3")
        assert out1 == out2


class TestDecodeBound:
    def test_bound_with_mc(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.02", "--list", "1", "--t", "2",
                            "--mc", "20000")
        assert code == 0
        assert "mc_estimate" in out

    def test_mc_on_linear_code_reports_exact_error(self, capsys, tmp_path):
        path = tmp_path / "r.code"
        run_cli(capsys, "code", "gen", "--family", "rm",
                "--params", "1,4", "--out", str(path))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.05", "--list", "1", "--t", "4",
                            "--mc", "20000")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        row = dict(zip(lines[2].split(","), lines[3].split(",")))
        assert row["bound_holds"] == "1"
        assert math.isclose(float(row["exact_error"]), 0.00700390765621, rel_tol=1e-11)

    def test_linear_code_without_mc_reports_exact_error(self, capsys, tmp_path):
        path = tmp_path / "r.code"
        run_cli(capsys, "code", "gen", "--family", "rm",
                "--params", "1,4", "--out", str(path))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.05", "--list", "1", "--t", "4")
        assert code == 0
        assert "mc_estimate" not in out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[2] == "exact_error,bound_holds"
        row = dict(zip(lines[2].split(","), lines[3].split(",")))
        assert row["bound_holds"] == "1"
        assert math.isclose(float(row["exact_error"]), 0.00700390765621, rel_tol=1e-11)

    def test_refused_exact_error_leaves_the_bound(self, capsys, tmp_path):
        # 2^32 cosets: the budget refuses the exact error, not the bound
        path = tmp_path / "r.code"
        run_cli(capsys, "code", "gen", "--family", "random_linear",
                "--params", "40,8,0", "--out", str(path))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.05", "--t", "3")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 1 and "exact_total" in rows[0]
        assert math.isclose(float(rows[0]["total"]), 0.722328304375, rel_tol=1e-11)

    def test_exit_status_follows_the_exact_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r.code"
        run_cli(capsys, "code", "gen", "--family", "rm",
                "--params", "1,4", "--out", str(path))
        # the bound is 0.725 here: an error of 1 breaks it
        monkeypatch.setattr(dec, "decoding_error_exact", lambda *args: Fraction(1))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.1", "--list", "1", "--t", "3")
        assert code == 1
        assert out.rstrip().endswith("1,0")

    def test_mc_on_explicit_code_has_no_exact_error(self, capsys, tmp_path):
        path = tmp_path / "e.code"
        cd.save_code(str(path), cd.ExplicitCode(7, cd.hamming(3).codeword_ints()))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.02", "--list", "1", "--t", "2",
                            "--mc", "5000")
        assert code == 0
        assert "mc_estimate,mc_stderr,bound_holds" in out
        assert "exact_error" not in out

    def test_asymptotic_form(self, capsys, tmp_path):
        path = tmp_path / "r.code"
        run_cli(capsys, "code", "gen", "--family", "random_linear",
                "--params", "18,6,11", "--out", str(path))
        code, out = run_cli(capsys, "decode-bound", "--code", str(path),
                            "--delta", "0.05", "--theta", "0.6")
        assert code == 0
        row = csv_rows(out)[0]
        assert math.isfinite(float(row["total"]))


class TestMcQn:
    def test_byte_stable(self, capsys):
        args = ["mc", "qn", "--n", "10", "--rate", "0.6",
                "--kernel", "bernoulli:0.1", "--alpha", "2",
                "--trials", "200", "--seed", "42"]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fractional_alpha(self, capsys):
        code, out = run_cli(capsys, "mc", "qn", "--n", "8", "--rate", "0.7",
                            "--kernel", "bernoulli:0.1", "--alpha", "3/2",
                            "--trials", "100", "--seed", "1")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["estimate"]) - 3 * float(row["stderr"]) \
            <= float(row["recursive_bound"])

    def test_integer_alpha_reports_exact_moment(self, capsys):
        code, out = run_cli(capsys, "mc", "qn", "--n", "8", "--rate", "0.7",
                            "--kernel", "bernoulli:0.1", "--alpha", "3",
                            "--trials", "200", "--seed", "1")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["exact"]) <= float(row["recursive_bound"])
        assert abs(float(row["estimate"]) - float(row["exact"])) <= 4 * float(row["stderr"])

    def test_fractional_alpha_has_no_exact_column(self, capsys):
        _, out = run_cli(capsys, "mc", "qn", "--n", "8", "--rate", "0.7",
                         "--kernel", "bernoulli:0.1", "--alpha", "3/2",
                         "--trials", "50", "--seed", "1")
        assert "exact" not in csv_rows(out)[0]

    def test_decimal_alpha_is_exact(self, capsys):
        # 1.1 is read as 11/10, not as its binary value with a 2^51 denominator
        code, out = run_cli(capsys, "mc", "qn", "--n", "8", "--rate", "0.7",
                            "--kernel", "bernoulli:0.1", "--alpha", "1.1",
                            "--trials", "100", "--seed", "1")
        assert code == 0
        assert math.isfinite(float(csv_rows(out)[0]["recursive_bound"]))


class TestUsageErrors:
    def test_infinite_qn_order_exits_2(self, capsys):
        code, _ = run_cli(capsys, "mc", "qn", "--n", "8", "--rate", "0.7",
                          "--kernel", "bernoulli:0.1", "--alpha", "inf",
                          "--trials", "10")
        assert code == 2

    def test_unknown_kernel_spec(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        code, _ = run_cli(capsys, "smooth", "--code", str(path),
                          "--kernel", "gauss:0.1", "--alpha", "1")
        assert code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_delta_ordering(self, capsys):
        code, _ = run_cli(capsys, "wiretap", "rates", "--db", "0.4",
                          "--de", "0.1")
        assert code == 2

    def test_rates_need_de_or_grid(self, capsys):
        code, _ = run_cli(capsys, "wiretap", "rates", "--db", "0.05")
        assert code == 2

    def test_erasure_bound_rejects_an_unknown_mode(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        capsys.readouterr()
        for mode in ("bogus", "mc", "mc:", "mc:ten", "exact:5"):
            assert main(["erasure-bound", "--code", str(path), "--delta", "0.1",
                         "--alpha", "2", "--mode", mode]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--mode" in err, mode

    def test_erasure_bound_needs_a_trial(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        capsys.readouterr()
        assert main(["erasure-bound", "--code", str(path), "--delta", "0.1",
                     "--alpha", "2", "--mode", "mc:0"]) == 2
        assert "trials >= 1" in capsys.readouterr().err

    def test_decode_bound_needs_t_or_theta(self, capsys, tmp_path):
        path = tmp_path / "h.code"
        run_cli(capsys, "code", "gen", "--family", "hamming",
                "--params", "3", "--out", str(path))
        capsys.readouterr()
        assert main(["decode-bound", "--code", str(path), "--delta", "0.02"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--t" in err and "--theta" in err

    @pytest.mark.parametrize("command", [
        ["erasure-bound", "--delta", "0.1", "--alpha", "2", "--mode", "exact"],
        ["erasure-bound", "--delta", "0.1", "--alpha", "2", "--mode", "mc:100"],
        ["wiretap", "leakage", "--de", "0.3", "--alpha", "1"],
    ], ids=["erasure-exact", "erasure-mc", "wiretap-leakage"])
    def test_linear_only_commands_refuse_an_explicit_code(self, capsys, tmp_path, command):
        # the Hamming words as a word list: not a linear code for these commands
        words, inner = tmp_path / "e.code", tmp_path / "in.code"
        cd.save_code(str(words), cd.ExplicitCode(7, cd.hamming(3).codeword_ints()))
        cd.save_code(str(inner), cd.repetition(7))
        where = ["--code", str(words)] if command[0] == "erasure-bound" else \
            ["--inner", str(inner), "--outer", str(words)]
        assert main(command + where) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "needs a linear code" in captured.err


def test_package_imports_without_scipy():
    # numpy and mpmath carry every computation; scipy is for the bench only
    probe = ("import sys, codesmooth, codesmooth.cli, codesmooth.verify; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert run_fresh(probe).strip() == "[]"


def test_package_loads_its_modules_on_first_use():
    # an ensemble run loads the transform, the kernels and the ensemble
    # code, and neither mpmath nor any other submodule
    probe = textwrap.dedent("""
        import sys
        import codesmooth
        from codesmooth import random_coding
        print(sorted(m for m in sys.modules if m == "mpmath" or m.startswith("codesmooth")))
        for name in codesmooth.__all__:
            getattr(codesmooth, name)
        assert set(codesmooth.__all__) <= set(dir(codesmooth))
        star = {}
        exec("from codesmooth import *", star)
        assert set(codesmooth.__all__) <= set(star)
        assert star["Kernel"] is codesmooth.kernels.Kernel
        assert codesmooth.reports.BoundReport is codesmooth.BoundReport
        try:
            codesmooth.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    loaded, missing = run_fresh(probe).splitlines()
    assert loaded == str(["codesmooth", "codesmooth.hypercube", "codesmooth.kernels",
                          "codesmooth.random_coding"])
    assert missing == "module 'codesmooth' has no attribute 'no_such_name'"


def test_help_loads_no_computational_module():
    # each subcommand imports what it calls, so the parser needs neither
    # numpy nor any module that computes
    probe = textwrap.dedent("""
        import sys
        from codesmooth import cli
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
        print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("codesmooth")))
    """)
    assert run_fresh(probe).splitlines()[-1] == str(["codesmooth", "codesmooth.cli",
                                                     "codesmooth.reports"])


def test_ensemble_import_defers_the_trial_pool():
    # the pool's thread machinery loads at the first pooled estimate
    probe = textwrap.dedent("""
        import sys
        from codesmooth import random_coding
        print("concurrent.futures" in sys.modules, "mmap" in sys.modules)
    """)
    assert run_fresh(probe).split() == ["False", "False"]
