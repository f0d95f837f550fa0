"""CLI behaviour: subcommands, exit codes, determinism, config handling."""

import csv
import io
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from apsk_shaper import (
    CSV_COLUMNS,
    Constellation,
    DomainError,
    SweepRow,
    capacity,
    cli,
    evaluate_row,
    render_csv,
)
from apsk_shaper.cli import main
from apsk_shaper.constellations import MAX_N, make_constellation

V2_ROW_VALUE = "1.19556193"  # box_muller n=2 at 5 dB, 9 significant digits


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestGenerate:
    def test_writes_canonical_file(self, tmp_path, capsys):
        out = tmp_path / "bm2.json"
        code, _, _ = run(capsys, "generate", "box_muller", "--n", "2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["family"] == "box_muller_apsk"
        assert len(doc["points"]) == 4

    def test_idempotent_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "generate", "dvb_variant", "--n", "4", "--out", str(a))[0] == 0
        assert run(capsys, "generate", "dvb_variant", "--n", "4", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_normalize_at_power_1e308_writes_the_scaled_set(self, tmp_path, capsys):
        # the mean of the squared norms overflowed: four [0, 0] points were
        # written with exit 0, and later the command exited 2
        out = tmp_path / "c.json"
        code, _, err = run(capsys, "generate", "box_muller", "--n", "2", "--power", "1e308",
                           "--normalize", "--out", str(out))
        assert (code, err) == (0, "")
        unit = make_constellation("box_muller", 2, math.ldexp(1e308, -1022), normalize=True)
        assert json.loads(out.read_text())["points"] == np.ldexp(unit.points, 511).tolist()

    def test_odd_dvb_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "dvb_variant", "--n", "3")
        assert code == 2
        assert "even" in err

    def test_qam_n1_origin(self, capsys):
        code, out, _ = run(capsys, "generate", "qam", "--n", "1")
        assert code == 0
        assert json.loads(out)["points"] == [[0.0, 0.0]]

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, "generate", "psk", "--n", "2")
        assert code == 2
        assert "family" in err


class TestEvaluate:
    def test_high_snr_qam_saturates(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                           "--snr-db", "100")
        assert code == 0
        (row,) = parse_rows(out)
        assert abs(float(row["mi_bits"]) - 2.0) < 1e-6
        assert row["method"] == "quadrature"

    def test_regression_row(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--family", "box_muller", "--n", "2",
                           "--snr-db", "5")
        assert code == 0
        (row,) = parse_rows(out)
        assert row["mi_bits"] == V2_ROW_VALUE

    def test_file_round_trip_matches_in_memory(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run(capsys, "generate", "box_muller", "--n", "3", "--out", str(out))
        code_a, text_a, _ = run(capsys, "evaluate", str(out), "--snr-db", "7.5")
        code_b, text_b, _ = run(capsys, "evaluate", "--family", "box_muller", "--n", "3",
                                "--snr-db", "7.5")
        assert code_a == code_b == 0
        assert text_a == text_b

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(run(capsys, "generate", "qam", "--n", "2")[1])
        doc["points"][1] = doc["points"][0]
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "evaluate", str(bad), "--snr-db", "10")
        assert code == 2
        assert "distinct" in err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + run(capsys, "generate", "qam", "--n", "2")[1].encode())
        code, out, err = run(capsys, "evaluate", str(bad), "--snr-db", "10")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    @pytest.mark.parametrize("extra", [[], ["--method", "mc", "--samples", "1000"],
                                       ["--normalize"]], ids=["quadrature", "mc", "normalize"])
    def test_power_1e308_gives_the_scaled_sets_row(self, capsys, extra):
        # the squared distances leave the double range (with --normalize the
        # mean of the squared norms): MI came out NaN and later exit 2. Now
        # the row is that of the set at P * 4**-511 but for avg_power
        argv = ("evaluate", "--family", "box_muller", "--n", "2", "--snr-db", "10", *extra)
        code, out, err = run(capsys, *argv, "--power", "1e308")
        assert (code, err) == (0, "")
        (row,) = parse_rows(out)
        (unit,) = parse_rows(run(capsys, *argv, "--power", repr(math.ldexp(1e308, -1022)))[1])
        scaled = math.ldexp(float(unit.pop("avg_power")), 1022)
        assert float(row.pop("avg_power")) == pytest.approx(scaled, rel=1e-8)
        assert row == unit

    @pytest.mark.parametrize("argv", [
        ["--family", "box_muller", "--power", "1.5e307", "--snr-db", "-5",
         "--method", "mc", "--samples", "1000"],
        ["--family", "qam", "--power", "8.8e307", "--snr-db", "0"],
    ], ids=["mc_at_1.5e307", "qam_at_8.8e307"])
    def test_power_near_the_double_range_gives_a_finite_row(self, capsys, argv):
        # Monte Carlo's exponents overflowed (exit 3, "MI estimate -inf"), and
        # qam's 3 P did (exit 2, naming the points); a RuntimeWarning is an
        # error in this suite
        code, out, err = run(capsys, "evaluate", "--n", "2", *argv)
        assert (code, err) == (0, "")
        (row,) = parse_rows(out)
        assert all(math.isfinite(float(row[k])) for k in ("mi_bits", "avg_power", "papr"))

    @pytest.mark.parametrize("argv", [[], ["--family", "qam"], ["--n", "2"]],
                             ids=["neither", "family-only", "n-only"])
    def test_needs_a_file_or_family_and_n(self, capsys, argv):
        code, out, err = run(capsys, "evaluate", *argv, "--snr-db", "5")
        assert (code, out) == (2, "")
        assert err == "error: need a constellation file or both --family and --n\n"

    def test_file_and_family_conflict(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run(capsys, "generate", "qam", "--n", "2", "--out", str(out))
        code, _, _ = run(capsys, "evaluate", str(out), "--family", "qam", "--snr-db", "5")
        assert code == 2

    def test_estimator_bug_sentinel_exits_3(self, capsys):
        # 4 draws cannot estimate MI reliably; this seed pushes it above capacity
        code, _, err = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                           "--snr-db", "0", "--method", "mc",
                           "--samples", "4", "--seed", "2")
        assert code == 3
        assert "capacity" in err

    def test_mc_range_error_names_the_sample_count(self, capsys):
        # 4 draws give -0.615 bits with a standard error of 1.99: too few
        # samples, not an estimator bug
        code, out, err = run(capsys, "evaluate", "--family", "box_muller", "--n", "2",
                             "--snr-db", "10", "--method", "mc",
                             "--samples", "4", "--seed", "0")
        assert (code, out) == (3, "")
        assert "estimator bug" not in err
        assert "std_error 1.99 from 4 samples" in err and "--samples" in err

    def test_order_above_cap_exits_2(self, capsys, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("nodes built for a rejected order")

        monkeypatch.setattr(capacity, "gauss_hermite_2d", no_nodes)
        for command in ("evaluate", "sweep"):
            code, out, err = run(capsys, command, "--family", "qam", "--n", "2",
                                 "--snr-db", "10", "--order", "100000")
            assert (code, out) == (2, "")
            assert "order" in err

    def test_snr_db_overflow_exits_2(self, capsys):
        code, out, err = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                             "--snr-db", "4000")
        assert (code, out) == (2, "")
        assert "snr" in err

    def test_samples_beyond_int64_exits_2(self, capsys):
        code, out, err = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                             "--snr-db", "10", "--method", "mc",
                             "--samples", "100000000000000000000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: samples must be an integer in [1, ")

    def test_samples_past_2_to_the_53_exits_2(self, capsys):
        # within int64, but the merged draw counts are doubles
        code, out, err = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                             "--snr-db", "10", "--method", "mc",
                             "--samples", "4000000000000000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: samples must be an integer in [1, 9007199254740992]")

    def test_file_power_too_large_for_a_double_exits_2(self, tmp_path, capsys):
        doc = json.loads(run(capsys, "generate", "qam", "--n", "2")[1])
        doc["power"] = 10**400
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", str(huge), "--snr-db", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: power must be a finite number > 0")

    def test_mc_seed_determinism(self, capsys):
        args = ("evaluate", "--family", "qam", "--n", "2", "--snr-db", "10",
                "--method", "mc", "--samples", "20000", "--seed", "42")
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("APSK_SHAPER_SEED", "123")
        _, out_env, _ = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                            "--snr-db", "10", "--method", "mc", "--samples", "20000")
        monkeypatch.delenv("APSK_SHAPER_SEED")
        _, out_flag, _ = run(capsys, "evaluate", "--family", "qam", "--n", "2",
                             "--snr-db", "10", "--method", "mc", "--samples", "20000",
                             "--seed", "123")
        assert out_env == out_flag


class TestSweep:
    def test_small_sweep_schema_and_order(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--family", "qam,box_muller", "--n", "3,2",
                         "--snr-db", "10,5", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == (
            "family,n,M,snr_db,mi_bits,capacity_bits,gap_bits,gap_db,avg_power,papr,method"
        )
        rows = parse_rows(text)
        assert len(rows) == 8
        keys = [(r["family"], float(r["snr_db"]), int(r["n"])) for r in rows]
        assert keys == sorted(keys)

    def test_row_fields_follow_csv_columns(self):
        assert [f.name for f in fields(SweepRow)] == [c.lower() for c in CSV_COLUMNS]

    def test_byte_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--family", "box_muller", "--n", "2,3",
                             "--snr-db", "5", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny sweep\n"
            "families = box_muller\n"
            "n = 2, 3\n"
            "snr_db = 5\n"
            "method = quad\n"
        )
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(parse_rows(out)) == 2
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--n", "2")
        assert code == 0
        assert len(parse_rows(out)) == 1

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("families = qam\nsnr = 5\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_config_bad_method_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("families = qam\nmethod = bogus\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert f"{cfg}:2: bad value for method" in err

    def test_flag_bad_method_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "qam", "--n", "2",
                             "--snr-db", "5", "--method", "bogus")
        assert (code, out) == (2, "")
        assert "invalid choice" in err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"families = qam\n# \xff\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("families box_muller\n")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("text,normalized", [
        ("yes", True), ("True", True), ("1", True), ("no", False), (" FALSE ", False),
        ("0", False),
    ])
    def test_config_normalize_reads_as_the_flag(self, tmp_path, capsys, text, normalized):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"families = box_muller\nn = 2\nsnr_db = 5\nnormalize = {text}\n")
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        flag = ["--normalize"] if normalized else []
        assert (code, out) == run(capsys, "sweep", "--family", "box_muller", "--n", "2",
                                  "--snr-db", "5", *flag)[:2]

    def test_config_normalize_that_is_not_a_boolean_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("families = qam\nnormalize = maybe\n")
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:2: bad value for normalize: not a boolean: 'maybe'\n"

    def test_gap_identity_in_rows(self, capsys):
        _, out, _ = run(capsys, "sweep", "--family", "box_muller", "--n", "2",
                        "--snr-db", "5")
        (row,) = parse_rows(out)
        lhs = float(row["capacity_bits"]) - float(row["mi_bits"])
        assert abs(lhs - float(row["gap_bits"])) < 2e-8  # 9-digit rounding


class TestRows:
    def test_evaluate_row_rejects_an_unknown_method(self):
        with pytest.raises(DomainError, match="method must be 'quadrature' or 'monte_carlo', "
                                              "got 'quad'"):
            evaluate_row(make_constellation("qam", 2), 5.0, "quad")

    def test_a_zero_power_set_has_nan_papr(self):
        row = evaluate_row(make_constellation("qam", 1), 10.0)
        assert math.isnan(row.papr) and row.avg_power == 0.0 and row.mi_bits == 0.0
        line = render_csv([row]).splitlines()[1]
        assert line == "square_qam,1,1,10,0,3.45943162,3.45943162,inf,0,nan,quadrature"

    def test_a_row_needs_m_equal_to_n_squared(self):
        # a hand-built n=1 set of 12 points
        points = np.column_stack((np.arange(12.0), np.zeros(12)))
        c = Constellation("twelve", "square_qam", 1, 1.0, points)
        with pytest.raises(DomainError, match=r"M must equal n\^2, got M=12 for n=1"):
            evaluate_row(c, 30.0)  # capacity 9.97 bits, above the set's log2(12)


class TestCompare:
    def test_default_families_and_papr(self, capsys):
        code, out, _ = run(capsys, "compare", "--n", "2", "--snr-db", "5,10")
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 4
        assert {r["family"] for r in rows} == {"box_muller_apsk", "dvb_variant_apsk"}
        for r in rows:
            assert float(r["papr"]) >= 1.0

    def test_row_count_per_snr_grid(self, capsys):
        _, out, _ = run(capsys, "compare", "--n", "2", "--snr-db", "0,5,10")
        assert len(parse_rows(out)) == 6


class TestConvergence:
    def test_default_run_exits_zero(self, tmp_path, capsys):
        prefix = str(tmp_path / "conv")
        code, _, _ = run(capsys, "convergence", "--out", prefix)
        assert code == 0
        lemma = (tmp_path / "conv_lemma.csv").read_text().splitlines()
        assert lemma[0] == "k,lhs,rhs,margin"
        k10 = next(line for line in lemma if line.startswith("10,"))
        assert k10 == "10,13.0258509,13.3682603,0.342409347"
        power = (tmp_path / "conv_power.csv").read_text()
        assert "box_muller_apsk" in power and "dvb_variant_apsk" in power
        cf = (tmp_path / "conv_cf.csv").read_text().splitlines()
        assert cf[0] == "family,n,t1,t2,abs_error"
        origin_row = next(line for line in cf if line.startswith("box_muller_apsk,64,0,0,"))
        assert origin_row.endswith(",0")

    def test_stdout_sections(self, capsys):
        code, out, _ = run(capsys, "convergence")
        assert code == 0
        assert "# lemma" in out and "# power_audit" in out and "# cf_error" in out

    def test_failed_contract_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "lemma_scan", lambda *args: ([], False))
        code, _, err = run(capsys, "convergence", "--n", "4,8")
        assert code == 4
        assert err == "error: contracted inequalities failed: lemma\n"

    def test_byte_determinism(self, tmp_path, capsys):
        pa, pb = str(tmp_path / "a"), str(tmp_path / "b")
        run(capsys, "convergence", "--out", pa)
        run(capsys, "convergence", "--out", pb)
        for suffix in ("_lemma.csv", "_power.csv", "_cf.csv"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (
                tmp_path / ("b" + suffix)
            ).read_bytes()

    def test_qam_family_rejected(self, capsys):
        code, _, _ = run(capsys, "convergence", "--family", "qam")
        assert code == 2

    def test_power_1e308_runs_with_no_overflow(self, capsys):
        # APSK once refused this power (exit 2); now the Gaussian CF's
        # exponent -P |t|^2 / 4 must not overflow, and a RuntimeWarning is an
        # error in this suite, as under -W error::RuntimeWarning
        code, out, err = run(capsys, "convergence", "--power", "1e308")
        assert (code, err) == (0, "")
        assert "# cf_error" in out

    def test_memory_is_bounded(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            code, _, _ = run(capsys, "convergence", "--out", str(tmp_path / "conv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # the lemma's 1e6-entry arrays took 32 MB when built whole, and
        # fresh arrays per block 2.5 MB
        assert peak <= 2e6, peak


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ["generate", "qam", "--n", "2", "--out"],
        ["sweep", "--family", "qam", "--n", "2", "--snr-db", "10", "--out"],
        ["compare", "--n", "2", "--snr-db", "5", "--out"],
        ["convergence", "--n", "4,8", "--out"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_exits_2(self, argv, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x")
        code, out, err = run(capsys, *argv, target)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}")
        assert not (tmp_path / "missing").exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["generate", "qam", "--n", "100000"],
        ["evaluate", "--family", "box_muller", "--n", "100000", "--snr-db", "10"],
        ["sweep", "--family", "qam", "--n", "2,100000", "--snr-db", "10"],
    ], ids=lambda argv: argv[0])
    def test_oversized_n_exits_2(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"n must be an integer in [1, {MAX_N}], got 100000" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", "x"],
        ["sweep", "--snr-db", "10,ten"],
        ["compare", "--n", "2.5"],
        ["convergence", "--n", "4,x"],
    ], ids=["sweep_n", "sweep_snr_db", "compare_n", "convergence_n"])
    def test_bad_list_item_names_the_flag(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {argv[1]}: expected a comma-separated list of" in err
        assert "_list" not in err

    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv,config", [
        (["sweep", "--n", ""], None),
        (["sweep", "--family", " , "], None),
        (["sweep", "--snr-db", ""], None),
        (["compare", "--n", ","], None),
        (["convergence", "--n", ""], None),
        (["sweep"], "families = qam\nn =\n"),
        (["compare"], "snr_db = ,\n"),
    ], ids=["sweep_n", "sweep_family", "sweep_snr_db", "compare_n", "convergence_n",
            "config_n", "config_snr_db"])
    def test_empty_list_exits_2(self, argv, config, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = [*argv, "--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "expected a comma-separated list" in err
        # a flag's error names the flag, a config's names the file and line
        assert (f"{cfg}:" in err) if config else (f"argument {argv[1]}:" in err)
