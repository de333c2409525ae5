import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fehd.cli import main


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(3)
    n = 120
    fe = np.repeat(np.arange(6), 20)
    x = rng.normal(size=n)
    y = 2 * x + fe * 0.5 + rng.normal(size=n)
    lines = ["y,x,fe"] + [f"{float(y[i])!r},{float(x[i])!r},{fe[i]}" for i in range(n)]
    p = tmp_path / "d.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def run_cli(args):
    import io
    from contextlib import redirect_stdout, redirect_stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestFit:
    def test_text_table_exit_zero(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv])
        assert code == 0
        assert "Dependent Var.:" in out and "S.E. type" in out

    def test_unknown_flag_exit_one(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                  "--frobnicate"])
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_column_exit_two_names_it(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ nope | fe",
                                  "--data", data_csv])
        assert code == 2
        assert "nope" in err

    def test_formula_syntax_error_exit_one(self, data_csv):
        code, out, err = run_cli(["fit", "--formula", "y ~ +", "--data", data_csv])
        assert code == 1

    def test_json_output_and_file(self, data_csv, tmp_path):
        out_file = str(tmp_path / "res.json")
        code, *_ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                            "--output", "json", "--file", out_file])
        assert code == 0
        payload = json.loads(Path(out_file).read_text())
        assert payload["models"][0]["coefficients"]["x"]["estimate"] == pytest.approx(2.0, abs=0.2)

    def test_infinite_value_dropped_exit_zero(self, data_csv, tmp_path):
        lines = Path(data_csv).read_text().splitlines()
        y, x, fe = lines[5].split(",")
        lines[5] = f"{y},inf,{fe}"
        path = tmp_path / "inf.csv"
        path.write_text("\n".join(lines) + "\n")
        code, text, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", str(path),
                                 "--output", "json"])
        assert code == 0
        assert json.loads(text)["models"][0]["nobs"] == 119

    def test_multiple_vcov_columns(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--vcov", "iid", "--vcov", "cluster=fe"])
        assert code == 0
        assert "by: fe" in out and "IID" in out

    def test_plotdata_output(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--output", "plotdata"])
        assert code == 0
        assert out.splitlines()[0] == "model,coef,estimate,ci_low,ci_high,level"

    def test_fe_coefs_dump(self, data_csv, tmp_path):
        path = str(tmp_path / "fe.csv")
        code, *_ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                            "--fe-coefs", path])
        assert code == 0
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "model,sample,fe,level,col,value"
        assert len(lines) == 7  # header + 6 groups

    def test_dump_ast_flag(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--dump-ast"])
        assert code == 0
        ast = json.loads(out)
        assert ast["node"] == "FormulaSpec"

    def test_split_and_fsplit_exclusive(self, data_csv):
        code, _, err = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--split", "fe", "--fsplit", "fe"])
        assert code == 1

    def test_config_file_defaults(self, data_csv, tmp_path):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("output = json\n# comment\nvcov = hc1\n")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--config", str(cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["models"][0]["se_type"] == "Heteroskedasticity-robust"

    def test_flag_beats_config(self, data_csv, tmp_path):
        cfg = tmp_path / "fehd.conf"
        cfg.write_text("vcov = hc1\n")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x", "--data", data_csv,
                                "--config", str(cfg), "--vcov", "iid",
                                "--output", "json"])
        payload = json.loads(out)
        assert payload["models"][0]["se_type"] == "IID"

    def test_latex_output(self, data_csv):
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv,
                                "--output", "latex", "--caption", "T", "--label", "t"])
        assert code == 0 and r"\begin{tabular}" in out


class TestSimulateBench:
    def test_simulate_writes_csv(self, tmp_path):
        out = str(tmp_path / "panel.csv")
        code, *_ = run_cli(["simulate", "--n", "1e3", "--seed", "5", "--out", out])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].split(",") == ["indiv_id", "year", "firm_id",
                                       "firm_id_difficult", "x1", "x2", "y"]
        assert len(lines) == 1001

    def test_simulated_csv_roundtrips_through_fit(self, tmp_path):
        out = str(tmp_path / "panel.csv")
        run_cli(["simulate", "--n", "2e3", "--seed", "5", "--out", out])
        code, text, _ = run_cli(["fit", "--formula", "y ~ x1 + x2 | indiv_id + firm_id",
                                 "--data", out])
        assert code == 0 and "x1" in text

    def test_ols_offset_exit_zero(self, tmp_path):
        out = str(tmp_path / "panel.csv")
        run_cli(["simulate", "--n", "2e3", "--seed", "5", "--out", out])
        code, text, _ = run_cli(["fit", "--formula", "y ~ x1 | indiv_id + firm_id",
                                 "--data", out, "--offset", "x2"])
        assert code == 0 and "x1" in text

    def test_bench_smoke(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code, *_ = run_cli(["bench", "--sizes", "1000", "--cases", "simple2fe",
                            "--reps", "1", "--out", out])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].startswith("case,n,rep,seconds,demean_iterations")
        assert lines[1].startswith("simple2fe-ols,1000,0,")

    def test_bench_bad_case_exit_one(self):
        code, _, err = run_cli(["bench", "--sizes", "100", "--cases", "weird"])
        assert code == 1


class TestDumpAst:
    def test_dump(self):
        code, out, _ = run_cli(["dump-ast", "--formula", "y ~ sw(x1, x2) | fe"])
        assert code == 0
        ast = json.loads(out)
        assert ast["rhs"][0]["kind"] == "sw"


class TestDeterminism:
    def test_threads_do_not_change_json(self, data_csv):
        args = ["fit", "--formula", "c(y, x) ~ sw(x, y) | fe".replace("x, y", "x"),
                "--data", data_csv, "--output", "json"]
        # two lhs, shared fe: exercises the pooled path
        args = ["fit", "--formula", "c(y, x) ~ 1 | fe", "--data", data_csv,
                "--output", "json"]
        code1, out1, _ = run_cli(["--threads", "1"] + args)
        code8, out8, _ = run_cli(["--threads", "8"] + args)
        assert code1 == code8 == 0
        assert out1 == out8

    def test_env_threads(self, data_csv, monkeypatch):
        monkeypatch.setenv("FEHD_THREADS", "2")
        code, out, _ = run_cli(["fit", "--formula", "y ~ x | fe", "--data", data_csv])
        assert code == 0

    def test_installed_entry_point(self, data_csv):
        proc = subprocess.run([sys.executable, "-m", "fehd.cli", "dump-ast",
                               "--formula", "y ~ x"], capture_output=True, text=True)
        assert proc.returncode == 0
