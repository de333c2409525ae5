"""Golden outputs of ``fehd fit``: stdout and exit code, compared byte for byte.

Each case runs the CLI in process on a small simulated panel that the test
writes itself, and compares what it prints with ``tests/golden/<case>.txt``:
a first line ``exit <code>``, then stdout, then (for a case that writes
``--fe-coefs``) a ``--- fe-coefs`` line and that file.  The cases cover every
vcov kind, OLS, 2SLS, Poisson, logit and gaussian fits, an offset, a split,
panel lags, a ``--subset``, ``--ssc none``, ``i()`` terms and each output
format.  A change meant to leave the numbers alone must leave these files
alone; regenerate them only for a change that means to move them:

    PYTHONPATH=src python tests/test_golden.py

which prints, for each case, ``identical`` or how many numbers moved and
the largest relative move.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from fehd.bench import DgpConfig, dataset_to_csv, simulate_panel
from fehd.cli import main
from fehd.data import NumericColumn

GOLDEN = Path(__file__).parent / "golden"

FE2 = "indiv_id + firm_id"
CASES = {
    "ols_text_iid_hc1_cluster": [
        "--formula", f"y ~ x1 + x2 | {FE2}", "--vcov", "iid", "--vcov", "hc1",
        "--vcov", "cluster=firm_id", "--fitstat", "n,r2,ar2,wr2,rmse,wald"],
    "ols_no_fe_json_twoway": [
        "--formula", "y ~ x1 + x2", "--vcov", "twoway=indiv_id,firm_id",
        "--output", "json", "--fitstat", "n,r2,ar2,wr2,rmse,ll,bic,apr2,sq.cor,wald"],
    "ols_panel_latex_nw_dk": [
        "--formula", "y ~ x1 + x2 | firm_id", "--panel", "indiv_id,year",
        "--vcov", "nw", "--vcov", "dk", "--vcov", "nw=indiv_id,year,2",
        "--output", "latex", "--caption", "Panel", "--label", "tab:p"],
    "ols_pooled_ssc_none": [
        "--formula", f"c(y, x2) ~ csw(x1, z) | {FE2}", "--ssc", "none",
        "--vcov", "iid", "--vcov", "hc1", "--vcov", "cluster=firm_id",
        "--vcov", "twoway=indiv_id,firm_id", "--output", "json"],
    "ols_offset_fitstats": [
        "--formula", "y ~ x1 | firm_id_difficult + year", "--offset", "x2",
        "--fitstat", "n,r2,ar2,wr2,rmse,ll,bic,apr2,sq.cor"],
    "iv_json": [
        "--formula", f"y ~ x2 | {FE2} | x1 ~ z", "--vcov", "iid", "--vcov", "hc1",
        "--output", "json", "--fitstat", "n,r2,ar2,wr2,sq.cor,ivf,wh"],
    "poisson_json": [
        "--formula", f"ycount ~ x1 + x2 | {FE2}", "--family", "poisson",
        "--vcov", "iid", "--vcov", "cluster=indiv_id", "--output", "json"],
    "logit_text": [
        "--formula", "ybin ~ x1 + x2 | year", "--family", "logit",
        "--vcov", "iid", "--vcov", "hc1"],
    "gaussian_offset": [
        "--formula", "y ~ x1 | firm_id", "--family", "gaussian", "--offset", "x2",
        "--fitstat", "n,r2,ll,apr2,sq.cor"],
    "split_plotdata_fe_coefs": [
        "--formula", "y ~ x1 + x2 | indiv_id + year", "--split", "grp",
        "--vcov", "iid", "--vcov", "cluster=indiv_id", "--output", "plotdata",
        "--fe-coefs", "{tmp}/fe.csv"],
    "lags_subset_nw_json": [
        "--formula", "y ~ x1 + l(x2, 1:2) | indiv_id", "--panel", "indiv_id,year",
        "--subset", "x2 > 0.5", "--vcov", "nw", "--output", "json"],
    "i_ref_bin_interact_json": [
        "--formula", f'y ~ x1 + i(year, ref=5, bin={{"9-10": 9:10}}) + i(grp, x2) | {FE2}',
        "--vcov", "cluster=indiv_id", "--output", "json"],
    "i_categorical_interaction_json": [
        "--formula", "y ~ i(year, i.grp) | firm_id",
        "--vcov", "cluster=indiv_id", "--output", "json"],
}


def write_panel(path: Path):
    """The simulated panel plus a count, a 0/1 outcome, an instrument and a
    split column; 2000 rows."""
    ds = simulate_panel(DgpConfig(n=2000, seed=7))
    rng = np.random.default_rng(11)
    x1 = ds.numeric("x1")
    z = x1 + rng.standard_normal(ds.n_rows)
    ycount = rng.poisson(np.exp(0.5 + 0.3 * x1)).astype(float)
    ybin = (rng.random(ds.n_rows) < 1.0 / (1.0 + np.exp(-x1))).astype(float)
    grp = ds.numeric("indiv_id") % 2
    extra = {"z": z, "ycount": ycount, "ybin": ybin, "grp": grp}
    dataset_to_csv(ds.with_columns({k: NumericColumn(v) for k, v in extra.items()}),
                   str(path))


def run_case(name: str, tmp: Path, formula: str = None) -> str:
    """The case's exit line, stdout and fe-coefs file; ``formula`` replaces
    the case's formula."""
    csv_path = tmp / "panel.csv"
    if not csv_path.exists():
        write_panel(csv_path)
    case = list(CASES[name])
    if formula is not None:
        case[case.index("--formula") + 1] = formula
    args = ["--threads", "1", "fit", "--data", str(csv_path)]
    args += [a.replace("{tmp}", str(tmp)) for a in case]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    text = f"exit {code}\n{out.getvalue()}"
    fe_path = tmp / "fe.csv"
    if fe_path.exists():
        text += "--- fe-coefs\n" + fe_path.read_text()
        fe_path.unlink()
    return text


NUMBER = re.compile(r"-?\d+\.?\d*(?:[eE][+-]?\d+)?")


def describe_move(old: str, new: str) -> str:
    """``identical``, or how many numbers moved from ``old`` to ``new`` and
    the largest relative move."""
    if old == new:
        return "identical"
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return "changed apart from its numbers"
    moved = [(float(x), float(y)) for x, y in zip(a, b) if x != y]
    rel = max(abs(y - x) / (max(abs(x), abs(y)) or 1.0) for x, y in moved)
    return f"{len(moved)} numbers moved, largest relative move {rel:.2g}"


def test_describe_move():
    text = "exit 0\nx1 0.25 (1e-3)\n"
    assert describe_move(text, text) == "identical"
    assert describe_move(text, text.replace("0.25", "0.2500001")) == \
        "1 numbers moved, largest relative move 4e-07"
    assert describe_move(text, text.replace("(", "[")) == "changed apart from its numbers"


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, panel_dir):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(name, panel_dir) == expected


def test_pooled_models_print_as_standalone_fits(panel_dir):
    """The pooled case's models, whose four fits share one demeaning, print
    what the four models fitted one by one print, byte for byte but for the
    model labels."""
    def models(text):
        assert text.startswith("exit 0\n")
        entries = json.loads(text.split("\n", 1)[1])["models"]
        return [json.dumps({k: v for k, v in m.items() if k != "label"}) for m in entries]

    standalone = [m for formula in (f"y ~ x1 | {FE2}", f"y ~ x1 + z | {FE2}",
                                    f"x2 ~ x1 | {FE2}", f"x2 ~ x1 + z | {FE2}")
                  for m in models(run_case("ols_pooled_ssc_none", panel_dir, formula))]
    assert models(run_case("ols_pooled_ssc_none", panel_dir)) == standalone


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for case in sorted(CASES):
            path = GOLDEN / f"{case}.txt"
            text = run_case(case, Path(d))
            move = describe_move(path.read_text(), text) if path.exists() else "new"
            path.write_text(text)
            print(f"{case}: {move}")
