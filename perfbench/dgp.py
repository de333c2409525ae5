"""Inputs of the benchmark, made from the seed alone.

The panel follows the paper's simulated employee-firm data: ``n / 10``
individuals observed over 10 years, about 23 individuals per firm,
x1 ~ N(0, 1), x2 = x1^2 and y = x1 + 0.05 x2 + individual, firm and year
effects + N(0, 1) noise, every effect standard normal.  ``firm_id`` is a
random firm per row (the simple assignment); ``firm_id_difficult`` is the
sequential pattern ``row % n_firms``, which links each firm only to its
neighbours and makes the demeaning fixed point slow.  Extra columns serve the
count and the instrumental-variable models.  Nothing here imports fehd, so a
change to the program cannot change the inputs.
"""

from __future__ import annotations

import numpy as np

NB_YEAR = 10
NB_INDIV_PER_FIRM = 23

# integer-valued columns; the CSV writes them without a decimal point
INT_COLUMNS = ("indiv_id", "year", "firm_id", "firm_id_difficult", "ycount")


def panel(n: int, seed) -> dict[str, np.ndarray]:
    """Columns of the simulated panel with about ``n`` rows."""
    rng = np.random.default_rng(seed)
    nb_indiv = int(round(n / NB_YEAR))
    nb_firm = max(int(round(nb_indiv / NB_INDIV_PER_FIRM)), 1)
    rows = nb_indiv * NB_YEAR
    indiv_id = np.repeat(np.arange(1, nb_indiv + 1), NB_YEAR)
    year = np.tile(np.arange(1, NB_YEAR + 1), nb_indiv)
    firm_id = rng.integers(1, nb_firm + 1, size=rows)
    firm_id_difficult = np.arange(rows) % nb_firm + 1
    unit_fe = rng.standard_normal(nb_indiv)[indiv_id - 1]
    year_fe = rng.standard_normal(NB_YEAR)[year - 1]
    firm_fe = rng.standard_normal(nb_firm)
    x1 = rng.standard_normal(rows)
    x2 = x1 ** 2
    y = x1 + 0.05 * x2 + firm_fe[firm_id - 1] + unit_fe + year_fe + rng.standard_normal(rows)
    cols = {"indiv_id": indiv_id, "year": year, "firm_id": firm_id,
            "firm_id_difficult": firm_id_difficult, "x1": x1, "x2": x2, "y": y}
    # count outcome: Poisson(exp(y - 1)), about 58% zeros; 2% of individuals
    # have only zeros, so their effects run off to minus infinity
    cols["ycount"] = rng.poisson(np.exp(y - 1.0))
    # second outcome and an instrumented model: xe is endogenous through u
    u = rng.standard_normal(rows)
    z = rng.standard_normal(rows)
    cols["y2"] = (-0.5 * x1 + 0.2 * x2 + 0.5 * unit_fe + 0.5 * firm_fe[firm_id - 1]
                  + rng.standard_normal(rows))
    cols["z"] = z
    cols["xe"] = 0.8 * z + 0.5 * u + 0.5 * firm_fe[firm_id - 1] + 0.5 * rng.standard_normal(rows)
    cols["y3"] = 1.5 * cols["xe"] - 0.3 * x2 + unit_fe + firm_fe[firm_id - 1] + u \
        + rng.standard_normal(rows)
    return {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}


def write_csv(cols: dict[str, np.ndarray], names: list[str], path: str) -> None:
    """CSV with a header; floats in 17 significant digits, so they read back exactly."""
    fmt = ["%d" if nm in INT_COLUMNS else "%.17g" for nm in names]
    np.savetxt(path, np.column_stack([cols[nm] for nm in names]), fmt=fmt,
               delimiter=",", header=",".join(names), comments="")
