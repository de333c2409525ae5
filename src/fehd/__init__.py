"""fehd: fast high-dimensional fixed-effects regression.

Demeaning by preconditioned conjugate gradients on the fixed-effect normal
equations (one solver for any number of dimensions, with or without varying
slopes), OLS/2SLS/GLM estimators, on-the-fly sandwich variance estimators, a
multi-part formula language with stepwise multiple estimation, and table
export.
"""

from .data import (CategoricalColumn, DataError, Dataset, FactorIndex,
                   NumericColumn, SampleMask, build_mask, load_csv,
                   make_factor_index, panel_shift)
from .demean import DemeanProblem, DemeanResult, FeDim, demean, recover_fixef
from .estimators import (EstimationError, FitResult, build_frame, fit_2sls,
                         fit_glm_irls, fit_model, fit_ols, fixef)
from .formula import (FormulaError, FormulaSpec, ModelSpec, expand_i,
                      expand_models, format_formula, parse_formula)
from .inference import (VcovMatrix, VcovSpec, coeftable, compute_vcov,
                        default_lag, fit_stats, iv_tests, parse_vcov_spec)
from .multiest import MultiOptions, MultiResult, run_multi
from .present import TableSpec, plot_data, render_table
from .bench import DgpConfig, run_benchmark, simulate_panel

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
