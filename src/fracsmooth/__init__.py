"""Fractional smoothness of periodic signals.

Classical, integral, and linearized moduli of smoothness of fractional
order for trigonometric polynomials, the averaging kernel behind the
linearized variant, its zero set, and the Fourier-multiplier machinery
tying the variants together.  The numerical core is pure NumPy.
"""
from __future__ import annotations

from ._backend import backend_name
from .approx import (CutoffV, best_approx_l2, jackson_ratio, near_best_error,
                     vallee_poussin)
from .errors import (BracketError, ConvergenceError, DomainTooSmallError,
                     FracsmoothError, InvalidArgumentError,
                     UnsupportedParameterError, ZeroDenominatorError)
from .fracdiff import (apply_diff, apply_diff_series, binom_abs_sum,
                       frac_binom, symbol_values)
from .kernel import (DEFAULT_QUAD, QuadConfig, curve_points, psi_eval,
                     psi_many, series_terms_needed, write_curve_csv,
                     xn_divergence_probe, xy_prime, z_eval, z_many, z_series,
                     z_series_many, z_span)
from .moduli import (CSV_HEADER, EquivReport, ModulusRequest,
                     classical_modulus, default_alpha, equivalence_scan,
                     integral_modulus, linearized_modulus, read_report_csv,
                     star_modulus, write_report_csv, write_report_json)
from .multiplier import (MultiplierFn, beurling_bound, comparison_apply,
                         make_g1_g2, make_g_tau)
from .signal import NormParams, TrigPoly, corpus, default_corpus
from .zeros import (ZeroRecord, curve_F, find_beta0, read_registry,
                    scan_zero_set, verify_nonvanishing, write_registry,
                    y_zeros)

__version__ = "1.0.0"

__all__ = [
    "BracketError",
    "CSV_HEADER",
    "ConvergenceError",
    "CutoffV",
    "DEFAULT_QUAD",
    "DomainTooSmallError",
    "EquivReport",
    "FracsmoothError",
    "InvalidArgumentError",
    "ModulusRequest",
    "MultiplierFn",
    "NormParams",
    "QuadConfig",
    "TrigPoly",
    "UnsupportedParameterError",
    "ZeroDenominatorError",
    "ZeroRecord",
    "apply_diff",
    "apply_diff_series",
    "backend_name",
    "best_approx_l2",
    "beurling_bound",
    "binom_abs_sum",
    "classical_modulus",
    "comparison_apply",
    "corpus",
    "curve_F",
    "curve_points",
    "default_alpha",
    "default_corpus",
    "equivalence_scan",
    "find_beta0",
    "frac_binom",
    "integral_modulus",
    "jackson_ratio",
    "linearized_modulus",
    "make_g1_g2",
    "make_g_tau",
    "near_best_error",
    "psi_eval",
    "psi_many",
    "read_registry",
    "read_report_csv",
    "scan_zero_set",
    "series_terms_needed",
    "star_modulus",
    "symbol_values",
    "vallee_poussin",
    "verify_nonvanishing",
    "write_curve_csv",
    "write_registry",
    "write_report_csv",
    "write_report_json",
    "xn_divergence_probe",
    "xy_prime",
    "y_zeros",
    "z_eval",
    "z_many",
    "z_series",
    "z_series_many",
    "z_span",
]
