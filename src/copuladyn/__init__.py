"""Empirical pairwise copulas, Gaussian baselines, and tail-dependence dynamics.

The package estimates the dependence structure of synchronous intraday return
series on marginal quantile grids, compares it cell by cell against the
Gaussian copula implied by measured Pearson correlations, and tracks tail
dependence against the market's average correlation level over rolling
trading-day windows.
"""

__version__ = "0.1.0"

from .copula import (
    CopulaGrid,
    average_pairwise_density,
    empirical_copula_cumulative,
    empirical_copula_density,
    interpolate_cumulative,
    quantile_bins,
    rebuild_joint_cdf,
    write_grid_csv,
)
from .empirical import EmpiricalDistribution, ecdf, quantile, rank_transform
from .gaussian import (
    DifferenceGrid,
    GaussianCopulaParams,
    average_gaussian_density,
    bivariate_normal_cdf,
    difference_map,
    gaussian_copula_cdf,
    gaussian_copula_density,
    gaussian_grid,
    std_normal_cdf,
    std_normal_quantile,
    write_difference_csv,
)
from .ingest import (
    CalendarError,
    PriceDataError,
    PricePanel,
    ReturnMatrix,
    TradingCalendar,
    compute_returns,
    load_calendar,
    load_prices,
    pair_view,
)
from .synth import (
    SynthSpec,
    sample_bivariate_gaussian,
    sample_panel,
    synthetic_timestamps,
    write_price_csv,
)
from .taildep import (
    CorrelationMatrix,
    TailCurve,
    WindowReport,
    average_gaussian_tail,
    gaussian_tail_curve,
    lower_tail,
    mean_correlation,
    partition_windows,
    pearson_matrix,
    tail_curve,
    upper_tail,
    upper_tail_survival,
    window_report,
    windowed_reports,
    write_relation_csv,
    write_tail_curve_csv,
)

__all__ = [
    "__version__",
    "CopulaGrid",
    "DifferenceGrid",
    "GaussianCopulaParams",
    "EmpiricalDistribution",
    "CorrelationMatrix",
    "TailCurve",
    "WindowReport",
    "PricePanel",
    "ReturnMatrix",
    "TradingCalendar",
    "SynthSpec",
    "PriceDataError",
    "CalendarError",
    "ecdf",
    "quantile",
    "rank_transform",
    "empirical_copula_cumulative",
    "empirical_copula_density",
    "quantile_bins",
    "average_pairwise_density",
    "interpolate_cumulative",
    "rebuild_joint_cdf",
    "write_grid_csv",
    "std_normal_cdf",
    "std_normal_quantile",
    "bivariate_normal_cdf",
    "gaussian_copula_cdf",
    "gaussian_copula_density",
    "gaussian_grid",
    "average_gaussian_density",
    "difference_map",
    "write_difference_csv",
    "load_calendar",
    "load_prices",
    "compute_returns",
    "pair_view",
    "sample_panel",
    "sample_bivariate_gaussian",
    "synthetic_timestamps",
    "write_price_csv",
    "lower_tail",
    "upper_tail",
    "upper_tail_survival",
    "tail_curve",
    "pearson_matrix",
    "mean_correlation",
    "average_gaussian_tail",
    "gaussian_tail_curve",
    "partition_windows",
    "window_report",
    "windowed_reports",
    "write_relation_csv",
    "write_tail_curve_csv",
]
