"""Option pricing under stable log-price dynamics via a residue series."""

from types import ModuleType as _ModuleType

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    beta_to_theta,
    log_moneyness,
    mu_fmls,
    theta_to_beta,
    validate_feller_takayasu,
)
from .pricer import (
    PriceResult,
    TermIndex,
    TermTable,
    fmls_call,
    price,
    price_call,
    price_call_strikes,
    price_put,
    residue_term,
    term_table,
    term_table_csv,
)
from .reference import black_scholes, bs_equivalent_vol
from .lab import (
    DensityGrid,
    SamplerConfig,
    density_grid,
    effective_support,
    mc_price_fmls,
    s1_scale_factor,
    sample_stable,
    stable_density,
)
from .calibrate import (
    CalibrateConfig,
    CalibrationReport,
    OptionChain,
    OptionQuote,
    aggregated_error,
    calibrate,
    calibrate_all,
    filter_quotes,
    load_chain,
    report_payload,
    synthetic_chain,
)

# every public name bound above, except the submodules the imports bind too
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
