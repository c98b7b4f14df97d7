"""Secure over-the-air computation toolkit.

Simulates channel-inversion aggregation of Gaussian source data over a
multiple-access fading channel in the presence of (possibly cooperating)
eavesdroppers, evaluates closed-form accuracy and security metrics together
with Monte Carlo oracles, optimizes correlated zero-forcing artificial-noise
precoders via linear programming, and reproduces the experiment sweeps as
deterministic presets.
"""

from .channel import (
    ScenarioConfig,
    SystemRealization,
    calibrate_noise,
    config_from_dict,
    config_to_dict,
    realization_from_dict,
    realization_to_dict,
    sample_realization,
    sample_realizations,
)
from .encoding import (
    NoisePrecoder,
    build_precoder,
    eta_bounds_given_mu,
    eta_from_delta,
    eta_upper_bound,
)
from .errors import (
    ConfigurationError,
    ContractError,
    InfeasibleError,
    ShapeError,
    SingularMatrixError,
)
from .experiments import (
    ExperimentPreset,
    ResultTable,
    collect_trials,
    default_preset,
    read_table,
    run_preset,
    write_table,
)
from .lp import LpProblem, LpSolution, solve_lp
from .metrics import (
    CrossCovarianceReport,
    OracleReport,
    SecurityReport,
    approximation_error,
    closed_forms,
    coop_security,
    effective_channel_security,
    evaluate,
    mc_oracle,
    noncoop_security,
    statistical_csi_check,
)
from .optimizer import optimize_designs
from .version import __version__

__all__ = [
    "__version__",
    "ScenarioConfig",
    "SystemRealization",
    "calibrate_noise",
    "sample_realization",
    "sample_realizations",
    "config_to_dict",
    "config_from_dict",
    "realization_to_dict",
    "realization_from_dict",
    "NoisePrecoder",
    "build_precoder",
    "eta_upper_bound",
    "eta_bounds_given_mu",
    "eta_from_delta",
    "SecurityReport",
    "OracleReport",
    "CrossCovarianceReport",
    "approximation_error",
    "coop_security",
    "noncoop_security",
    "closed_forms",
    "effective_channel_security",
    "evaluate",
    "mc_oracle",
    "statistical_csi_check",
    "optimize_designs",
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "ExperimentPreset",
    "ResultTable",
    "default_preset",
    "collect_trials",
    "run_preset",
    "write_table",
    "read_table",
    "ShapeError",
    "ContractError",
    "SingularMatrixError",
    "ConfigurationError",
    "InfeasibleError",
]
