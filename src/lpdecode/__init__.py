"""lp-minimization decoding of f from corrupted measurements y = A f + e.

The package computes the sharp recovery threshold curve rho*(p) for
decoding by minimizing ||y - A x||_p^p with 0 < p <= 1, decodes instances
with an IRLS iteration, certifies or refutes the null-space recovery
conditions on concrete matrices, constructs adversarial error patterns
above threshold, and runs seeded Monte Carlo phase and concentration
experiments.
"""

from .certify import (
    CertifyReport,
    ConditionQuery,
    attack_arbitrary,
    attack_fixed_sign,
    brute_force_min_margin,
    report_json,
    search_violation,
    signed_margin,
    unsigned_margin,
)
from .decoder import (
    DecodeResult,
    DecoderConfig,
    decode,
    lp_objective,
)
from .ensemble import (
    ErrorSpec,
    Instance,
    SeedSpec,
    apply_decoder_success,
    ceil_count,
    floor_count,
    gaussian_matrix,
    make_instance,
    read_instance,
    write_instance,
)
from .errors import DomainError, LpdecodeError, NumericError, SingularityError
from .halfnormal import mu
from .harness import (
    ConcentrationReport,
    PhaseCell,
    SweepPlan,
    concentration_csv,
    concentration_study,
    phase_csv,
    run_sweep,
    trial_seeds,
)
from .seeding import generator_from, mix64, splitmix64
from .threshold import (
    CurveRequest,
    ThresholdPoint,
    curve,
    curve_csv,
    drho_dp,
    mc_threshold_oracle,
    rho_star,
    solve_zstar,
)

__version__ = "0.1.0"

__all__ = [
    "CertifyReport",
    "ConcentrationReport",
    "ConditionQuery",
    "CurveRequest",
    "DecodeResult",
    "DecoderConfig",
    "DomainError",
    "ErrorSpec",
    "Instance",
    "LpdecodeError",
    "NumericError",
    "PhaseCell",
    "SeedSpec",
    "SingularityError",
    "SweepPlan",
    "ThresholdPoint",
    "apply_decoder_success",
    "attack_arbitrary",
    "attack_fixed_sign",
    "brute_force_min_margin",
    "ceil_count",
    "concentration_csv",
    "concentration_study",
    "curve",
    "curve_csv",
    "decode",
    "drho_dp",
    "floor_count",
    "gaussian_matrix",
    "generator_from",
    "lp_objective",
    "make_instance",
    "mc_threshold_oracle",
    "mix64",
    "mu",
    "phase_csv",
    "read_instance",
    "report_json",
    "rho_star",
    "run_sweep",
    "search_violation",
    "signed_margin",
    "solve_zstar",
    "splitmix64",
    "trial_seeds",
    "unsigned_margin",
    "write_instance",
]
