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
    floor_count,
    gaussian_matrix,
    make_instance,
    mix64,
    read_instance,
    write_instance,
)
from .errors import DomainError, LpdecodeError, NumericError, SingularityError
from .halfnormal import mu
from .harness import (
    ConcentrationReport,
    PhaseCell,
    SweepPlan,
    concentration_study,
    run_sweep,
    trial_seeds,
)
from .threshold import (
    CurveRequest,
    ThresholdPoint,
    curve,
    drho_dp,
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
    "concentration_study",
    "curve",
    "decode",
    "drho_dp",
    "floor_count",
    "gaussian_matrix",
    "lp_objective",
    "make_instance",
    "mix64",
    "mu",
    "read_instance",
    "rho_star",
    "run_sweep",
    "search_violation",
    "signed_margin",
    "solve_zstar",
    "trial_seeds",
    "unsigned_margin",
    "write_instance",
]
