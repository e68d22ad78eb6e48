"""Partition-limit calculus of two-index functionals along real intervals
and simulated semimartingale paths, with Monte Carlo verification of the
generalized Ito and Tanaka decompositions for Lipschitz functions."""

from .catalog import list_catalog, make_scalar_fn
from .compensator import (
    CompoundPoissonIncreasing,
    ConstantY,
    PathQV,
    PoissonCounting,
    StateY,
    StepY,
    martingale_check,
    verify_compensator,
)
from .decompose import (
    DecompositionReport,
    ito_decompose,
    occupation_local_time,
    tanaka_decompose,
)
from .errors import (
    PathcalcError,
    ResolutionExhaustedError,
    SchemaError,
    UnsupportedModelError,
)
from .functional import (
    ExpansionReport,
    Partition,
    ScalarFn,
    TwoIndexFn,
    derivative_limit,
    increment_fn,
    linear_remainder,
    lipschitz_scan,
    partition_sum,
    squared_increment,
    summability_limit,
    taylor_check,
)
from .paths import (
    BrownianMotion,
    CompoundPoissonJumps,
    FiniteVariationPath,
    JumpDiffusion,
    SamplePath,
    TwoPointLaw,
    UniformLaw,
    simulate,
)
from .riemann import (
    ConvergenceDiagnostic,
    RiemannGrid,
    boundedness_scan,
    build_grid,
    dyadic_grid,
    hitting_grid,
    limit_in_probability,
    pathwise_sum,
    realized_qv,
)

__version__ = "0.1.0"
