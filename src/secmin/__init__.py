"""Exact-arithmetic toolkit for binomial divisibility bands, secant-variety
degrees, small-lattice successive minima, and explicit arithmetic-surface
bound evaluators."""

from .arith import (
    PrimePowerSieve,
    binomial,
    build_sieve,
    divides_binomial,
    is_prime,
    kummer_valuation,
)
from .bands import (
    BandGapRecord,
    BandGcd,
    ExcessBound,
    GapSumReport,
    asymptotic_report,
    band_gcd,
    coprimality_band,
    excess_dimension_bound,
    min_band,
    prime_band,
    prime_power_gap,
    verify_band_gap_identity,
    verify_quarter_bound,
)
from .bounds import (
    BoundReport,
    NumberFieldData,
    RATIONAL_FIELD,
    SurfaceData,
    ball_volume_log,
    height_floor,
    lambda_floor,
    mu_floor,
    omega_lambda_floor,
    omega_mu_floor,
    omega_power_surface,
    top_lambda_floor,
    transference_constant,
)
from .errors import ParameterError, ResourceLimitError, VerificationError
from .lattice import (
    AvoidanceResult,
    GramLattice,
    HomogeneousForm,
    MinimaProfile,
    RationalGram,
    SublatticeHeightTable,
    TransferenceReport,
    avoid_hypersurface,
    dual_lattice,
    evaluate_form,
    read_form,
    read_gram,
    sublattice_heights,
    successive_minima,
    verify_transference,
)
from .secant import (
    ChowElement,
    ChowSeries,
    SecantParams,
    Truncation,
    chern_series,
    degree_closed_form,
    degree_formula,
    degree_oracle,
    pushforward_degree,
    restricted_segre,
)

__version__ = "0.1.0"
