"""Exact finite-blocklength bounds and random-coding simulations for
output-distribution approximation, identification, and wiretap secrecy
on discrete memoryless channels."""

from .channel import (
    BudgetError,
    Channel,
    DEFAULT_BUDGET,
    Distribution,
    EnumerationBudget,
    bsc,
    constant_channel,
    dispersion_J,
    divergence_tail_check,
    identity_channel,
    kl_divergence,
    load_channel,
    load_distribution,
    mutual_information,
    output_distribution,
    point_mass,
    product,
    product_dist,
    save_channel,
    save_distribution,
    uniform,
    variational_distance,
)
from .exponents import (
    CapacityResult,
    ConvergenceError,
    ExponentReport,
    TaylorComparison,
    WiretapExponentReport,
    capacity,
    exponent_sweep,
    phi,
    phi_worst,
    psi,
    psi_worst,
    secrecy_capacity_lb,
    secrecy_rate,
    taylor_compare,
    wiretap_exponents,
)
from .identification import (
    AdParams,
    CountingVerdict,
    FamilyBuild,
    IdCode,
    IdMetrics,
    InfeasibleParams,
    RetriesExhausted,
    Selection,
    SelectionParams,
    SetFamily,
    assemble_id_code,
    build_set_family,
    eval_id_code,
    id_error_bounds,
    load_id_code,
    save_id_code,
    select_codewords,
    size_ceiling_check,
)
from .resolvability import (
    BruteForceResult,
    McEstimate,
    ResolvabilityCode,
    brute_force_min,
    eval_code,
    expectation_bounds,
    mc_expectation,
    sample_code,
)
from .spectrum import (
    TailPair,
    eta,
    product_tail_pair,
    spectrum_cdf,
    tail_pair,
)
from .wiretap import (
    ConstructionResult,
    LeakageReport,
    WiretapBounds,
    WiretapCode,
    construct_until_bounds,
    eval_wiretap,
    sample_wiretap_code,
    wiretap_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
