"""Long-time asymptotic expansions for the forced incompressible equations
on the periodic box: decay-function systems, exponent-lattice closure,
expansion-coefficient recursions, an exponential-integrator Galerkin solver
and a numerical verification harness."""

from .spectral import (
    GevreyIndex,
    SpectralField,
    SpectralRangeError,
    CutoffMismatchError,
    FieldInvariantError,
    advection_sum,
    apply_inverse_stokes,
    apply_multiplier,
    bilinear_form,
    gevrey_norm,
    inner_product,
    leray_project,
    low_mode_project,
    random_solenoidal_field,
    smoothing_constant,
    trilinear_form,
)
from .systems import (
    DecaySystem,
    DomainError,
    Exponent,
    IteratedLogSystem,
    PowerSystem,
    ProductSystem,
    Report,
    SinLogSystem,
    SqrtShiftSystem,
    SystemSpecError,
    TanLogSystem,
    VeeTerm,
    iterated_log,
    system_from_json,
    verify_system_conditions,
)
from .lattice import (
    ClosureError,
    ExponentLattice,
    LatticeEntry,
    closure,
    decompose_product_exponent,
)
from .expansion import (
    Expansion,
    ExpansionError,
    compute_coefficients,
    evaluate_expansion,
    normalize_force,
    recursion_residual,
)
from .solver import (
    BlowUpError,
    ExtraTerm,
    ForceSpec,
    SimulationTrace,
    energy_budget,
    evaluate_force,
    integrate_linearized,
    integrate_nse,
)
from .verify import (
    DecayFit,
    check_bilinear_estimate,
    check_series_expansion,
    fit_decay_order,
    manufacture_force,
    remainder_series,
)

__version__ = "0.1.0"
