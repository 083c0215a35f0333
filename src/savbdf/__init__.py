"""savbdf: semi-implicit BDFk time integration with a scalar-auxiliary-variable
energy correction, spectral spatial discretization, and an experiment harness.
"""

from .tableau import BdfTableau, UnsupportedOrderError, combine_history, tableau
from .spectral import (
    Basis,
    Field,
    Grid,
    GridMismatchError,
    IndefiniteOperatorError,
    dealias,
    inner,
    integrate,
    pointwise_map,
    sobolev_norm,
    solve_shifted,
)
from .problems import (
    ExactSolution,
    ProblemDefinition,
    allen_cahn,
    burgers,
    cahn_hilliard,
    exp_sine_product_solution,
    scalar_decay,
    with_manufactured_forcing,
)
from .stepper import (
    DivergenceError,
    EnergyPositivityError,
    MonotonicityError,
    RunReport,
    SavState,
    StepMode,
    StepRecord,
    initialize,
    run,
    step,
)
from .harness import (
    BurgersComparison,
    ConvergenceReport,
    StabilityResult,
    burgers_compare,
    convergence_study,
    default_dt_ladder,
    fit_rate,
    random_smooth_field,
    stability_probe,
)

__version__ = "0.1.0"

__all__ = [
    "BdfTableau", "UnsupportedOrderError", "combine_history", "tableau",
    "Basis", "Field", "Grid", "GridMismatchError", "IndefiniteOperatorError",
    "dealias", "inner", "integrate", "pointwise_map",
    "sobolev_norm", "solve_shifted",
    "ExactSolution", "ProblemDefinition", "allen_cahn", "burgers",
    "cahn_hilliard", "exp_sine_product_solution", "scalar_decay",
    "with_manufactured_forcing",
    "DivergenceError", "EnergyPositivityError", "MonotonicityError",
    "RunReport", "SavState", "StepMode", "StepRecord", "initialize", "run", "step",
    "BurgersComparison", "ConvergenceReport", "StabilityResult",
    "burgers_compare", "convergence_study", "default_dt_ladder", "fit_rate",
    "random_smooth_field", "stability_probe",
    "__version__",
]
