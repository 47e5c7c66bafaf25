"""Generalized sinc collocation on (0, inf) for singular Sturm-Liouville
eigenproblems, with the two-dimensional logarithmic Coulomb spectrum as
the flagship application."""

from .collocation import CollocationProblem, EigenPair, assemble, reconstruct, solve
from .coulomb import (
    DEFAULT_BETA,
    DEFAULT_D,
    DEFAULT_M,
    EULER_GAMMA,
    LEVEL_SHIFT,
    RadialSolution,
    eigen_table,
    evaluate_radial,
    flagship_problem,
    log_coulomb_potential,
    normalize,
    solve_states,
    state_overlap,
)
from .dense_eig import RESIDUAL_TOL, EigenDecomposition, EigenSolveError, eigh_pencil
from .sinc import (
    SincGrid,
    build_grid,
    interpolate,
    map_forward,
    map_inverse,
    quadrature,
    sinc_basis,
)

__all__ = [
    "CollocationProblem",
    "EigenDecomposition",
    "EigenPair",
    "EigenSolveError",
    "RadialSolution",
    "SincGrid",
    "EULER_GAMMA",
    "LEVEL_SHIFT",
    "DEFAULT_BETA",
    "DEFAULT_D",
    "DEFAULT_M",
    "RESIDUAL_TOL",
    "assemble",
    "build_grid",
    "eigh_pencil",
    "eigen_table",
    "evaluate_radial",
    "flagship_problem",
    "interpolate",
    "log_coulomb_potential",
    "map_forward",
    "map_inverse",
    "normalize",
    "quadrature",
    "reconstruct",
    "sinc_basis",
    "solve",
    "solve_states",
    "state_overlap",
]

__version__ = "0.1.0"
