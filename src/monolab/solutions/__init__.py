from .grids import SpaceTimeGrid, GridFunction, GridPhaseSampler
from .families import Phase, TwoPhasePair, make_family, FAMILY_NAMES
from .solver import solve_heat, assemble_laplacian
from .checks import sample_pair, pair_validity_check, supercaloric_residual_check

__all__ = [
    "SpaceTimeGrid",
    "GridFunction",
    "GridPhaseSampler",
    "Phase",
    "TwoPhasePair",
    "make_family",
    "FAMILY_NAMES",
    "solve_heat",
    "assemble_laplacian",
    "sample_pair",
    "pair_validity_check",
    "supercaloric_residual_check",
]
