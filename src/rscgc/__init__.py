"""Helmholtz multigrid with a real-shifted coarsest-level correction."""

from .discretization import (HelmholtzProblem, SlownessModel, SparseOperator,
                             assemble_operator, load_model, make_model,
                             omega_for_ppw, point_source)
from .dispersion import (AnalysisConfig, DispersionScan, export_dispersion_curve,
                         ncrit_bounds, optimize_shift)
from .krylov import SolveReport, fgmres, stationary_solve
from .multigrid import (CyclePlan, MultigridHierarchy, TransferPair,
                        build_hierarchy, build_rediscretized_hierarchy,
                        coarse_solve, cycle, jacobi_smooth, transfer_matrices)
from .stencils import Stencil, restriction_stencil

__version__ = "0.1.0"

__all__ = [
    "HelmholtzProblem", "SlownessModel", "SparseOperator", "assemble_operator",
    "load_model", "make_model", "omega_for_ppw", "point_source",
    "AnalysisConfig", "DispersionScan", "export_dispersion_curve", "ncrit_bounds",
    "optimize_shift",
    "SolveReport", "fgmres", "stationary_solve",
    "CyclePlan", "MultigridHierarchy", "TransferPair", "build_hierarchy",
    "build_rediscretized_hierarchy", "coarse_solve", "cycle", "jacobi_smooth",
    "transfer_matrices",
    "Stencil", "restriction_stencil",
]
