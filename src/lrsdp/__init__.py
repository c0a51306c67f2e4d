"""Solver for linear SDPs with low-rank solutions.

Augmented Lagrangian outer loop over a Burer-Monteiro factorization
X = Y Y^T, with a Riemannian trust-region inner solver, saddle escape via
negative eigenvectors of the dual slack, adaptive factorization rank and
penalty, and KKT residue certification. Includes generators for Max-Cut,
matrix completion, and moment relaxations of binary quadratic and
quartic-sphere programs, plus SDPA/Gset file support and a CLI.
"""

from .alm import IterationTrace, Solution, SolverOptions, solve
from .generators import (WeightedGraph, gen_bqp_moment, gen_matrix_completion,
                         gen_maxcut, gen_quartic_sphere, random_bqp,
                         random_completion, random_quartic)
from .io_cli import (FormatError, cli_main, read_gset, read_sdpa,
                     result_document, write_sdpa)
from .manifolds import FactorPoint, RetractionError
from .problem import (ConstraintSet, KktResidues, ManifoldKind, ProblemError,
                      SdpProblem, SparseSymMatrix, kkt_residues)
from .spectral import SymOperator, extreme_eigs

__all__ = [
    "ConstraintSet", "FactorPoint", "FormatError", "IterationTrace",
    "KktResidues",
    "ManifoldKind", "ProblemError", "RetractionError", "SdpProblem",
    "Solution", "SolverOptions", "SparseSymMatrix", "SymOperator",
    "WeightedGraph", "cli_main", "extreme_eigs", "gen_bqp_moment",
    "gen_matrix_completion", "gen_maxcut", "gen_quartic_sphere",
    "kkt_residues", "random_bqp", "random_completion", "random_quartic",
    "read_gset", "read_sdpa", "result_document", "solve", "write_sdpa",
]

__version__ = "0.1.0"
