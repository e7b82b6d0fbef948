"""Exact Hodge-type spectra of exponentially twisted de Rham cohomology for
Laurent polynomials on algebraic tori.

Everything runs in exact rational arithmetic: the jumps and graded
multiplicities of the filtration on twisted cohomology are computed twice,
by a combinatorial route (weight censuses of the Newton polytope) and by an
independent linear-algebra route (exact ranks of filtered subcomplexes), and
a dedicated projective-line engine handles the one-variable comparisons.
"""

from .errors import (BudgetExceededError, DegenerateInputError, ExpHodgeError,
                     IntegrityError, NotFullDimensionalError, ParseError)
from .laurent import LaurentPolynomial, format_laurent, make_laurent, parse_laurent
from .polytope import Face, Facet, NewtonPolytope, newton_polytope
from .linalg import SparseRationalMatrix
from .nondegen import NondegeneracyReport, is_nondegenerate
from .derham import (ComplexSlice, betti_numbers, build_filtration_level,
                     build_graded_level, top_image_profile)
from .spectrum import (AnalysisReport, HodgeSpectrum, analyze,
                       check_degeneration, check_symmetry, jump_candidates,
                       spectrum_euler, spectrum_rank)
from .curve import (CechModel, CurveFiltrationReport, PointDivisor,
                    TwoTermComplex, cech_hypercohomology, compare_filtrations,
                    pole_divisor)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ExpHodgeError", "ParseError", "NotFullDimensionalError",
    "DegenerateInputError", "BudgetExceededError",
    "IntegrityError",
    "LaurentPolynomial", "make_laurent", "parse_laurent", "format_laurent",
    "NewtonPolytope", "Face", "Facet", "newton_polytope",
    "SparseRationalMatrix",
    "NondegeneracyReport", "is_nondegenerate",
    "ComplexSlice", "build_filtration_level",
    "build_graded_level", "betti_numbers", "top_image_profile",
    "HodgeSpectrum", "AnalysisReport", "jump_candidates", "spectrum_euler",
    "spectrum_rank", "check_degeneration", "check_symmetry", "analyze",
    "PointDivisor", "TwoTermComplex", "CechModel", "CurveFiltrationReport",
    "pole_divisor", "cech_hypercohomology", "compare_filtrations",
]
