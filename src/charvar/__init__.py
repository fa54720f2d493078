"""SL(2,C) trace calculus and a machine-verified component catalog for the
Turk's head knot 8_18.

The package reconstructs matrix quadruples from 11 trace coordinates,
checks the Wirtinger relators of the knot group, and exposes samplers plus
membership residuals for the ten irreducible character-variety components,
including the parabolic census and the excellent-component quartic.
"""

from .catalog import (COMPONENTS, ROTATION_PAIR, CensusReport,
                      ComponentSample, enumerate_parabolic, excellent_quartic,
                      explore_solve, membership_residual, sample_component,
                      special_points)
from .mat2 import Mat2, has_common_eigenvector, is_irreducible_pair
from .numfield import solve_quadratic
from .reconstruct import Quadruple, realize_character
from .tracealg import (SCoords, TraceVector, det_Sdiamond, s_from_t,
                       trace_equation_residuals, trace_vector_of,
                       typeI_residuals, typeII_residuals)
from .wirtinger import is_representation, relators

__version__ = "0.1.0"
