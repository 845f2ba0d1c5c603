"""Certified linear instability of unidirectional flows on the torus.

The package detects positive growth rates of the linearized vorticity
dynamics of four incompressible-flow models (plain Navier-Stokes and three
alpha-regularized variants) on lattice orbits, by solving a continued-
fraction dispersion relation, and then *certifies* each root against three
independent oracles: the spectrum of a finite-section operator matrix, the
zeros of a perturbation determinant, and direct time integration.
"""

from . import contfrac, dispersion, eigensystem, errors, lattice, models, spectral
from .contfrac import *
from .dispersion import *
from .eigensystem import *
from .errors import *
from .lattice import *
from .models import *
from .spectral import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = ["__version__"]
__all__ += lattice.__all__
__all__ += models.__all__
__all__ += contfrac.__all__
__all__ += dispersion.__all__
__all__ += eigensystem.__all__
__all__ += spectral.__all__
__all__ += errors.__all__
