"""skewlab: skewed-normal constructions via unit-interval skewing
mechanisms, with log-space tail diagnostics for non-infinite-divisibility
certification.

A module's ``__all__`` is its public API, and the package re-exports it:
every name there is declared once, in the module that defines it. Of
``numcore`` only ``Tolerance`` and ``DEFAULT_TOL`` are re-exported; its
kernels stay in ``skewlab.numcore``.
"""

from . import distributions, divisibility, errors, mechanisms, montecarlo
from .distributions import *
from .divisibility import *
from .errors import *
from .mechanisms import *
from .montecarlo import *
from .numcore import DEFAULT_TOL, Tolerance

__version__ = "0.1.0"

__all__ = sorted({"DEFAULT_TOL", "Tolerance", *distributions.__all__, *divisibility.__all__,
                  *errors.__all__, *mechanisms.__all__, *montecarlo.__all__})
