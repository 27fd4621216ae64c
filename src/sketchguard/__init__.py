"""Sketched matrix products that estimate their own error-size tradeoff.

The library compresses a tall matrix pair (A, B) with a random sketching
operator, bootstraps the distribution of the max-abs error of the sketched
product from the sketches alone, and extrapolates the resulting quantile
curve across sketch sizes, so accuracy can be certified or the minimal
sketch size planned for a target error.
"""

from . import booterr, datagen, matcore, oracle, sketch
from .booterr import *
from .datagen import *
from .matcore import *
from .oracle import *
from .sketch import *

__version__ = "0.1.0"

# The package exports each module's __all__, in a form static checkers read.
__all__ = []
__all__ += booterr.__all__
__all__ += datagen.__all__
__all__ += matcore.__all__
__all__ += oracle.__all__
__all__ += sketch.__all__
