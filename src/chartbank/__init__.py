"""Banks of likelihood-ratio charts for quickest change-point detection.

The post-change regime is only known to lie in a set of candidate
parameters, so one chart per candidate is run in parallel and the bank
stops when any chart crosses its threshold.  The package covers the
single-sequence bank (`ChartBank`), a window-limited engine for several
independent sources (`WindowEngine`), offline design of candidate grids
and thresholds (`design`), and a Monte Carlo harness for delay and
false-alarm estimates (`simulate`).

The root re-exports each module's ``__all__``, the one list of its public names.
"""

__version__ = "0.1.0"

from .design import *
from .detectors import *
from .errors import *
from .families import *
from .simulate import *
from .windowed import *

__all__ = design.__all__ + detectors.__all__ + errors.__all__ + families.__all__ + simulate.__all__ + windowed.__all__
