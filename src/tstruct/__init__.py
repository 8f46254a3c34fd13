"""Workbench for compactly generated truncation theory over Spec(Z).

Filtrations by supports of a spectrum classify the compactly generated
aisles of the derived category of a commutative Noetherian ring; this
package makes the classification executable over the integers and over
user-supplied finite posets of primes: Cousin conditions, censuses,
local cohomology, truncation functors, Grothendieck duality, and a
chain-level stable-Koszul oracle that cross-validates every engine
computation.
"""

__version__ = "1.0.0"

from .spectrum import (  # noqa: F401
    SPEC_Z,
    CodimFn,
    FinPoset,
    PosetSubset,
    SpecZPoint,
    ZSubset,
)
from .zmodules import FreeComplex, smith_normal_form  # noqa: F401
from .elementary import ElementaryModule  # noqa: F401
from .filtration import SpFiltration  # noqa: F401
from .derived import FormalObject, tau_filtration  # noqa: F401
