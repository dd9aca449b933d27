"""Exact symbolic workbench for non-standard quantum groups.

Layers, bottom up: scalars (exact rational functions in q and label
parameters), ncalg (noncommutative rewriting), gtensor (graded tensor
legs), hopfcore (Hopf structure maps and superization), rmatlab (matrix
R-matrix checks and catalog), frt (matrix bialgebras and dualities of any
R), algebras (the concrete presentations, with the function algebras built
by frt), reps (finite dimensional representations, ribbon data, twisting),
exterior (q-exterior calculus), cli (the named check suites).
"""

__version__ = "0.1.0"

from .scalars import ONE, ZERO, Scalar, qvar  # noqa: F401
from .ncalg import (  # noqa: F401
    Element, GeneratorSymbol, Presentation, compile_relations, overlap_check,
)
from .rmatlab import (  # noqa: F401
    RMatrix, catalog, hecke_check, qybe_check, superize_r, sybe_check,
)
from .hopfcore import HopfData, check_hopf_axioms, superize, z2_extend  # noqa: F401
from .reps import RepLabel, rep_build, ribbon_check, universal_r_eval  # noqa: F401
from .exterior import ExteriorAlgebra, omega_build  # noqa: F401
