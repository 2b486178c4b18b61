"""Exact workbench for ends of fundamental groups of graphs of finite p-groups.

Submodules:

- ``fpcore``     finite p-groups as multiplication tables
- ``fplinalg``   dense exact linear algebra over GF(p) on uint8 residues,
                 p <= 16: one row reduction, XOR on packed columns at
                 p = 2 and numpy Gauss-Jordan at odd p
- ``gmodules``   modules over the group algebra, Nakayama counts; no
                 subcommand calls it, only the benchmark probes and tests
- ``cohomology`` H^0 and dim H^1 from ranks over the generator actions,
                 lemma checks on F_p[G] read off the multiplication table
- ``graphs``     multigraphs, matchings, the 2M + 9T edge bound
- ``gog``        graphs of groups, presentations, witness search
- ``ends``       level-wise module of ends, Fox-calculus oracle
- ``schema``     the graph-of-groups JSON document: reader and writer
- ``corpus``     built-in fixtures
- ``cli``        subcommands and canonical JSON reports

``KERNEL`` names the row reduction for report provenance; it is always
``"python"``, for both its paths, since nothing is compiled.  The
package loads ``gmodules`` itself: the benchmark's probes wrap its
functions, and a traced pass must not load a program module that the
untraced program did not.
"""

from . import gmodules  # noqa: F401  (goes with the gmodules probes)
from .fplinalg import (
    KERNEL,
    FpMatrix,
    NoSolution,
    Subspace,
    rank_profile,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL",
    "FpMatrix",
    "Subspace",
    "NoSolution",
    "rank_profile",
    "solve",
    "__version__",
]
