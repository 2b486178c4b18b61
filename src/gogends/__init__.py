"""Exact workbench for ends of fundamental groups of graphs of finite p-groups.

Submodules:

- ``fpcore``     finite p-groups as multiplication tables
- ``fplinalg``   dense exact linear algebra over GF(p): one in-place numpy
                 elimination kernel on uint8 residues, p <= 16
- ``gmodules``   modules over the group algebra, Nakayama counts
- ``cohomology`` H^0 and dim H^1 from ranks over the generators, lemma checks
- ``graphs``     multigraphs, matchings, the 2M + 9T edge bound
- ``gog``        graphs of groups, presentations, witness search
- ``ends``       level-wise module of ends, Fox-calculus oracle
- ``schema``     the graph-of-groups JSON document: reader and writer
- ``corpus``     built-in fixtures
- ``cli``        subcommands and canonical JSON reports

``KERNEL`` names the row-reduction kernel for report provenance; it is
always ``"python"``.
"""

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
