"""Exact workbench for ends of fundamental groups of graphs of finite p-groups.

Submodules:

- ``fpcore``     finite p-groups as multiplication tables, the primes
                 ``PRIMES`` = (2, 3)
- ``fplinalg``   dense exact linear algebra over GF(p) on uint8 residues:
                 one row reduction on packed columns, XOR at p = 2 and
                 bit-sliced at p = 3
- ``gmodules``   modules over the group algebra, Nakayama counts; no
                 subcommand calls it, only the benchmark probes and tests
- ``cohomology`` dim H^0 and dim H^1 from ranks over the generator actions,
                 lemma checks on F_p[G] read off the multiplication table
- ``graphs``     multigraphs, matchings, the 2M + 9T edge bound
- ``gog``        graphs of groups, presentations, their level-free
                 numbers (gen_count, b1, M(X)), witness search
- ``ends``       level-wise module of ends, Fox-calculus oracle
- ``schema``     the graph-of-groups JSON document and its one reader
- ``corpus``     built-in fixtures
- ``cli``        subcommands and canonical JSON reports

``KERNEL`` names the row reduction for report provenance; it is always
``"python"``, at both primes, since nothing is compiled.  It lives here,
not in ``fplinalg``, so that importing the package loads no numpy.  Only
``fplinalg``, ``gmodules``, ``cohomology`` and ``ends`` import numpy
when they load: ``counting`` and ``enumerate`` start without it, and the
other subcommands load the linear-algebra layers when they run.
``cohomology`` loads ``gmodules``: the benchmark's probes wrap its
functions, and a traced pass must not load a program module that the
untraced program did not.
"""

KERNEL = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL", "__version__"]
