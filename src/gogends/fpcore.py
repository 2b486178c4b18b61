"""Finite p-group arithmetic: tables, subgroups, homomorphisms.

Groups live entirely as multiplication tables on dense element indices
0..order-1 with index 0 the identity, held as rows of Python ints; every
element carries a BFS normal form word in the distinguished generators.
The closed-form catalog (cyclic, elementary abelian, dihedral/quaternion
of order 8, Heisenberg, direct products) is complete only up to order 8
at p = 2 and 9 at p = 3: it has 7 of the 14 groups of order 16, 11 of 51
at 32 and 4 of 5 at 27, so a search that finds no witness in it does
not show that there is none.  Orders are capped at 256.  ``PRIMES`` are
the primes that ``fplinalg`` has a row reduction for.

This module loads without numpy, so that the subcommands that never
eliminate start without it.  Only the views that the linear-algebra
layers gather from import it, on first use: ``FiniteGroup.mult``, the
table as a uint16 array that the group keeps, and ``right_cosets``.

Every group (catalog formula, direct product, subgroup or table from a
file) is made by the one constructor ``FiniteGroup(...)``.  It copies a
table given from outside into rows of ints, and checks a square,
in-range table, a p-power order, identity at index 0, two-sided
inverses, generation and then associativity by Light's test
(Clifford-Preston, The Algebraic Theory of Semigroups I, 1.2):
(x*a)*z == x*(a*z) for all x, z, with a in an irredundant subset of the
generators.  The elements a that pass form a submagma: if a and b do,
(x*(a*b))*z = ((x*a)*b)*z = (x*a)*(b*z) = x*(a*(b*z)) = x*((a*b)*z).
It holds the identity and the kept generators, hence their closure,
which holds the other generators, and hence every element, which the
generation check reached as a product of generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import index, itemgetter

MAX_ORDER = 256
# the primes with a row reduction in fplinalg, which keys its kernels by
# them; the document reader and the command line accept exactly these
PRIMES = (2, 3)


class GroupError(ValueError):
    """Malformed group data or invariant violation."""


class ImagesInconsistent(GroupError):
    """Generator images do not extend to a homomorphism."""


def is_power_of(n: int, p: int) -> bool:
    """Whether n = p**k for some k >= 0; False for n < 1 or p < 2."""
    if n < 1 or p < 2:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def _irredundant(rows, candidates) -> tuple[list[int], list[int]]:
    """The candidates, in order, that are not in the closure of those kept
    before them, and the closure of all of them: the identity's orbit
    under right multiplication.  A group of order p^k keeps at most k."""
    kept: list[int] = []
    seen = {0}
    queue = [0]
    for a in candidates:
        if a not in seen:
            kept.append(a)
            for x in queue:
                row = rows[x]
                for g in kept:
                    y = row[g]
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
    return kept, queue


class _Rows(list):
    """Rows of Python ints that this module built and nothing else holds:
    ``FiniteGroup`` keeps the rows as they are, where it copies any other
    table entry by entry.  Every check still runs on them."""


class FiniteGroup:
    """Finite p-group given by its multiplication table.

    ``rows()[a][b]`` is the index of the product; ``words[x]`` is a tuple
    of generator positions whose left-to-right product equals element x.
    """

    __slots__ = (
        "name", "prime", "order", "inverses", "generators", "words",
        "_bfs_order", "_rows", "_mult", "_orders", "_hash",
    )

    def __init__(self, name: str, mult, generators, prime: int):
        """``mult`` is the table as rows of ints: lists, tuples or a 2-d array."""
        if type(mult) is _Rows:
            # a plain list: indexing one takes the interpreter's fast path
            # for lists, which a subclass does not
            rows = list(mult)
        else:
            try:
                rows = [list(map(index, row)) for row in mult]
            except TypeError:
                raise GroupError("multiplication table must be rows of ints") from None
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise GroupError("multiplication table must be square")
        if n == 0 or n > MAX_ORDER:
            raise GroupError(f"order must be in 1..{MAX_ORDER}, got {n}")
        self.name = name
        self.prime = prime
        self.order = n
        self._rows = rows
        self._mult = None
        self.generators = [int(g) for g in generators]
        self._validate_table()
        self.inverses = self._compute_inverses()
        self.words, self._bfs_order = self._bfs_words()
        # Light's test, (x*a)*z == x*(a*z) for every x, z and every kept a
        for a in _irredundant(rows, self.generators)[0]:
            times_a = itemgetter(*rows[a])  # a != 0, so n >= 2: it returns tuples
            for rx in rows:
                if list(times_a(rx)) != rows[rx[a]]:
                    raise GroupError("multiplication table is not associative")
        self._orders = None
        self._hash = None

    def _validate_table(self):
        n, rows, p = self.order, self._rows, self.prime
        # bytes() takes only 0..255, which holds every index below the
        # order cap; translate deletes the indices in range
        in_range = bytes(range(n))
        try:
            stray = any(bytes(row).translate(None, in_range) for row in rows)
        except ValueError:
            stray = True
        if stray:
            raise GroupError("table entry out of range")
        if not is_power_of(n, p):
            raise GroupError(f"order {n} is not a power of {p}")
        identity = list(range(n))
        if rows[0] != identity or [row[0] for row in rows] != identity:
            raise GroupError("index 0 must be the identity")
        for g in self.generators:
            if not 0 <= g < n:
                raise GroupError("generator index out of range")

    def _compute_inverses(self) -> list[int]:
        rows = self._rows
        inverses = [row.index(0) if 0 in row else -1 for row in rows]
        for x, y in enumerate(inverses):
            if y < 0 or rows[y][x] != 0:
                raise GroupError(f"element {x} lacks a two-sided inverse")
        return inverses

    def _bfs_words(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """Normal-form words, and the elements in the order the BFS
        reached them."""
        rows = self.rows()
        words: list[tuple[int, ...] | None] = [None] * self.order
        words[0] = ()
        queue = [0]
        for x in queue:
            row, word = rows[x], words[x]
            for gi, g in enumerate(self.generators):
                y = row[g]
                if words[y] is None:
                    words[y] = word + (gi,)
                    queue.append(y)
        if len(queue) != self.order:
            raise GroupError("generators do not generate the group")
        return words, queue  # type: ignore[return-value]

    def rows(self) -> list[list[int]]:
        """The table as Python lists, ``rows()[a][b]`` the product of a
        and b: the table itself, not a copy."""
        return self._rows

    @property
    def mult(self):
        """The table as a read-only uint16 array, ``mult[a, b] ==
        rows()[a][b]``, for the gathers of the linear-algebra layers:
        built on first use and kept.  uint16 holds every index below the
        order cap at a quarter of the bytes of a default int array."""
        if self._mult is None:
            import numpy as np

            self._mult = np.array(self._rows, dtype=np.uint16)
            self._mult.flags.writeable = False
        return self._mult

    # -- basic arithmetic ------------------------------------------------

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, x: int) -> int:
        if self._orders is None:
            rows = self.rows()
            orders = []
            for a in range(self.order):
                y, k = a, 1
                while y != 0:
                    y = rows[y][a]
                    k += 1
                orders.append(k)
            self._orders = orders
        return self._orders[x]

    def __eq__(self, other) -> bool:
        """Structural equality: same prime, table, and generating set."""
        if self is other:
            return True
        return (
            isinstance(other, FiniteGroup)
            and self.prime == other.prime
            and self.order == other.order
            and self.generators == other.generators
            and self._rows == other._rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.prime, self.order, tuple(self.generators), tuple(map(tuple, self._rows))))
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism stored as the full image array over source elements."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner (inner.target must be self.source)."""
        if inner.target != self.source:
            raise GroupError("composition target/source mismatch")
        return GroupHom(inner.source, self.target, tuple(self.image[i] for i in inner.image))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of ``parent`` as a sorted element-index set."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


# -- catalog construction ------------------------------------------------


def _cyclic_rows(n: int) -> _Rows:
    r = list(range(n))
    return _Rows(r[a:] + r[:a] for a in range(n))


def _product_rows(a_rows, b_rows) -> _Rows:
    """Rows of the direct product on the index ia * |b| + ib.  Row
    (ia, ib) is, for each entry m of a's row ia in turn, b's row ib
    shifted by m * |b|."""
    nb = len(b_rows)
    # shifted[ib][m] is b's row ib shifted by m * |b|
    shifted = [[[m * nb + y for y in rb] for m in range(len(a_rows))] for rb in b_rows]
    out = _Rows()
    for ra in a_rows:
        for blocks in shifted:
            row = []
            for m in ra:
                row += blocks[m]
            out.append(row)
    return out


def trivial(prime: int) -> FiniteGroup:
    return FiniteGroup("C1", _Rows([[0]]), [], prime)


def _catalog_order(prime: int, k: int) -> int:
    """prime**k, if it is at most MAX_ORDER.  k is bounded before the
    power is taken, so a huge exponent fails at once."""
    if prime < 2:
        raise GroupError(f"prime must be at least 2, got {prime}")
    if k >= MAX_ORDER.bit_length() or prime**k > MAX_ORDER:
        raise GroupError("order exceeds catalog cap")
    return prime**k


def cyclic(prime: int, k: int) -> FiniteGroup:
    if k < 0:
        raise GroupError("cyclic exponent must be nonnegative")
    n = _catalog_order(prime, k)
    if n == 1:
        return trivial(prime)
    return FiniteGroup(f"C{n}", _cyclic_rows(n), [1], prime)


def elementary_abelian(prime: int, k: int) -> FiniteGroup:
    if k < 1:
        raise GroupError("need at least one factor")
    _catalog_order(prime, k)  # a huge k fails before any table is built
    # digit i of an element's index in base p is its coordinate i
    table = cp = _cyclic_rows(prime)
    for _ in range(k - 1):
        table = _product_rows(cp, table)
    gens = [prime**i for i in range(k)]
    return FiniteGroup(f"E{prime}^{k}", table, gens, prime)


def dihedral8() -> FiniteGroup:
    # elements r^i s^j with index 2*i + j; s r = r^-1 s
    n = 8
    table = _Rows([0] * n for _ in range(n))
    for a in range(n):
        i1, j1 = divmod(a, 2)
        for b in range(n):
            i2, j2 = divmod(b, 2)
            i = (i1 + (i2 if j1 == 0 else -i2)) % 4
            table[a][b] = 2 * i + (j1 ^ j2)
    return FiniteGroup("D8", table, [2, 1], 2)


def quaternion8() -> FiniteGroup:
    # index = 2*axis + sign_bit over [1, -1, i, -i, j, -j, k, -k]
    prod = {}  # (axis, axis) -> (sign, axis)
    for a in range(4):
        prod[(0, a)] = (1, a)
        prod[(a, 0)] = (1, a)
    for a in (1, 2, 3):
        prod[(a, a)] = (-1, 0)
    for x, y, z in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        prod[(x, y)] = (1, z)
        prod[(y, x)] = (-1, z)
    table = _Rows([0] * 8 for _ in range(8))
    for a in range(8):
        ax_a, neg_a = divmod(a, 2)
        for b in range(8):
            ax_b, neg_b = divmod(b, 2)
            sign, axis = prod[(ax_a, ax_b)]
            neg = (neg_a + neg_b + (1 if sign < 0 else 0)) % 2
            table[a][b] = 2 * axis + neg
    return FiniteGroup("Q8", table, [2, 4], 2)


def heisenberg(prime: int) -> FiniteGroup:
    """Unitriangular 3x3 group over GF(p); order p^3, exponent p for odd p."""
    n = _catalog_order(prime, 3)
    table = _Rows([0] * n for _ in range(n))
    p = prime
    for x in range(n):
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        for y in range(n):
            a2, r2 = divmod(y, p * p)
            b2, c2 = divmod(r2, p)
            a, b = (a1 + a2) % p, (b1 + b2) % p
            c = (c1 + c2 + a1 * b2) % p
            table[x][y] = a * p * p + b * p + c
    return FiniteGroup(f"Heis{p}", table, [p * p, p], p)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    if a.prime != b.prime:
        raise GroupError("factors must share the prime")
    n = a.order * b.order
    if n > MAX_ORDER:
        raise GroupError("order exceeds catalog cap")
    gens = [g * b.order for g in a.generators] + list(b.generators)
    return FiniteGroup(f"{a.name}x{b.name}", _product_rows(a.rows(), b.rows()), gens, a.prime)


def _partitions(total: int):
    """Partitions of ``total`` into weakly decreasing positive parts."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)


def catalog_groups(prime: int, max_order: int) -> list[FiniteGroup]:
    """All catalog p-groups of order <= max_order, ascending by order.

    Abelian groups are every product of cyclic factors; the nonabelian
    stock is D8/Q8 (p=2) and the Heisenberg group (odd p), each crossed
    with the abelian groups that fit under the cap: every group only up to
    order 8 at p = 2 and 9 at p = 3.  Each (prime, capped bound) catalog is
    built once per process; every call returns a fresh list of the same
    group objects.
    """
    return list(_catalog(prime, min(max_order, MAX_ORDER)))


@functools.lru_cache(maxsize=None)
def _catalog(prime: int, max_order: int) -> tuple[FiniteGroup, ...]:
    abelians: list[FiniteGroup] = []
    cyclics: dict[int, FiniteGroup] = {}
    k = 0
    while prime**k <= max_order:
        cyclics[k] = cyclic(prime, k)
        for part in _partitions(k):
            grp = trivial(prime) if not part else cyclics[part[0]]
            for exp in part[1:]:
                grp = direct_product(grp, cyclics[exp])
            abelians.append(grp)
        k += 1
    bases: list[FiniteGroup] = []
    if prime == 2 and max_order >= 8:
        bases = [dihedral8(), quaternion8()]
    elif prime > 2 and prime**3 <= max_order:
        bases = [heisenberg(prime)]
    groups = list(abelians)
    for base in bases:
        for ab in abelians:
            if base.order * ab.order <= max_order:
                groups.append(base if ab.order == 1 else direct_product(base, ab))
    groups.sort(key=lambda g: (g.order, g.name))
    return tuple(groups)


# -- subgroups and homomorphisms ------------------------------------------


def subgroup_generated(group: FiniteGroup, seeds) -> Subgroup:
    """Smallest subgroup containing the seed elements."""
    for s in seeds:
        if not 0 <= int(s) < group.order:
            raise GroupError(f"seed {s} out of range")
    closure = _irredundant(group.rows(), [int(s) for s in seeds])[1]
    return Subgroup(group, tuple(sorted(closure)))


def hom_from_images(src: FiniteGroup, dst: FiniteGroup, gen_images) -> GroupHom:
    """Unique multiplicative extension of generator images, fully verified.

    The image is built along the BFS tree of ``src.words``: an element
    reached as x*s (s the i-th generator) maps to image[x]*gen_images[i].
    Every other pair (x, i) is checked, image[x*s] == image[x]*gen_images[i],
    stopping at the first mismatch.  At the identity x this reads image[s] ==
    gen_images[i], so a repeated or identity generator whose given image
    disagrees with the others is rejected.  Checking every element against
    every generator is equivalent to checking the whole table: each y is
    a word in the generators, so image[x*y] == image[x]*image[y] follows
    by induction on its length.
    """
    gen_images = [int(g) for g in gen_images]
    gens = src.generators
    if len(gen_images) != len(gens):
        raise GroupError("need one image per source generator")
    for g in gen_images:
        if not 0 <= g < dst.order:
            raise GroupError(f"image {g} out of range")
    src_rows, dst_rows = src.rows(), dst.rows()
    image = [-1] * src.order
    image[0] = 0
    for x in src._bfs_order:
        row, ix = src_rows[x], dst_rows[image[x]]
        for gi, s in enumerate(gens):
            y, z = row[s], ix[gen_images[gi]]
            if image[y] < 0:
                image[y] = z
            elif image[y] != z:
                raise ImagesInconsistent("generator images do not define a homomorphism")
    return GroupHom(src, dst, tuple(image))


def is_injective(hom: GroupHom) -> bool:
    return len(set(hom.image)) == hom.source.order


def is_embedding(hom: GroupHom, source: FiniteGroup, target: FiniteGroup) -> bool:
    """Whether ``hom`` is an injective homomorphism from ``source`` to
    ``target``: image[x*s] == image[x]*image[s] for every element x and
    generator s gives the whole table, as in ``hom_from_images``."""
    image = hom.image
    if hom.source != source or hom.target != target or len(image) != source.order or image[0] != 0:
        return False
    if not all(0 <= y < target.order for y in image):
        return False
    rows, gens = target.rows(), source.generators
    homomorphic = all(image[r[s]] == rows[image[x]][image[s]] for x, r in enumerate(source.rows()) for s in gens)
    return homomorphic and is_injective(hom)


def right_cosets(P, subgroup_elements) -> tuple:
    """Right cosets K\\P of the subgroup, as two arrays: the least element
    of each coset, ascending, and the coset label of every element of P."""
    import numpy as np

    least = P.mult[np.asarray(subgroup_elements, dtype=np.intp)].min(axis=0)
    reps, labels = np.unique(least, return_inverse=True)
    return reps.astype(np.intp), labels


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing the lattice under joins with one
    element per right coset: <H, hg> = <H, g>."""
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        elems = frontier.pop()
        for g in right_cosets(group, elems)[0][1:].tolist():
            bigger = subgroup_generated(group, elems + (g,)).elements
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return [Subgroup(group, e) for e in sorted(seen, key=lambda e: (len(e), e))]


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Abstract group on the subgroup's elements plus the inclusion hom."""
    parent = sub.parent
    elems = list(sub.elements)
    n = len(elems)
    local = [-1] * parent.order
    for i, x in enumerate(elems):
        local[x] = i
    rows = parent.rows()
    table = _Rows([local[rows[x][y]] for y in elems] for x in elems)
    if any(min(row) < 0 for row in table):
        raise GroupError("element set is not closed under multiplication")
    gens = [local[x] for x in _irredundant(rows, elems[1:])[0]]
    grp = FiniteGroup(f"{parent.name}|{n}", table, gens, parent.prime)
    incl = GroupHom(grp, parent, tuple(elems))
    return grp, incl
