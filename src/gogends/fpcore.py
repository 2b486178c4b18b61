"""Finite p-group arithmetic: tables, subgroups, homomorphisms.

Groups live entirely as multiplication tables on dense element indices
0..order-1 with index 0 the identity; every element carries a BFS normal
form word in the distinguished generators.  The closed-form catalog
(cyclic, elementary abelian, dihedral/quaternion of order 8, Heisenberg,
direct products) covers every group the workbench needs; orders are
capped at 256.

Every constructed group is checked for an in-range table, a p-power
order, identity at index 0, two-sided inverses and generation.  Tables
built from a formula or given by the caller (cyclic, elementary abelian,
D8, Q8, Heisenberg, explicit tables, subgroups) are also checked for
associativity, an O(n^3) scan.  ``direct_product`` skips that scan: the
componentwise product of two associative tables is associative, and its
factors were checked when they were built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 256
_SLAB_CELLS = 1 << 20  # triples per slab of the associativity check


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


class FiniteGroup:
    """Finite p-group given by its multiplication table.

    ``mult[a, b]`` is the index of the product; ``words[x]`` is a tuple of
    generator positions whose left-to-right product equals element x.
    """

    __slots__ = (
        "name", "prime", "order", "mult", "inverses", "generators", "words",
        "_bfs_order", "_rows", "_orders", "_hash",
    )

    def __init__(self, name: str, mult, generators, prime: int):
        self._build(name, mult, generators, prime, check_associativity=True)

    def _build(self, name: str, mult, generators, prime: int, check_associativity: bool):
        table = np.ascontiguousarray(np.asarray(mult, dtype=np.uint16))
        n = table.shape[0]
        if table.shape != (n, n):
            raise GroupError("multiplication table must be square")
        if n == 0 or n > MAX_ORDER:
            raise GroupError(f"order must be in 1..{MAX_ORDER}, got {n}")
        self.name = name
        self.prime = prime
        self.order = n
        self.mult = table
        self.generators = [int(g) for g in generators]
        self._validate_table()
        if check_associativity:
            self._check_associative()
        self.inverses = self._compute_inverses()
        self._rows = None
        self.words, self._bfs_order = self._bfs_words()
        self._orders = None
        self._hash = None

    def _validate_table(self):
        n, table, p = self.order, self.mult, self.prime
        if table.size and int(table.max()) >= n:
            raise GroupError("table entry out of range")
        if not is_power_of(n, p):
            raise GroupError(f"order {n} is not a power of {p}")
        if not (np.array_equal(table[0], np.arange(n)) and np.array_equal(table[:, 0], np.arange(n))):
            raise GroupError("index 0 must be the identity")
        for g in self.generators:
            if not 0 <= int(g) < n:
                raise GroupError("generator index out of range")

    def _check_associative(self):
        """(a*b)*c == a*(b*c) for every triple, in slabs of rows a that
        hold at most _SLAB_CELLS triples, so memory stays bounded."""
        n, table = self.order, self.mult
        step = max(1, _SLAB_CELLS // (n * n))
        for a0 in range(0, n, step):
            rows = table[a0 : a0 + step]
            # [a, b, c]: (a*b)*c against a*(b*c)
            if not np.array_equal(table[rows], rows[:, table]):
                raise GroupError("multiplication table is not associative")

    def _compute_inverses(self) -> np.ndarray:
        zero = self.mult == 0
        inv = zero.argmax(axis=1).astype(np.uint16)
        bad = (zero.sum(axis=1) != 1) | (self.mult[inv, np.arange(self.order)] != 0)
        if bad.any():
            raise GroupError(f"element {int(np.argmax(bad))} lacks a two-sided inverse")
        return inv

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
        """The table as Python lists, ``rows()[a][b] == mult[a, b]``; built
        once, for loops that read single entries."""
        if self._rows is None:
            self._rows = self.mult.tolist()
        return self._rows

    # -- basic arithmetic ------------------------------------------------

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

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
            and np.array_equal(self.mult, other.mult)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.prime, self.order, tuple(self.generators), self.mult.tobytes()))
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


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def trivial(prime: int) -> FiniteGroup:
    return FiniteGroup("C1", [[0]], [], prime)


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
    return FiniteGroup(f"C{n}", _cyclic_table(n), [1], prime)


def elementary_abelian(prime: int, k: int) -> FiniteGroup:
    if k < 1:
        raise GroupError("need at least one factor")
    n = _catalog_order(prime, k)
    idx = np.arange(n)
    digits = np.stack([(idx // prime**i) % prime for i in range(k)], axis=1)
    summed = (digits[:, None, :] + digits[None, :, :]) % prime
    table = (summed * np.array([prime**i for i in range(k)])).sum(axis=2)
    gens = [prime**i for i in range(k)]
    return FiniteGroup(f"E{prime}^{k}", table, gens, prime)


def dihedral8() -> FiniteGroup:
    # elements r^i s^j with index 2*i + j; s r = r^-1 s
    n = 8
    table = np.zeros((n, n), dtype=np.uint16)
    for a in range(n):
        i1, j1 = divmod(a, 2)
        for b in range(n):
            i2, j2 = divmod(b, 2)
            i = (i1 + (i2 if j1 == 0 else -i2)) % 4
            table[a, b] = 2 * i + (j1 ^ j2)
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
    table = np.zeros((8, 8), dtype=np.uint16)
    for a in range(8):
        ax_a, neg_a = divmod(a, 2)
        for b in range(8):
            ax_b, neg_b = divmod(b, 2)
            sign, axis = prod[(ax_a, ax_b)]
            neg = (neg_a + neg_b + (1 if sign < 0 else 0)) % 2
            table[a, b] = 2 * axis + neg
    return FiniteGroup("Q8", table, [2, 4], 2)


def heisenberg(prime: int) -> FiniteGroup:
    """Unitriangular 3x3 group over GF(p); order p^3, exponent p for odd p."""
    n = _catalog_order(prime, 3)
    table = np.zeros((n, n), dtype=np.uint16)
    p = prime
    for x in range(n):
        a1, r = divmod(x, p * p)
        b1, c1 = divmod(r, p)
        for y in range(n):
            a2, r2 = divmod(y, p * p)
            b2, c2 = divmod(r2, p)
            a, b = (a1 + a2) % p, (b1 + b2) % p
            c = (c1 + c2 + a1 * b2) % p
            table[x, y] = a * p * p + b * p + c
    return FiniteGroup(f"Heis{p}", table, [p * p, p], p)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    if a.prime != b.prime:
        raise GroupError("factors must share the prime")
    n = a.order * b.order
    if n > MAX_ORDER:
        raise GroupError("order exceeds catalog cap")
    ia, ib = np.divmod(np.arange(n), b.order)
    table = a.mult[ia[:, None], ia[None, :]].astype(np.int64) * b.order + b.mult[ib[:, None], ib[None, :]]
    gens = [g * b.order for g in a.generators] + list(b.generators)
    # associative because both factors are: only the cheap checks run
    g = FiniteGroup.__new__(FiniteGroup)
    g._build(f"{a.name}x{b.name}", table, gens, a.prime, check_associativity=False)
    return g


def _partitions(total: int):
    """Partitions of ``total`` into weakly decreasing positive parts."""
    if total == 0:
        yield ()
        return

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
    with the abelian groups that fit under the cap.  Each (prime, capped
    bound) catalog is built once per process; every call returns a fresh
    list of the same group objects.
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
    closure = {0}
    frontier = [0]
    seeds = [int(s) for s in seeds]
    while frontier:
        x = frontier.pop()
        for s in seeds:
            y = int(group.mult[x, s])
            if y not in closure:
                closure.add(y)
                frontier.append(y)
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


def right_cosets(P, subgroup_elements) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets K\\P of the subgroup: the least element of each coset,
    ascending, and the coset label of every element of P."""
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
    local = np.full(parent.order, -1, dtype=np.intp)
    local[elems] = np.arange(n)
    table = local[parent.mult[np.ix_(elems, elems)]]
    if (table < 0).any():
        raise GroupError("element set is not closed under multiplication")
    gens: list[int] = []
    closure = {0}
    for i in range(1, n):
        if elems[i] not in closure:
            gens.append(i)
            closure = set(subgroup_generated(parent, [elems[g] for g in gens]).elements)
    grp = FiniteGroup(f"{parent.name}|{n}", table, gens, parent.prime)
    incl = GroupHom(grp, parent, tuple(elems))
    return grp, incl
