"""k-uniform set families over {1,...,n}, stored as integer bitmasks.

A k-set is an int with bit i-1 set for each element i.  A Family keeps its
members deduplicated and sorted in the lexicographic set order (A before B
iff min(A \\ B) < min(B \\ A), which for equal-size sets is plain tuple
order on the sorted elements), so family equality is structural equality.

All counts are exact Python ints and all ratios are fractions.Fraction;
nothing here ever touches floating point.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of 1-indexed elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-indexed elements of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_ksets(n: int, k: int) -> Iterator[int]:
    """All k-subsets of [n] as masks, in lexicographic set order."""
    for combo in itertools.combinations(range(n), k):
        m = 0
        for b in combo:
            m |= 1 << b
        yield m


def disjointness(xs: list[int], ys: list[int]) -> list[int]:
    """table[i] = bitset of the indices j with ys[j] disjoint from xs[i]."""
    table = []
    for x in xs:
        row = 0
        for j, y in enumerate(ys):
            if not x & y:
                row |= 1 << j
        table.append(row)
    return table


class Universe:
    """All k-subsets of [n], indexed in lex order.

    A subfamily is a bitset of indices ("picked"), so set-system queries
    reduce to ands and popcounts: disjoint[i] holds the sets disjoint from
    set i, avoids[e] the sets without element e (avoids[0] is everything).
    """

    __slots__ = ("n", "k", "masks", "full", "disjoint", "avoids")

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.masks = list(iter_ksets(n, k))
        self.full = (1 << len(self.masks)) - 1
        self.disjoint = disjointness(self.masks, self.masks)
        self.avoids = [self.full] + disjointness([1 << e for e in range(n)], self.masks)

    def meeting(self, picked: int, table: list[int] | None = None) -> int:
        """Bitset of the sets meeting every picked one.

        table[i] lists the sets of this universe disjoint from picked set i;
        it defaults to `disjoint`, and a cross table from disjointness(...)
        lets `picked` index another universe.
        """
        table = self.disjoint if table is None else table
        bad = 0
        while picked:
            low = picked & -picked
            bad |= table[low.bit_length() - 1]
            picked ^= low
        return self.full & ~bad

    def family(self, picked: int) -> "Family":
        """The picked sets as a Family."""
        return Family(self.n, self.k, (self.masks[i - 1] for i in elements_of(picked)))


class Family:
    """An immutable k-uniform family of subsets of {1, ..., n}."""

    __slots__ = ("n", "k", "members", "_degrees", "_member_set")

    def __init__(self, n: int, k: int, members: Iterable[int] = ()):
        if n < 1:
            raise ValueError(f"ground-set size must be >= 1, got {n}")
        if not 0 <= k <= n:
            raise ValueError(f"uniformity k={k} out of range for n={n}")
        full = (1 << n) - 1
        ms = set(members)
        for m in ms:
            if m & ~full:
                raise ValueError(f"member {elements_of(m)} exceeds ground set [1,{n}]")
            if m.bit_count() != k:
                raise ValueError(
                    f"member {elements_of(m)} has {m.bit_count()} elements, expected {k}"
                )
        self.n = n
        self.k = k
        self.members = tuple(sorted(ms, key=elements_of))
        self._degrees: tuple[int, ...] | None = None
        self._member_set = ms

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "Family":
        """Build from collections of 1-indexed elements."""
        masks = []
        for s in sets:
            s = tuple(s)
            if any(not 1 <= e <= n for e in s):
                raise ValueError(f"set {s} has elements outside [1,{n}]")
            if len(set(s)) != len(s):
                raise ValueError(f"set {s} repeats an element")
            masks.append(mask_of(s))
        return cls(n, k, masks)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self._member_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return (self.n, self.k, self.members) == (other.n, other.k, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.members))

    def __repr__(self) -> str:
        shown = ", ".join(str(set(elements_of(m))) for m in self.members[:6])
        if len(self.members) > 6:
            shown += ", ..."
        return f"Family(n={self.n}, k={self.k}, |F|={len(self.members)}: {shown})"

    def sets(self) -> list[tuple[int, ...]]:
        """Members as sorted 1-indexed tuples, in lexicographic order."""
        return [elements_of(m) for m in self.members]

    # -- degrees and diversity measures ------------------------------------

    @property
    def degrees(self) -> tuple[int, ...]:
        """degrees[x-1] = number of members containing element x."""
        if self._degrees is None:
            deg = [0] * self.n
            for m in self.members:
                while m:
                    low = m & -m
                    deg[low.bit_length() - 1] += 1
                    m ^= low
            self._degrees = tuple(deg)
        return self._degrees

    def degree(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"element {x} outside [1,{self.n}]")
        return self.degrees[x - 1]

    def max_degree(self) -> tuple[int, int]:
        """(maximum degree, smallest element attaining it)."""
        deg = self.degrees
        best = max(deg) if deg else 0
        return best, deg.index(best) + 1

    def diversity(self) -> int:
        """|F| - max degree."""
        return len(self.members) - self.max_degree()[0]

    def c_diversity(self, c: Fraction | int) -> Fraction:
        """|F| - c * max degree, exactly (may be negative)."""
        return Fraction(len(self.members)) - Fraction(c) * self.max_degree()[0]

    def rho(self) -> Fraction:
        """max degree / |F|; undefined on the empty family."""
        if not self.members:
            raise ValueError("rho is undefined for the empty family")
        return Fraction(self.max_degree()[0], len(self.members))

    # -- structural predicates ----------------------------------------------

    def is_intersecting(self) -> bool:
        """True iff every two members share an element (empty family counts)."""
        ms = self.members
        if self.is_star():  # common element: no pair scan needed
            return True
        for i in range(len(ms)):
            mi = ms[i]
            for j in range(i + 1, len(ms)):
                if not mi & ms[j]:
                    return False
        return True

    def is_star(self) -> bool:
        """True iff some element lies in every member (empty family counts)."""
        common = (1 << self.n) - 1
        for m in self.members:
            common &= m
            if not common:
                return False
        return True

    # -- traces --------------------------------------------------------------

    def trace(self, p: Iterable[int], q: Iterable[int]) -> "Family":
        """F(P,Q) = {F \\ Q : F in F, F cap Q = P}, for P subset of Q.

        The result keeps the parent's ground-set indexing; elements of Q
        simply never occur (ground set is conceptually [n] \\ Q).
        """
        pm = mask_of(p)
        qm = mask_of(q)
        if pm & ~qm:
            raise ValueError("trace requires P to be a subset of Q")
        if qm & ~((1 << self.n) - 1):
            raise ValueError(f"Q exceeds ground set [1,{self.n}]")
        if pm.bit_count() > self.k:  # no k-set can contain P: empty trace
            return Family(self.n, 0)
        picked = [m & ~qm for m in self.members if m & qm == pm]
        return Family(self.n, self.k - pm.bit_count(), picked)

    def link(self, x: int) -> "Family":
        """F(x): members containing x, with x removed."""
        return self.trace((x,), (x,))

    def avoid(self, x: int) -> "Family":
        """F(x-bar): members not containing x."""
        return self.trace((), (x,))

    # -- other operations ----------------------------------------------------

    def shadow(self, size: int) -> "Family":
        """All size-subsets contained in some member."""
        if not 0 <= size <= self.k:
            raise ValueError(f"shadow size {size} outside [0,{self.k}]")
        out = set()
        for m in self.members:
            for combo in itertools.combinations(elements_of(m), size):
                out.add(mask_of(combo))
        return Family(self.n, size, out)

    def matching_number(self) -> int:
        """Maximum number of pairwise disjoint members, by backtracking."""
        ms = self.members
        best = 0

        def grow(idx: int, used: int, count: int) -> None:
            nonlocal best
            if count > best:
                best = count
            for i in range(idx, len(ms)):
                if count + (len(ms) - i) <= best:
                    break
                if not ms[i] & used:
                    grow(i + 1, used | ms[i], count + 1)

        grow(0, 0, 0)
        return best

    def relabel(self, perm: dict[int, int]) -> "Family":
        """Apply a permutation of [1,n] (given as a full dict) to all members."""
        if sorted(perm) != list(range(1, self.n + 1)) or sorted(
            perm.values()
        ) != list(range(1, self.n + 1)):
            raise ValueError("perm must be a bijection of [1,n]")
        moved = [mask_of(perm[e] for e in elements_of(m)) for m in self.members]
        return Family(self.n, self.k, moved)


def cross_intersecting(a: Family, b: Family, t: int = 1) -> bool:
    """True iff every member of `a` meets every member of `b` in >= t elements."""
    if a.n != b.n:
        raise ValueError(f"families live on different ground sets ({a.n} vs {b.n})")
    if t == 1:
        return all(am & bm for am in a.members for bm in b.members)
    return all((am & bm).bit_count() >= t for am in a.members for bm in b.members)


def addable_sets(fam: Family) -> list[int]:
    """k-sets outside the family that meet every member, in lex order."""
    if not fam.is_intersecting():
        raise ValueError("saturation is only defined for intersecting families")
    out = []
    for cand in iter_ksets(fam.n, fam.k):
        if cand in fam:
            continue
        if all(cand & m for m in fam.members):
            out.append(cand)
    return out


def is_saturated(fam: Family) -> bool:
    """No k-set outside the family meets every member."""
    return not addable_sets(fam)


def saturate(fam: Family) -> Family:
    """Repeatedly add the lex-first addable k-set until saturated.

    Adding a member only shrinks the addable pool, so a single filtered
    pass over the initial pool realizes the closure.
    """
    chosen = list(fam.members)
    pool = addable_sets(fam)
    while pool:
        new = pool.pop(0)
        chosen.append(new)
        pool = [c for c in pool if c & new]
    return Family(fam.n, fam.k, chosen)
