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
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


# The most sets a constructor, a lex prefix or a heuristic star seed may have,
# and the largest ground set a Family takes.
MAX_SETS = 1_000_000

# The most element-bits (the members' total size times n) a constructor or a
# family file may have.  Reading a member's elements back off its mask, as
# the file writer and the columns of a sparse family do, peels one bit at a
# time at O(n) each: about 45 ps per element and ground-set bit (CPython
# 3.11, x86-64), so 10^10 is about half a second per read.
MAX_ELEMENT_BITS = 10**10

# The columns of a k-uniform family on n <= LANE_WIDTH_PER_ELEMENT * k
# elements are transposed by byte lanes, O(|F| n / 8) byte steps in C; wider
# families are read member by member, O(|F| k) interpreted steps.  At n = 96k
# the lanes are about 1.1 times faster on families of 747 and 4000 members,
# the two are level at 112k and the member loop is faster from 128k (CPython
# 3.11, x86-64); on 64-member families, a few microseconds either way, the
# loop is faster from about 80k.
LANE_WIDTH_PER_ELEMENT = 96

# The members joined into the lane rows at a time.
_LANE_CHUNK = 4096

# _LANE_BIT[i] maps a byte to b"1" when its bit i is set, else to b"0".
_LANE_BIT = [bytes(b"01"[b >> i & 1] for b in range(256)) for i in range(8)]

# _REVERSED_BITS[b] is the byte b with its bit order reversed.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def check_ground_set(n: int) -> None:
    """Refuse a ground set [n] above the guard, before anything n-sized is built."""
    if n > MAX_SETS:
        raise ValueError(f"guard: ground set of n={n} elements, above the {MAX_SETS}-element guard")


def check_element_bits(sets: int, k: int, n: int) -> None:
    """Refuse `sets` k-subsets of [n] above the element-bit guard, before any is made."""
    if sets * k * n > MAX_ELEMENT_BITS:
        raise ValueError(f"guard: {sets} sets of {k} elements on n={n} read {sets * k * n} "
                         f"element-bits, above the {MAX_ELEMENT_BITS} guard")


def comb_capped(n: int, r: int, cap: int) -> int:
    """C(n, r) when it is at most `cap`, else a value above `cap` and at most
    C(n, r) (0 for r outside [0, n]).  The product loop over C(n, i),
    i <= min(r, n - r), stops at the first value above the cap, which is a
    lower bound since C(n, i) <= C(n, r) there; a guard never pays for a
    huge binomial."""
    if not 0 <= r <= n:
        return 0
    value = 1
    for i in range(1, min(r, n - r) + 1):
        value = value * (n - i + 1) // i
        if value > cap:
            break
    return value


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
    """All k-subsets of [n] as masks, in lexicographic set order.

    The next mask: if the set ends in the run n-t+1, ..., n (t >= 0) and x
    is its largest element below that run, x and the run give way to the
    t + 1 elements just above x.  That is a fixed number of big-int
    operations, so each mask costs O(n) whatever k is."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > n:
        return
    full = (1 << n) - 1
    mask = (1 << k) - 1
    while True:
        yield mask
        start = (full ^ mask).bit_length()  # bits start..n-1 are the top run
        if start == n and mask:  # no top run: the largest element moves up by one
            mask += 1 << (mask.bit_length() - 1)
            continue
        rest = mask & ((1 << start) - 1)
        if not rest:
            return
        x = rest.bit_length() - 1
        mask = rest ^ (1 << x) | ((1 << (n - start + 1)) - 1) << (x + 1)


def columns(n: int, masks: Sequence[int], k: int) -> list[int]:
    """cols[e] = bitset of the indices of the masks containing e, for e in
    [n]; cols[0] = 0.  The masks are k-sets; a dense family (n at most
    LANE_WIDTH_PER_ELEMENT * k) is transposed by byte lanes, a sparse one
    member by member."""
    if n > LANE_WIDTH_PER_ELEMENT * k:
        return _columns_by_member(n, masks)
    cols = [0] * (n + 1)
    if not masks:
        return cols
    nb = (n + 7) // 8
    # the masks' little-endian bytes, member after member; joined a chunk at a
    # time, so no bytes object per member outlives its chunk
    rows = b"".join([
        b"".join([m.to_bytes(nb, "little") for m in masks[i:i + _LANE_CHUNK]])
        for i in range(0, len(masks), _LANE_CHUNK)
    ])
    last = len(rows) - nb  # where the last member's bytes start
    for j in range(nb):
        # byte j of every member, the last member first: int() reads the most
        # significant digit first, and member 0 is bit 0
        lane = rows[last + j::-nb]
        if lane.count(0) == len(lane):
            continue  # eight columns with no member
        for i in range(min(8, n - 8 * j)):
            cols[8 * j + i + 1] = int(lane.translate(_LANE_BIT[i]), 2)
    return cols


def _columns_by_member(n: int, masks: Sequence[int]) -> list[int]:
    """columns() one member at a time: each element that occurs gets one
    bytearray with a bit set per occurrence, so the Python work is linear
    in the total mask size."""
    size = (len(masks) + 7) // 8
    rows: list[bytearray | None] = [None] * (n + 1)
    for i, m in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        for e in elements_of(m):
            row = rows[e]
            if row is None:
                row = rows[e] = bytearray(size)
            row[byte] |= bit
    return [0 if row is None else int.from_bytes(row, "little") for row in rows]


def union(cols: list[int], mask: int) -> int:
    """The or of the columns of mask's elements: the masks meeting `mask`."""
    out = 0
    for e in elements_of(mask):
        out |= cols[e]
    return out


def _reject_member(n: int, k: int, ms: set[int]) -> None:
    """Raise for the first member of `ms` that is no k-subset of [n]."""
    full = (1 << n) - 1
    for m in ms:
        if m < 0:
            raise ValueError(f"member mask {m} is negative")
        if m & ~full:
            raise ValueError(f"member {elements_of(m)} exceeds ground set [1,{n}]")
        if m.bit_count() != k:
            raise ValueError(f"member {elements_of(m)} has {m.bit_count()} elements, expected {k}")


def _lex_keys(n: int, masks: Iterable[int]) -> Iterator[bytes]:
    """Sort keys of k-subsets of [n]: lex order is the descending order of
    the bit-reversed masks, that is, of each mask's little-endian bytes
    with the bits of every byte reversed."""
    nb = (n + 7) // 8
    return map(bytes.translate,
               map(int.to_bytes, masks, itertools.repeat(nb), itertools.repeat("little")),
               itertools.repeat(_REVERSED_BITS))


class Family:
    """An immutable k-uniform family of subsets of {1, ..., n}; member
    incidence is read off the columns `cols`, built on first use.  A
    subfamily is a bitset of member indices ("picked"); the complete family
    Family(n, k, iter_ksets(n, k)) is the universe the searches pick from.
    The members are sorted and deduplicated only when they arrive out of
    lex order or repeated; members already in strict lex order, as
    iter_ksets and the family reader give them, are kept as they come."""

    __slots__ = ("n", "k", "members", "full", "_cols", "_degrees")

    def __init__(self, n: int, k: int, members: Iterable[int] = ()):
        if n < 1:
            raise ValueError(f"ground-set size must be >= 1, got {n}")
        check_ground_set(n)
        if not 0 <= k <= n:
            raise ValueError(f"uniformity k={k} out of range for n={n}")
        ms = tuple(members)
        if ms and (min(ms) < 0 or max(ms) >> n or set(map(int.bit_count, ms)) != {k}):
            _reject_member(n, k, set(ms))
        self.n = n
        self.k = k
        # the keys are streamed, two at a time, and kept only when the
        # members must be sorted
        keys, later = itertools.tee(_lex_keys(n, ms))
        next(later, None)
        if not all(map(operator.gt, keys, later)):
            by_key = dict(zip(_lex_keys(n, ms), ms))
            ms = tuple(map(by_key.__getitem__, sorted(by_key, reverse=True)))
        self.members = ms
        self.full = (1 << len(self.members)) - 1  # the bitset of every member
        self._cols: list[int] | None = None
        self._degrees: tuple[int, ...] | None = None

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
        """A k-subset of [n] is a member iff the and of its elements' columns is nonzero."""
        if mask >> self.n or mask.bit_count() != self.k:
            return False
        cols, hit = self.cols, self.full
        for e in elements_of(mask):
            hit &= cols[e]
        return hit != 0

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

    # -- incidence columns, subfamily bitsets, degrees and diversity ---------

    @property
    def cols(self) -> list[int]:
        """cols[x] = bitset of the indices of the members containing x."""
        if self._cols is None:
            self._cols = columns(self.n, self.members, self.k)
        return self._cols

    def disjoint_from(self, masks: Iterable[int]) -> list[int]:
        """table[i] = bitset of the members disjoint from masks[i]."""
        cols, full = self.cols, self.full
        return [full ^ union(cols, m) for m in masks]

    def meeting(self, picked: int, table: list[int]) -> int:
        """Bitset of the members meeting every picked one.  table[i] lists the
        members disjoint from picked set i: disjoint_from(self.members) lets
        `picked` index this family, disjoint_from(other.members) `other`."""
        bad = 0
        while picked:
            low = picked & -picked
            bad |= table[low.bit_length() - 1]
            picked ^= low
        return self.full & ~bad

    def meeting_nonempty(self, table: list[int]) -> Iterator[tuple[int, int]]:
        """Yield (picked, meeting(picked, table)) in ascending order of picked,
        for each picked whose meeting set is nonempty.  The members in none
        of the rows of each subset of the table's low half of rows, and of
        its high half, are built once by doubling, and meeting(picked) =
        high[picked >> half] & low[picked's low half bits]; each high keep
        visits only the low keeps that meet it, read off the transposed
        table lows_with[y], the low keeps that hold member y."""
        half = len(table) // 2
        low, high = [self.full], [self.full]
        for row in table[:half]:
            low += [keep & ~row for keep in low]
        for row in table[half:]:
            high += [keep & ~row for keep in high]
        lows_with = [0] * len(self)
        for i, keep in enumerate(low):
            for y in elements_of(keep):
                lows_with[y - 1] |= 1 << i
        for h, keep in enumerate(high):
            meets = 0
            for y in elements_of(keep):
                meets |= lows_with[y - 1]
            for i in elements_of(meets):
                yield h << half | i - 1, keep & low[i - 1]

    def subfamily(self, picked: int) -> "Family":
        """The picked members as a Family."""
        return Family(self.n, self.k, (self.members[i - 1] for i in elements_of(picked)))

    @property
    def degrees(self) -> tuple[int, ...]:
        """degrees[x-1] = number of members containing element x: the
        columns' popcounts, unless a constructor filled them from its plan."""
        if self._degrees is None:
            self._degrees = tuple(map(int.bit_count, self.cols[1:]))
        return self._degrees

    def _set_degrees(self, degrees: Iterable[int]) -> None:
        """Fill the degree table from a source known to be exact (a
        constructor's trace plan), so no column is built to count it."""
        self._degrees = tuple(degrees)

    def degree(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise ValueError(f"element {x} outside [1,{self.n}]")
        return self.degrees[x - 1]

    def max_degree(self) -> tuple[int, int | None]:
        """(maximum degree, smallest element attaining it); the empty family
        has no such element and reports (0, None)."""
        if not self.members:
            return 0, None
        deg = self.degrees
        best = max(deg)
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
        """True iff every two members share an element (empty family counts).
        A k = 0 family has no pair; any other must cross-intersect itself."""
        return not self.k or cross_intersecting(self, self)

    def is_star(self) -> bool:
        """True iff some element lies in every member (empty family counts)."""
        return self.full in self.cols

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


def trace_counter(fam: Family):
    """Every trace size |F(P,T)|, P subset of a triple T, in O(|F|/64) words.

    With the degrees and the popcounts of the ands of T's columns,
    inclusion-exclusion gives cells(t) for sorted distinct t = (u,v,w): the
    numbers of members meeting T in exactly empty, {u}, {v}, {w}, {u,v},
    {u,w}, {v,w} and T, in that order.  Element 0 lies in no member, so
    cells((0,u,v)) holds the cells of the pair {u,v}.
    """
    cols, size, deg = fam.cols, len(fam), (0,) + fam.degrees

    def cells(t: tuple[int, int, int]) -> tuple[int, ...]:
        u, v, w = t
        cu, cv, cw = cols[u], cols[v], cols[w]
        m = (cu & cv & cw).bit_count()
        uv, uw, vw = (cu & cv).bit_count(), (cu & cw).bit_count(), (cv & cw).bit_count()
        du, dv, dw = deg[u], deg[v], deg[w]
        return (size - du - dv - dw + uv + uw + vw - m, du - uv - uw + m,
                dv - uv - vw + m, dw - uw - vw + m, uv - m, uw - m, vw - m, m)

    return cells


def stability_key(fam: Family) -> tuple[int, int, tuple[int, int, int]]:
    """The least (|F \\ F*_T|, |F_T \\ F|, T) over the triples T of [n], for
    a nonempty family on n >= 3 elements: F*_T holds the k-sets meeting T
    in two or more elements, F_T those meeting it in exactly two.

    The scan is exhaustive: a member meeting T = {u,v,w} twice or more counts
    at least twice in du+dv+dw, so |F \\ F*_T| >= |F| - floor((du+dv+dw)/2).
    Walking the elements by falling degree, each loop stops once that bound
    strictly exceeds the best |F \\ F*_T| so far: no later triple can tie.
    For k <= 1 every triple ties and (1,2,3) is taken without a scan.
    """
    n, k, size = fam.n, fam.k, len(fam)
    if k <= 1:
        # no member meets a triple twice: every triple ties at (|F|, 0), and
        # the bound below never exceeds |F|, so a scan would never stop
        return size, 0, (1, 2, 3)
    cells = trace_counter(fam)
    order = sorted(range(1, n + 1), key=lambda x: (-fam.degrees[x - 1], x))
    deg = sorted(fam.degrees, reverse=True)  # deg[i] is the degree of order[i]
    full = 3 * math.comb(n - 3, k - 2)
    best_key = (size + 1,)  # outside <= |F|, so any triple beats it
    for a in range(n - 2):
        if size - (deg[a] + deg[a + 1] + deg[a + 2]) // 2 > best_key[0]:
            break
        for b in range(a + 1, n - 1):
            if size - (deg[a] + deg[b] + deg[b + 1]) // 2 > best_key[0]:
                break
            for c in range(b + 1, n):
                if size - (deg[a] + deg[b] + deg[c]) // 2 > best_key[0]:
                    break
                t = tuple(sorted((order[a], order[b], order[c])))
                h, g_u, g_v, g_w, m_uv, m_uw, m_vw, _ = cells(t)
                key = (h + g_u + g_v + g_w, full - m_uv - m_uw - m_vw, t)
                if key < best_key:
                    best_key = key
    return best_key


def cross_intersecting(a: Family, b: Family, t: int = 1) -> bool:
    """True iff every member of `a` meets every member of `b` in >= t elements.
    An a.k-set and a b.k-set of [n] meet in at least a.k + b.k - n elements,
    so that many decide it at once."""
    if a.n != b.n:
        raise ValueError(f"families live on different ground sets ({a.n} vs {b.n})")
    if a.k + b.k - a.n >= t:
        return True
    if t == 1:  # each member of a meets all of b
        cols, full = b.cols, b.full
        return all(union(cols, m) == full for m in a.members)
    return all((am & bm).bit_count() >= t for am in a.members for bm in b.members)


def compatible_sets(fam: Family, k: int) -> Iterator[int]:
    """The k-subsets of [n] whose columns cover every member of `fam`, in
    lex order.  More than MAX_SETS candidates, or more element-bits than
    check_element_bits allows, are refused when called, before any is made."""
    n = fam.n
    sets = comb_capped(n, k, MAX_SETS)
    if sets > MAX_SETS:
        raise ValueError(f"guard: C({n},{k}) too large to enumerate")
    check_element_bits(sets, k, n)
    cols, full = fam.cols, fam.full
    return (cand for cand in iter_ksets(n, k) if union(cols, cand) == full)


def addable_sets(fam: Family) -> list[int]:
    """k-sets outside the family that meet every member, in lex order."""
    compatible = compatible_sets(fam, fam.k)  # guarded before the intersection scan
    if not fam.is_intersecting():
        raise ValueError("saturation is only defined for intersecting families")
    return [cand for cand in compatible if cand not in fam]


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
