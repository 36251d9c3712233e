"""Constructors for the named intersecting families, each built from its
trace on a small core set, plus lex prefixes and shifting."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .family import (MAX_SETS, Family, check_element_bits, check_ground_set, comb_capped,
                     iter_ksets, mask_of)

# A fixed labeling of the seven lines of the Fano plane.  Any labeling is
# isomorphic; canonical_form makes the choice immaterial.
FANO_LINES: tuple[frozenset[int], ...] = tuple(
    frozenset(line)
    for line in ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))
)


def _by_trace(n: int, k: int, parts) -> Family:
    """The family of the k-subsets of [n] whose trace P on some part's core
    passes that part's keep(P): P joined to every (k-|P|)-subset outside the
    core.  The parts' blocks must be disjoint.

    The size is summed first, by binomials capped just above the guard: a
    family of more than MAX_SETS sets, or one needing more than MAX_SETS
    core traces tested, is refused before any set is made, and so is one
    above the element-bit guard (check_element_bits).  Each set is built
    from element indices as the Family takes it.

    The degrees are read off the plan, not off the members: a block (trace
    P, outside O, r = k - |P|) adds C(|O|, r) to each element of P and
    C(|O|-1, r-1) = C(|O|, r) r / |O| to each element of O, so they cost
    O(n) per part and O(|P|) per block.  A family that comes out with other
    than the planned size had overlapping blocks, and is refused.
    """
    check_ground_set(n)
    plan, total, tested = [], 0, 0
    # each element's degree is base + deg[e]: base sums what every part gives
    # to each element outside its core, and deg[e] takes a core's share back
    base, deg = 0, [0] * (n + 1)
    for core, keep in parts:
        bits = format(core, "b").zfill(n)[::-1]  # bits[e-1] is element e's bit
        inside = [e for e, bit in enumerate(bits, 1) if bit == "1"]
        outside = [e for e, bit in enumerate(bits, 1) if bit == "0"]
        # the trace sizes with the largest blocks first, to refuse early:
        # C(N, r) falls as |2r - N| grows, so no binomial is computed to sort
        sizes = sorted(range(max(0, k - len(outside)), min(k, len(inside)) + 1),
                       key=lambda size: abs(2 * (k - size) - len(outside)))
        spread = 0  # what this part's blocks add to each element outside its core
        for size in sizes:
            if tested + comb_capped(len(inside), size, MAX_SETS - tested) > MAX_SETS:
                raise ValueError(
                    f"guard: the family on (n={n}, k={k}) needs {tested} + C({len(inside)}, "
                    f"{size}) core traces tested, above the {MAX_SETS}-set guard"
                )
            r = k - size
            block = comb_capped(len(outside), r, MAX_SETS)
            for combo in itertools.combinations(inside, size):
                trace, tested = mask_of(combo), tested + 1
                if keep(trace):
                    total += block
                    if total > MAX_SETS:
                        raise ValueError(
                            f"guard: the family on (n={n}, k={k}) has at least {total} sets "
                            f"after {tested} traces tested, above the {MAX_SETS}-set guard"
                        )
                    plan.append((trace, outside, r))
                    spread += block * r // len(outside) if r else 0
                    for e in combo:
                        deg[e] += block
        base += spread
        for e in inside:
            deg[e] -= spread
    check_element_bits(total, k, n)
    fam = Family(n, k, (trace | mask_of(rest) for trace, outside, r in plan
                        for rest in itertools.combinations(outside, r)))
    if len(fam) != total:
        raise ValueError(f"the trace plan on (n={n}, k={k}) has overlapping blocks: "
                         f"{len(fam)} distinct sets of {total} planned")
    fam._set_degrees(base + d for d in deg[1:])
    return fam


def full_star(n: int, k: int, center: int = 1) -> Family:
    """All k-subsets of [n] containing `center`; size C(n-1, k-1)."""
    if not 1 <= center <= n:
        raise ValueError(f"center {center} outside [1,{n}]")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return _by_trace(n, k, [(1 << (center - 1), bool)])


def family_fi(n: int, k: int, i: int) -> Family:
    """Sets containing 1 and meeting [2,i], united with the sets containing [2,i].

    Size C(n-1,k-1) - C(n-i,k-1) + C(n-i,k-i+1); i = k+1 gives the
    Hilton-Milner family.
    """
    if not 3 <= i <= k + 1:
        raise ValueError(f"i={i} outside [3, k+1] for k={k}")
    if i > n:
        raise ValueError(f"i={i} exceeds the ground set")
    window = ((1 << i) - 1) ^ 1  # the elements 2..i
    return _by_trace(n, k, [
        (1 | window, lambda p: p & window == window or p & 1 and p & window),
    ])


def _uvw(n: int, k: int, triple: tuple[int, int, int], keep) -> Family:
    t = mask_of(triple)
    if t.bit_count() != 3:
        raise ValueError(f"triple {triple} must have three distinct elements")
    if any(not 1 <= e <= n for e in triple):
        raise ValueError(f"triple {triple} exceeds the ground set [1,{n}]")
    if k < 2:
        raise ValueError("uniformity must be at least 2")
    return _by_trace(n, k, [(t, keep)])


def family_uvw(n: int, k: int, triple: tuple[int, int, int]) -> Family:
    """All k-sets meeting the triple in exactly 2 elements."""
    return _uvw(n, k, triple, lambda p: p.bit_count() == 2)


def family_uvw_star(n: int, k: int, triple: tuple[int, int, int]) -> Family:
    """All k-sets meeting the triple in at least 2 elements."""
    return _uvw(n, k, triple, lambda p: p.bit_count() >= 2)


def family_triangle(n: int, k: int) -> Family:
    """The pure triangle family: k-sets meeting {1,2,3} in exactly 2 elements."""
    return family_uvw(n, k, (1, 2, 3))


def lex_family(n: int, k: int, m: int) -> Family:
    """The first m k-subsets of [n] in lexicographic order."""
    check_ground_set(n)
    if not 0 <= m <= comb_capped(n, k, m):
        raise ValueError(f"m={m} outside [0, C({n},{k})]")
    if m > MAX_SETS:
        raise ValueError(f"guard: m={m} sets, above the {MAX_SETS}-set guard")
    check_element_bits(m, k, n)
    return Family(n, k, itertools.islice(iter_ksets(n, k), m))


def shift_masks(masks: frozenset[int] | set[int], i: int, j: int) -> set[int]:
    """The i <- j shift on a set of bitmasks (replace j by i unless taken)."""
    if not i < j:
        raise ValueError(f"shift needs i < j, got ({i},{j})")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    out = set()
    for m in masks:
        if m & bj and not m & bi:
            moved = m ^ bj | bi
            out.add(m if moved in masks else moved)
        else:
            out.add(m)
    return out


def shift(fam: Family, i: int, j: int) -> Family:
    """Memberwise i <- j shift; preserves size, uniformity and intersection."""
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"shift indices ({i},{j}) invalid for n={fam.n}")
    return Family(fam.n, fam.k, shift_masks(set(fam.members), i, j))


def shift_states(n: int, states: tuple[set[int], ...]) -> Iterator[tuple[set[int], ...]]:
    """Sweep the shifts S_ij (i < j) over all the mask sets of `states` at
    once until none changes; yield the states after each shift that changes
    one of them."""
    changed = True
    while changed:
        changed = False
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                nxt = tuple([shift_masks(s, i, j) for s in states])
                if nxt != states:
                    states = nxt
                    changed = True
                    yield states


def shift_closure(fam: Family) -> Family:
    """Apply all shifts S_ij (i < j) until the family stops changing."""
    current = set(fam.members)
    for (current,) in shift_states(fam.n, (current,)):
        pass
    return Family(fam.n, fam.k, current)


_SEVEN = mask_of(range(1, 8))
_LINES = frozenset(mask_of(line) for line in FANO_LINES)


def _fano(n: int, k: int, keep) -> Family:
    if n < 7:
        raise ValueError(f"Fano families need n >= 7, got {n}")
    if k < 3:
        raise ValueError(f"Fano families need k >= 3, got {k}")
    return _by_trace(n, k, [(_SEVEN, keep)])


def fano_l(n: int, k: int) -> Family:
    """F_L: the k-sets whose trace on [7] is a Fano line."""
    return _fano(n, k, _LINES.__contains__)


def fano_lplus(n: int, k: int) -> Family:
    """F_L+: the k-sets whose trace on [7] is a Fano line or a 4-subset of
    [7] other than a line complement."""
    return _fano(n, k, lambda p: p in _LINES or p.bit_count() == 4 and _SEVEN ^ p not in _LINES)


def fano_families(n: int, k: int) -> tuple[Family, Family]:
    """(F_L, F_L+), each built on its own."""
    return fano_l(n, k), fano_lplus(n, k)


@dataclass(frozen=True)
class KernelTriple:
    """Three pairwise-intersecting kernels inside [4,n], each of size in [2,k)."""

    a1: frozenset[int]
    a2: frozenset[int]
    a3: frozenset[int]

    @classmethod
    def uniform(cls, kernel: tuple[int, ...]) -> "KernelTriple":
        s = frozenset(kernel)
        return cls(s, s, s)

    def parts(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.a1, self.a2, self.a3)

    def validate(self, n: int, k: int) -> None:
        for a in self.parts():
            if any(not 4 <= e <= n for e in a):
                raise ValueError(f"kernel {sorted(a)} must lie inside [4,{n}]")
            if not 2 <= len(a) < k:
                raise ValueError(f"kernel {sorted(a)} size must be in [2,{k})")
        for a, b in itertools.combinations(self.parts(), 2):
            if not a & b:
                raise ValueError(f"kernels {sorted(a)} and {sorted(b)} are disjoint")

    def common_size(self) -> int | None:
        sizes = {len(a) for a in self.parts()}
        return sizes.pop() if len(sizes) == 1 else None


def sample_kernels(ell: int) -> KernelTriple:
    """Three distinct pairwise-intersecting kernels of common size ell,
    packed into [4, ell+4].  Distinct parts avoid the degeneracy of equal
    kernels, whose shared elements outdegree [3]."""
    if ell < 2:
        raise ValueError("kernel size must be at least 2")
    a1 = frozenset(range(4, ell + 4))
    a2 = frozenset(range(4, ell + 3)) | {ell + 4}
    a3 = frozenset(range(4, ell + 2)) | {ell + 3, ell + 4}
    return KernelTriple(a1, a2, a3)


def example_t(n: int, k: int, kernels: KernelTriple) -> Family:
    """Three-block family: for each i, sets tracing [3] at [3]\\{i} that meet
    the i-th kernel, plus sets tracing [3] at {i} that contain the kernel."""
    kernels.validate(n, k)
    three = mask_of((1, 2, 3))

    def block(i: int, kern: frozenset[int]):
        km, own = mask_of(kern), 1 << (i - 1)
        pair = three ^ own
        return three | km, lambda p: p & three == pair and p & km or p == own | km

    return _by_trace(n, k, [block(i, a) for i, a in zip((1, 2, 3), kernels.parts())])
