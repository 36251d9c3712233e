"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from divlab.constructions import FANO_LINES, family_triangle, family_uvw, lex_family
from divlab.family import Family, elements_of, iter_ksets, mask_of
from divlab.formulas import BoundVerdict, binom
from divlab.io import FamilyFormatError, dump_json, family_to_dict
from divlab.search import CapSearch, _root_orbit_reps
from divlab.sweeps import Row


def random_family(rng: random.Random, n: int, k: int, density: float = 0.3) -> Family:
    """An arbitrary (not necessarily intersecting) family."""
    return Family(n, k, [m for m in iter_ksets(n, k) if rng.random() < density])


def random_intersecting(rng: random.Random, n: int, k: int, tries: int = 30) -> Family:
    universe = list(iter_ksets(n, k))
    rng.shuffle(universe)
    out: list[int] = []
    for m in universe[:tries]:
        if all(m & x for x in out):
            out.append(m)
    return Family(n, k, out)


def random_cross_pair(rng: random.Random, n: int, a: int, b: int) -> tuple[Family, Family]:
    """A cross-intersecting pair built by filtering b-sets against a random A."""
    fam_a = random_family(rng, n, a, 0.2)
    compat = [m for m in iter_ksets(n, b) if all(m & x for x in fam_a.members)]
    fam_b = Family(n, b, [m for m in compat if rng.random() < 0.5])
    return fam_a, fam_b


def brute_is_intersecting(fam: Family) -> bool:
    """Every two distinct members share an element, by the pair scan."""
    ms = fam.members
    return all(ms[i] & ms[j] for i in range(len(ms)) for j in range(i + 1, len(ms)))


def brute_is_star(fam: Family) -> bool:
    """Some element lies in every member, by and-ing the members."""
    common = (1 << fam.n) - 1
    for m in fam.members:
        common &= m
    return bool(common) or not fam.members


def brute_degrees(fam: Family) -> tuple[int, ...]:
    """degrees[x-1] = members containing x, by decoding every member."""
    deg = [0] * fam.n
    for m in fam.members:
        for e in elements_of(m):
            deg[e - 1] += 1
    return tuple(deg)


def brute_cross_intersecting(a: Family, b: Family, t: int = 1) -> bool:
    """Every member of `a` meets every member of `b` in >= t elements, by the pair scan."""
    return all((x & y).bit_count() >= t for x in a.members for y in b.members)


def brute_disjointness(xs: list[int], ys: list[int]) -> list[int]:
    """table[i] = bitset of the j with ys[j] disjoint from xs[i], by the pair scan."""
    return [sum(1 << j for j, y in enumerate(ys) if not x & y) for x in xs]


def brute_shadow(fam: Family, size: int) -> set[int]:
    """Shadow by scanning all size-subsets of the ground set."""
    out = set()
    for combo in itertools.combinations(range(1, fam.n + 1), size):
        cm = mask_of(combo)
        if any(cm & m == cm for m in fam.members):
            out.add(cm)
    return out


def brute_matching(fam: Family) -> int:
    """Maximum pairwise-disjoint subfamily by scanning all subfamilies."""
    best = 0
    ms = fam.members
    for r in range(len(ms), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(ms, r):
            if all(not a & b for a, b in itertools.combinations(combo, 2)):
                best = max(best, r)
                break
    return best


def brute_max_size_with_cap(n: int, k: int, cap: int) -> int:
    """Max intersecting family size under a degree cap, by scanning all
    subsets of the universe (exponential; tiny inputs only)."""
    universe = list(iter_ksets(n, k))
    best = 0
    for r in range(1 << len(universe)):
        chosen = [universe[i] for i in range(len(universe)) if r >> i & 1]
        if len(chosen) <= best:
            continue
        if any(not a & b for a, b in itertools.combinations(chosen, 2)):
            continue
        deg: dict[int, int] = {}
        ok = True
        for m in chosen:
            mm = m
            while mm:
                low = mm & -mm
                e = low.bit_length()
                deg[e] = deg.get(e, 0) + 1
                if deg[e] > cap:
                    ok = False
                mm ^= low
        if ok:
            best = len(chosen)
    return best


def brute_max_diversity(n: int, k: int) -> int:
    """Max |F| - Delta(F) over intersecting families by direct DFS.

    Independent of the degree-cap decomposition: the bound only uses the
    facts that Delta never decreases and size grows by one per added set.
    """
    universe = list(iter_ksets(n, k))
    best = 0

    def grow(cands, chosen_count, deg):
        nonlocal best
        delta = max(deg) if chosen_count else 0
        best = max(best, chosen_count - delta)
        if chosen_count + len(cands) - delta <= best:
            return
        for idx, c in enumerate(cands):
            nd = list(deg)
            mm = c
            while mm:
                low = mm & -mm
                nd[low.bit_length() - 1] += 1
                mm ^= low
            grow([d for d in cands[idx + 1 :] if d & c], chosen_count + 1, nd)

    grow(universe, 0, [0] * n)
    return best


def all_intersecting_families(n: int, k: int):
    """Every intersecting family on (n, k), by DFS over lex-ordered k-sets."""
    universe = list(iter_ksets(n, k))

    def extend(start: int, chosen: list[int]):
        yield tuple(chosen)
        for i in range(start, len(universe)):
            if all(universe[i] & m for m in chosen):
                chosen.append(universe[i])
                yield from extend(i + 1, chosen)
                chosen.pop()

    for members in extend(0, []):
        yield Family(n, k, members)


def brute_c_diversity_optima(families: list[Family], c: Fraction) -> tuple[Fraction, set[Family]]:
    """The largest gamma_C over `families` and the families attaining it,
    by measuring each one (q|F| - p*Delta for C = p/q, in integers)."""
    p, q = c.numerator, c.denominator
    scores = [q * len(fam) - p * fam.max_degree()[0] for fam in families]
    top = max(scores)
    return Fraction(top, q), {fam for fam, score in zip(families, scores) if score == top}


def brute_sandwich_triple(fam: Family) -> tuple[int, int, int] | None:
    """A triple T with F_uvw <= F <= F*_uvw, by scanning every member and
    building F_uvw for each candidate T (pairs of the first member plus a
    third element, in the same order as formulas.sandwich_triple)."""
    if not fam.members:
        return None
    first = elements_of(fam.members[0])
    for pair in itertools.combinations(first, 2):
        for w in range(1, fam.n + 1):
            if w in pair:
                continue
            t = tuple(sorted((*pair, w)))
            tm = mask_of(t)
            if all((m & tm).bit_count() >= 2 for m in fam.members):
                if all(m in fam for m in family_uvw(fam.n, fam.k, t).members):
                    return t
    return None


def brute_stability_key(fam: Family) -> tuple[int, int, tuple[int, int, int]]:
    """The least (|F \\ F*_T|, |F_T \\ F|, T) over every triple T, unpruned.

    Each element gets the bitset of the members containing it, so the
    members meeting T twice or more are one union of pairwise ANDs; no
    co-degree table and no degree bound is involved."""
    holders = [0] * (fam.n + 1)
    for i, m in enumerate(fam.members):
        for e in elements_of(m):
            holders[e] |= 1 << i
    full = 3 * binom(fam.n - 3, fam.k - 2)
    keys = []
    for t in itertools.combinations(range(1, fam.n + 1), 3):
        a, b, c = (holders[x] for x in t)
        twice = (a & b) | (a & c) | (b & c)
        exactly_two = twice & ~(a & b & c)
        keys.append((len(fam) - twice.bit_count(), full - exactly_two.bit_count(), t))
    return min(keys)


def triangle_with_disjoint_pair(n: int) -> Family:
    """The (n,3) triangle family with {2,3,10} and {2,3,11} swapped for the
    disjoint sets {4,5,6} and {7,8,9}: same size, not intersecting."""
    drop = {mask_of((2, 3, 10)), mask_of((2, 3, 11))}
    kept = [m for m in family_triangle(n, 3).members if m not in drop]
    return Family(n, 3, kept + [mask_of((4, 5, 6)), mask_of((7, 8, 9))])


def brute_lex_pair_ok(n: int, a: int, b: int) -> dict[tuple[int, int], bool]:
    """(s, t) -> whether the lex prefixes of s a-sets and t b-sets are
    cross-intersecting, by building and testing every pair of prefixes."""
    table = {}
    ca, cb = binom(n, a), binom(n, b)
    for s in range(ca + 1):
        la = lex_family(n, a, s)
        for t in range(cb + 1):
            table[(s, t)] = brute_cross_intersecting(la, lex_family(n, b, t))
    return table


def brute_cross_max_compatible(n: int, a: int, b: int, size_a: int) -> int:
    """The b-sets of [n] meeting every member of the lex prefix L(n,a,size_a),
    by testing every candidate against every prefix member."""
    prefix = list(itertools.islice(iter_ksets(n, a), size_a))
    return sum(1 for cand in iter_ksets(n, b) if all(cand & m for m in prefix))


def reference_check_main(fam: Family, c: Fraction) -> BoundVerdict:
    """check_theorem(fam, "main", c=c) with the threshold 42k/(3-2C) and the
    bound (3-2C) C(n-3,k-2) written out; bound 0 outside 1 < C < 3/2."""
    n, k = fam.n, fam.k
    in_range = 1 < c < Fraction(3, 2)
    hyp = in_range and k >= 3 and Fraction(n) >= Fraction(42 * k) / (3 - 2 * c)
    bound = (3 - 2 * c) * binom(n - 3, k - 2) if in_range else Fraction(0)
    return BoundVerdict.compare(f"main(C={c})", fam.c_diversity(c), bound, hypotheses_hold=hyp)


def reference_gamma_c_bound(c: Fraction, n: int, k: int):
    """formulas.gamma_c_bound with each regime's bound and threshold written
    out: (bound or None, hypotheses_hold, kind)."""
    if c == 1:
        return Fraction(binom(n - 3, k - 2)), n > 36 * k, "diversity<=C(n-3,k-2)"
    if 1 < c < Fraction(3, 2):
        hyp = k >= 3 and Fraction(n) >= Fraction(42 * k) / (3 - 2 * c)
        return (3 - 2 * c) * binom(n - 3, k - 2), hyp, "triangle-bound"
    if Fraction(3, 2) <= c < Fraction(7, 3):
        fano = (7 - 3 * c) * binom(n - 7, k - 3)
        if c < Fraction(7, 4):
            fano += (28 - 16 * c) * binom(n - 7, k - 4)
        return fano, False, "fano-bound(asymptotic)"
    return None, False, "none"


def brute_named_family(name: str, n: int, k: int, **params) -> Family:
    """A named family from its definition, by filtering every k-subset of [n]."""
    if name == "star":
        center = 1 << (params["center"] - 1)
        keep = lambda m: m & center
    elif name == "fi":
        window = mask_of(range(2, params["i"] + 1))
        keep = lambda m: (m & 1 and m & window) or m & window == window
    elif name == "uvw":
        t = mask_of(params["triple"])
        keep = lambda m: (m & t).bit_count() == 2
    elif name == "uvw-star":
        t = mask_of(params["triple"])
        keep = lambda m: (m & t).bit_count() >= 2
    elif name in ("fano-l", "fano-lplus"):
        seven = mask_of(range(1, 8))
        lines = {mask_of(line) for line in FANO_LINES}
        plus = name == "fano-lplus"
        keep = lambda m: m & seven in lines or (
            plus and (m & seven).bit_count() == 4 and seven ^ (m & seven) not in lines
        )
    elif name == "example-t":
        # block i: trace [3] \ {i} on [3] and meet K_i, or trace {i} and contain K_i
        blocks = [
            (0b111 ^ 1 << (i - 1), 1 << (i - 1), mask_of(kern))
            for i, kern in zip((1, 2, 3), params["kernels"].parts())
        ]
        keep = lambda m: any(
            (m & 0b111 == pair and m & km) or (m & 0b111 == single and m & km == km)
            for pair, single, km in blocks
        )
    else:
        raise ValueError(f"no oracle for {name}")
    return Family(n, k, [m for m in iter_ksets(n, k) if keep(m)])


def reference_family_text(fam: Family) -> str:
    """A family file's text through the generic indented JSON encoder."""
    return dump_json(family_to_dict(fam))


def reference_family_from_dict(data) -> Family:
    """A family file's family, checking every set element by element in
    Python and building it through Family.from_sets."""
    if not isinstance(data, dict):
        raise FamilyFormatError("family file must be a JSON object")
    for key in ("n", "k", "sets"):
        if key not in data:
            raise FamilyFormatError(f"missing key {key!r}")
    n, k, sets = data["n"], data["k"], data["sets"]
    if not isinstance(n, int) or not isinstance(k, int) or isinstance(n, bool) or isinstance(k, bool):
        raise FamilyFormatError("n and k must be integers")
    if n < 1 or not 0 <= k <= n:
        raise FamilyFormatError(f"invalid sizes n={n}, k={k}")
    if not isinstance(sets, list):
        raise FamilyFormatError("sets must be a list of lists")
    seen = set()
    for s in sets:
        if not isinstance(s, list) or not all(isinstance(e, int) and not isinstance(e, bool) for e in s):
            raise FamilyFormatError(f"set {s!r} must be a list of integers")
        if len(s) != k:
            raise FamilyFormatError(f"set {s} has {len(s)} elements, expected {k}")
        if any(not 1 <= e <= n for e in s):
            raise FamilyFormatError(f"set {s} has elements outside [1,{n}]")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise FamilyFormatError(f"set {s} is not strictly increasing")
        key = tuple(s)
        if key in seen:
            raise FamilyFormatError(f"duplicate set {s}")
        seen.add(key)
    return Family.from_sets(n, k, sets)


def reference_prop28_rows(n_max: int = 200, k_max: int = 12) -> list[Row]:
    """The prop28 sweep with each row decided over Fractions by BoundVerdict.compare."""
    rows = []
    for k in range(1, k_max + 1):
        for n in range(k, n_max + 1):
            i = 0
            while n > i * k:
                v = reference_binom_ratio(n, k, i)
                rows.append(Row("prop28", n, k, f"i={i}", "ratio", 1, int(v.satisfied),
                                "pass" if v.satisfied else "fail"))
                i += 1
    return rows


def reference_binom_ratio(n: int, k: int, i: int) -> BoundVerdict:
    """C(n-i,k) >= (n-ik)/n C(n,k), compared as Fractions."""
    return BoundVerdict.compare(
        f"binom-ratio(i={i})", Fraction(n - i * k, n) * binom(n, k), binom(n - i, k)
    )


class ReferenceCanonicalizer:
    """The canonical-form search with transposition pruning only: refine,
    individualize the first non-singleton cell's elements one per block of
    transposition automorphisms, and keep the least relabeled tuple over
    every leaf reached.  `leaves` counts the leaves visited."""

    def __init__(self, fam: Family):
        self.n = fam.n
        self.masks = fam.members
        self.member_set = set(fam.members)
        self.incidence: list[list[tuple[int, ...]]] = [[] for _ in range(self.n)]
        for m in self.masks:
            elems = tuple(e - 1 for e in elements_of(m))
            for e in elems:
                self.incidence[e].append(elems)
        self.best: tuple[int, ...] | None = None
        self.leaves = 0

    def run(self) -> tuple[int, ...]:
        self._descend(self._refine([0] * self.n))
        return self.best

    def _refine(self, colors: list[int]) -> list[int]:
        while True:
            sigs = [
                (colors[e], tuple(sorted(
                    tuple(sorted(colors[x] for x in elems if x != e)) for elems in self.incidence[e]
                )))
                for e in range(self.n)
            ]
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                return new
            colors = new

    def _descend(self, colors: list[int]) -> None:
        target = next((cell for cell in (
            [e for e in range(self.n) if colors[e] == c] for c in sorted(set(colors))
        ) if len(cell) > 1), None)
        if target is None:
            self.leaves += 1
            cand = tuple(sorted(
                sum(1 << colors[e - 1] for e in elements_of(m)) for m in self.masks
            ))
            if self.best is None or cand < self.best:
                self.best = cand
            return
        reps: list[int] = []
        for e in target:
            # e joins the block of the first rep it can be swapped with
            if not any(self._swap_is_automorphism(r, e) for r in reps):
                reps.append(e)
        for rep in reps:
            branched = [2 * c for c in colors]
            branched[rep] -= 1
            self._descend(self._refine(branched))

    def _swap_is_automorphism(self, a: int, b: int) -> bool:
        both = 1 << a | 1 << b
        return all(
            m ^ both in self.member_set for m in self.masks if (m & both).bit_count() == 1
        )


def brute_swap_classes(cell: list[int], swaps) -> list[list[int]]:
    """The connected components, each in cell order, of the graph on `cell`
    whose edges are the pairs (a, b) with swaps(a, b); every pair is tested."""
    linked = {a: [b for b in cell if b != a and swaps(min(a, b), max(a, b))] for a in cell}
    classes, seen = [], set()
    for a in cell:
        if a in seen:
            continue
        comp, todo = {a}, [a]
        while todo:
            for b in linked[todo.pop()]:
                if b not in comp:
                    comp.add(b)
                    todo.append(b)
        seen |= comp
        classes.append([e for e in cell if e in comp])
    return classes


def reference_canonical_form(fam: Family) -> tuple[Family, int]:
    """The canonical form by the reference search, and its leaf count."""
    if not fam.members:
        return fam, 0
    ref = ReferenceCanonicalizer(fam)
    return Family(fam.n, fam.k, ref.run()), ref.leaves


def reference_max_size_with_degree_cap(
    n: int, k: int, cap: int, *, collect_optima: bool = False, floor: int = -1
) -> CapSearch:
    """The cap search pruned by the candidate and capacity bounds only: no
    room bound.  Same root forcing, root orbit branching, greedy incumbent
    and lex DFS order as `search.max_size_with_degree_cap`, without a node
    budget."""
    if cap <= 0 or k == 0:
        if floor >= 0:
            return CapSearch(None, None, True, 0, [] if collect_optima else None, floor)
        empty = Family(n, k)
        return CapSearch(0, empty, True, 0, [empty] if collect_optima else None, floor)
    u = Family(n, k, iter_ksets(n, k))
    elems = [elements_of(m) for m in u.members]
    deg = [0] * (n + 1)

    def take(i: int, rest: int) -> int:
        cands = rest & ~u.disjoint[i]
        for e in elems[i]:
            deg[e] += 1
            if deg[e] == cap:
                cands &= ~u.cols[e]
        return cands

    def drop(i: int) -> None:
        for e in elems[i]:
            deg[e] -= 1

    best, cands = 0, u.full
    while cands:
        low = cands & -cands
        best |= low
        cands = take(low.bit_length() - 1, cands ^ low)
    for i in elements_of(best):
        drop(i - 1)
    best_size = best.bit_count()
    if best_size <= floor:
        best, best_size = 0, floor
    all_best = [best] if collect_optima and best else []
    nodes = 0

    def descend(picked: int, size: int, cands: int, capacity: int, branch: int = -1) -> None:
        nonlocal best_size, best, nodes
        nodes += 1
        if size > best_size:
            best_size, best = size, picked
            if collect_optima:
                all_best.clear()
        if collect_optima and size == best_size > floor:
            all_best.append(picked)
        bound = size + min(cands.bit_count(), capacity // k)
        if bound <= floor or bound < best_size or (not collect_optima and bound == best_size):
            return
        while cands:
            low = cands & -cands
            cands ^= low
            if low & branch:
                i = low.bit_length() - 1
                descend(picked | low, size + 1, take(i, cands), capacity - k)
                drop(i)

    descend(1, 1, take(0, u.full ^ 1), n * cap - k, -1 if collect_optima else _root_orbit_reps(u))
    optima = None
    if collect_optima:
        optima = sorted(
            (u.subfamily(p) for p in set(all_best) if p.bit_count() == best_size),
            key=lambda f: f.members,
        )
    if not best:
        return CapSearch(None, None, True, nodes, optima, floor)
    return CapSearch(best_size, u.subfamily(best), True, nodes, optima, floor)
