"""Canonical relabeling of small k-uniform families.

Two families are isomorphic iff their canonical forms are equal; no other
meaning is attached to the particular labeling that comes out.  The search
refines an element coloring (Weisfeiler-Lehman style on the incidence
structure), then backtracks over individualizations of the first
non-singleton cell.  Each leaf is a discrete coloring; relabeling the
members by it gives a sorted tuple, and the form is the least such tuple.

Two kinds of automorphism prune the tree:

- a transposition (a b) of two elements of the target cell, tested
  directly, drops b once a is branched on;
- leaf automorphisms: when a leaf gives the same tuple as the first leaf
  or as the best leaf so far, the map between the two colorings is an
  automorphism, kept as a generator (as nauty does; McKay and Piperno,
  "Practical graph isomorphism, II", 2014).  A node is its prefix, the
  elements individualized on the way to it; a child is skipped when the
  generators fixing the prefix pointwise map it onto a child already
  explored.

Neither changes the form.  Refinement and individualization commute with
relabeling, so an automorphism g fixing the prefix maps the subtree below
child x onto the subtree below g(x), leaf by leaf, and corresponding leaves
give the same tuple.  The skipped subtrees hold only tuples already seen,
and the least tuple, hence the form, is the one the full search finds.
"""
from __future__ import annotations

from .family import Family, elements_of

_LEAF_LIMIT = 200_000


def canonical_form(fam: Family) -> Family:
    """A canonical representative of the isomorphism class of `fam`."""
    if not fam.members:
        return fam
    return Family(fam.n, fam.k, _Canonicalizer(fam).run())


def are_isomorphic(a: Family, b: Family) -> bool:
    if (a.n, a.k, len(a)) != (b.n, b.k, len(b)):
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    return canonical_form(a) == canonical_form(b)


class _Canonicalizer:
    def __init__(self, fam: Family):
        self.n = fam.n
        self.masks = fam.members
        self.member_set = set(fam.members)
        # element -> the members containing it, each decoded once into a
        # tuple of 0-indexed elements shared by every list it is on
        self.incidence: list[list[tuple[int, ...]]] = [[] for _ in range(self.n)]
        for m in self.masks:
            elems = tuple(e - 1 for e in elements_of(m))
            for e in elems:
                self.incidence[e].append(elems)
        # the first and the best leaf so far, each as (tuple, coloring)
        self.first: tuple[tuple[int, ...], list[int]] | None = None
        self.best: tuple[tuple[int, ...], list[int]] | None = None
        # automorphisms as lists elem -> image, from pairs of equal leaves
        self.generators: list[list[int]] = []
        self.leaves = 0

    def run(self) -> tuple[int, ...]:
        colors = self._refine([0] * self.n)
        self._descend(colors, ())
        assert self.best is not None
        return self.best[0]

    # colors: list elem(0-indexed) -> color id; ids are dense, assigned by
    # sorting invariant signatures, so they agree across isomorphic inputs.
    def _refine(self, colors: list[int]) -> list[int]:
        while True:
            sigs = []
            for e in range(self.n):
                inc = tuple(
                    sorted(
                        tuple(sorted(colors[x] for x in elems if x != e))
                        for elems in self.incidence[e]
                    )
                )
                sigs.append((colors[e], inc))
            rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                return new
            colors = new

    def _cells(self, colors: list[int]) -> list[list[int]]:
        cells: dict[int, list[int]] = {}
        for e, c in enumerate(colors):
            cells.setdefault(c, []).append(e)
        return [cells[c] for c in sorted(cells)]

    def _descend(self, colors: list[int], prefix: tuple[int, ...]) -> None:
        cells = self._cells(colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            self._leaf(colors)
            return
        explored: list[int] = []
        for rep in self._orbit_reps(target):
            # generators found below an earlier child count too
            if explored and not self._orbit(rep, prefix).isdisjoint(explored):
                continue
            explored.append(rep)
            branched = [2 * c for c in colors]
            branched[rep] -= 1
            self._descend(self._refine(branched), prefix + (rep,))

    def _orbit(self, x: int, prefix: tuple[int, ...]) -> set[int]:
        """The orbit of x under the generators that fix the prefix pointwise."""
        gens = [g for g in self.generators if all(g[v] == v for v in prefix)]
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for g in gens:
                if g[y] not in orbit:
                    orbit.add(g[y])
                    todo.append(g[y])
        return orbit

    def _orbit_reps(self, cell: list[int]) -> list[int]:
        """The first element, in cell order, of each class of a ~ b iff a = b
        or (a b) is an automorphism.  This is an equivalence: if (a b) and
        (b c) fix the family, so does their conjugate (a b)(b c)(a b) = (a c).
        So testing the elements left against a rep removes exactly its class."""
        reps, rest = [], cell
        while rest:
            reps.append(rest[0])
            rest = [b for b in rest[1:] if not self._swap_is_automorphism(rest[0], b)]
        return reps

    def _swap_is_automorphism(self, a: int, b: int) -> bool:
        bit_a, bit_b = 1 << a, 1 << b
        both = bit_a | bit_b
        for m in self.masks:
            hit = m & both
            if hit == bit_a or hit == bit_b:
                if m ^ both not in self.member_set:
                    return False
        return True

    def _leaf(self, colors: list[int]) -> None:
        self.leaves += 1
        if self.leaves > _LEAF_LIMIT:
            raise RuntimeError("canonical form search exceeded its leaf limit")
        # all cells singleton: element e gets new 0-indexed label colors[e]
        relabeled = []
        for m in self.masks:
            out = 0
            while m:
                low = m & -m
                out |= 1 << colors[low.bit_length() - 1]
                m ^= low
            relabeled.append(out)
        cand = tuple(sorted(relabeled))
        if self.first is None:
            self.first = (cand, colors)
        else:
            for form, seen in (self.first, self.best):
                if cand == form:
                    self._add_generator(seen, colors)
                    break
        if self.best is None or cand < self.best[0]:
            self.best = (cand, colors)

    def _add_generator(self, seen: list[int], colors: list[int]) -> None:
        """Both colorings relabel the members to the same tuple, so
        e -> seen^-1(colors[e]) maps the family onto itself."""
        label_of = [0] * self.n
        for e, c in enumerate(seen):
            label_of[c] = e
        self.generators.append([label_of[c] for c in colors])
