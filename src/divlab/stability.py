"""Triangle decompositions, the stability-triple finder and the key-2 lemma.

Every |F(P,T)| comes from family.trace_counter, popcounts of the family's
incidence columns; Family.trace is the slow reference it is tested against.
The stability scan is exhaustive at every n, pruned by a degree-sum bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .family import Family, trace_counter
from .formulas import binom, stability_rhs


@dataclass(frozen=True)
class TriangleDecomposition:
    """Exact trace counts of a family against a triple T = {u,v,w}.

    f_* are the deficits C(n-3,k-2) - |F({x,y},T)|; g_* the singleton trace
    sizes; h = |F(empty,T)|; m = |F(T,T)|.
    """

    n: int
    k: int
    t: tuple[int, int, int]
    f_uv: int
    f_uw: int
    f_vw: int
    g_u: int
    g_v: int
    g_w: int
    h: int
    m: int

    def base(self) -> int:
        return binom(self.n - 3, self.k - 2)

    def size_identity(self) -> int:
        """What |F| must equal: 3 C(n-3,k-2) - sum f + sum g + m + h."""
        return (
            3 * self.base()
            - (self.f_uv + self.f_uw + self.f_vw)
            + (self.g_u + self.g_v + self.g_w)
            + self.m
            + self.h
        )

    def degree_identity(self, which: str) -> int:
        """What |F(x)| must equal for x in T."""
        b = self.base()
        if which == "u":
            return 2 * b - self.f_uv - self.f_uw + self.g_u + self.m
        if which == "v":
            return 2 * b - self.f_uv - self.f_vw + self.g_v + self.m
        if which == "w":
            return 2 * b - self.f_uw - self.f_vw + self.g_w + self.m
        raise ValueError(f"which must be u, v or w, not {which!r}")

    def outside(self) -> int:
        """|F \\ F*_T| = members meeting T in at most one element."""
        return self.h + self.g_u + self.g_v + self.g_w

    def missing(self) -> int:
        """|F_T \\ F| = absent sets meeting T in exactly two elements."""
        return self.f_uv + self.f_uw + self.f_vw


def triangle_decomposition(fam: Family, triple: tuple[int, int, int]) -> TriangleDecomposition:
    if len(set(triple)) != 3:
        raise ValueError(f"need three distinct elements of [1,{fam.n}], got {triple}")
    u, v, w = sorted(triple)
    if not (1 <= u and w <= fam.n):
        raise ValueError(f"triple {triple} exceeds the ground set [1,{fam.n}]")
    h, g_u, g_v, g_w, m_uv, m_uw, m_vw, m = trace_counter(fam)((u, v, w))
    base = binom(fam.n - 3, fam.k - 2)
    return TriangleDecomposition(
        fam.n, fam.k, (u, v, w), base - m_uv, base - m_uw, base - m_vw, g_u, g_v, g_w, h, m
    )


@dataclass(frozen=True)
class StabilityReport:
    alpha: Fraction
    d: int
    triple: tuple[int, int, int]
    outside: int
    missing: int
    bound_outside: Fraction
    bound_missing: Fraction
    pass_14: bool
    pass_15: bool
    hypotheses_hold: bool
    lemma41_empty_ok: bool
    lemma41_singles_ok: bool
    triples_scanned: int


def find_stability_triple(fam: Family, d: int = 36) -> StabilityReport:
    """Find the triple T minimizing (|F \\ F*_T|, |F_T \\ F|, T) and fill in
    the stability bounds for the given d.

    The scan is exhaustive: a member meeting T = {u,v,w} twice or more counts
    at least twice in du+dv+dw, so |F \\ F*_T| >= |F| - floor((du+dv+dw)/2).
    Walking the elements by falling degree, each loop stops once that bound
    strictly exceeds the best |F \\ F*_T| so far: no later triple can tie.
    For k <= 1 every triple ties and (1,2,3) is taken without a scan.
    triples_scanned counts the triples decided, C(n,3).  The theorem
    assumes F intersecting, so its hypotheses fail on any other family.
    """
    if not len(fam):
        raise ValueError("stability analysis needs a nonempty family")
    n, k = fam.n, fam.k
    if n < 3:
        raise ValueError(f"stability analysis needs n >= 3, got n={n}")
    base = binom(n - 3, k - 2)
    gamma = fam.diversity()
    alpha = 1 - Fraction(gamma, base) if base else Fraction(1)

    size = len(fam)
    if k <= 1:
        # no member meets a triple twice: every triple ties at (|F|, 0), and
        # the bound below never exceeds |F|, so a scan would never stop
        best_key = (size, 0, (1, 2, 3))
    else:
        cells = trace_counter(fam)
        order = sorted(range(1, n + 1), key=lambda x: (-fam.degrees[x - 1], x))
        deg = sorted(fam.degrees, reverse=True)  # deg[i] is the degree of order[i]
        full = 3 * base
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
    outside, missing, best = best_key

    hyp = (
        d >= 36
        and 0 <= alpha < 1
        and Fraction(n) >= Fraction(d * k) / (1 - alpha)
        # outside == 0 puts >= 2 elements of T in every member, so any two meet
        and (outside == 0 or fam.is_intersecting())
    )
    bound_out, bound_miss = stability_rhs(alpha, n, k, d)
    dec = triangle_decomposition(fam, best)
    return StabilityReport(
        alpha=alpha,
        d=d,
        triple=best,
        outside=outside,
        missing=missing,
        bound_outside=bound_out,
        bound_missing=bound_miss,
        pass_14=Fraction(outside) <= bound_out,
        pass_15=Fraction(missing) <= bound_miss,
        hypotheses_hold=hyp,
        lemma41_empty_ok=dec.h <= binom(n - 7, k - 4),
        lemma41_singles_ok=max(dec.g_u, dec.g_v, dec.g_w) <= binom(n - 4, k - 3),
        triples_scanned=binom(n, 3),
    )


@dataclass(frozen=True)
class Key2Report:
    """Outcome of the max-degree pair lemma probe."""

    u: int
    v: int
    hypotheses_hold: bool
    link_size: int
    link_threshold: int
    witness_w: int | None
    empty_trace: int | None
    singleton_traces: tuple[int, int, int] | None
    ok: bool


def verify_lemma_key2(fam: Family, u: int, v: int) -> Key2Report:
    """Under |F(u-bar,v)| >= 5 C(n-4,k-3), some w must make all traces
    F(empty,T) and F({x},T) small; scan every w and report."""
    if not fam.is_intersecting():
        raise ValueError("requires an intersecting family")
    delta, _ = fam.max_degree()
    if fam.degree(u) != delta:
        raise ValueError(f"element {u} does not attain the maximum degree")
    n, k = fam.n, fam.k
    if v == u or not 1 <= v <= n:
        raise ValueError(f"v={v} must be an element of [1,{n}] other than u={u}")
    cells = trace_counter(fam)
    link = fam.degree(v) - cells((0, *sorted((u, v))))[6]  # |F(v)| - codeg(u,v)
    threshold = 5 * binom(n - 4, k - 3)
    if link < threshold:
        return Key2Report(u, v, False, link, threshold, None, None, None, False)
    cap_empty = binom(n - 7, k - 4)
    cap_single = binom(n - 4, k - 3)
    for w in range(1, n + 1):
        if w in (u, v):
            continue
        cell = cells(tuple(sorted((u, v, w))))
        h, singles = cell[0], cell[1:4]
        if h <= cap_empty and all(s <= cap_single for s in singles):
            return Key2Report(u, v, True, link, threshold, w, h, singles, True)
    return Key2Report(u, v, True, link, threshold, None, None, None, False)
