"""Bayes-optimal screening: virtual values, ironing, and a discrete oracle.

Ironing works on the revenue curve of Bulow and Roberts (1989): a price p
sells to the share q = P(V >= p) and earns R = p q.  Its slope dR/dq is the
virtual value and an atom anywhere is a linear piece, so one path irons
every law: the ironed virtual value is the slope of the curve's concave
hull.  A hull chord's slope (R(a) - R(b)) / (q(a) - q(b)) is the exact
conditional mean of the virtual value on it, and smooth chord ends are
solved for exactly, so the grid only decides where the hull looks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Discrete, ValueDistribution
from .functionals import _require_finite_surplus
from .mechanisms import DirectMechanism
from .quadrature import adaptive_quad

__all__ = [
    "VirtualValueCurve",
    "OracleResult",
    "virtual_value",
    "iron",
    "bayes_optimal_mechanism",
    "discrete_oracle",
    "discretize",
]


# quantiles at which `iron` samples the revenue curve; the grid only locates
# the hull's chords, whose ends, constants and the cutoff are solved exactly
_N_GRID = 2000


class AtomError(ValueError):
    """Virtual value requested at a mass point of the distribution."""


def virtual_value(F: ValueDistribution, v):
    """phi(v) = v - (1 - F(v)) / f(v), for F absolutely continuous at v."""
    v_arr = np.asarray(v, dtype=float)
    atom_locs = np.asarray([loc for loc, _ in F.atoms()])
    if atom_locs.size and np.any(np.isclose(np.atleast_1d(v_arr)[:, None],
                                            atom_locs[None, :],
                                            rtol=1e-13, atol=0.0)):
        raise AtomError("virtual value is undefined at a mass point")
    f = np.asarray(F.pdf(v_arr), dtype=float)
    if np.any(f <= 0.0):
        # a density segment with survival left has a positive density
        for x in np.atleast_1d(v_arr)[np.atleast_1d(f <= 0.0)]:
            if F.sf(x) > 0 and any(a <= x <= b for a, b in F.density_segments()):
                raise ValueError(f"the density underflows float64 at v = "
                                 f"{float(x)!r}, where P(V > v) > 0")
        raise ValueError("virtual value needs a positive density at v")
    return v_arr - np.asarray(F.sf(v_arr), dtype=float) / f


@dataclass(frozen=True)
class VirtualValueCurve:
    """Raw and ironed virtual values.

    ironed_intervals holds the hull's chords as (v_lo, v_hi, constant), the
    ironed value on [v_lo, v_hi); every atom lies in one, the top atom's
    reaching v_hi = inf.  cutoff is the smallest value with a nonnegative
    ironed virtual value, None when every type has one.
    """

    distribution: ValueDistribution
    ironed_intervals: tuple          # ((v_lo, v_hi, constant), ...)
    cutoff: Optional[float]

    def __post_init__(self):
        rows = [(-math.inf, -math.inf, 0.0), *self.ironed_intervals]
        object.__setattr__(self, "_table", [np.array(c) for c in zip(*rows)])

    def phi(self, v):
        return virtual_value(self.distribution, v)

    def _chord(self, v_arr):
        """Row of the chord holding each value, 0 outside every chord."""
        idx = self._table[0].searchsorted(v_arr, "right") - 1
        return idx * (v_arr < self._table[1][idx])

    def phi_bar(self, v):
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        idx = self._chord(v_arr)
        out = self._table[2][idx]
        if np.count_nonzero(idx) < idx.size:
            out[idx == 0] = virtual_value(self.distribution, v_arr[idx == 0])
        return out if np.ndim(v) else float(out[0])

    def breakpoints(self):
        return tuple(sorted(x for lo, hi, _ in self.ironed_intervals
                            for x in (lo, hi) if math.isfinite(x)))


def _lower_convex_hull(x, y):
    """Indices of the greatest convex minorant of the points (x, y), arrays
    with x strictly increasing, as an int array: a monotone-chain pass.

    The chain drops the middle of three points unless the slope rises
    there, each slope taken from its own two points (a cross product
    anchored at the first can round to 0 when x spans many orders of
    magnitude).  One numpy pass finds the consecutive triples that this
    drops.  Up to the first of them the chain keeps every point, so it
    starts there; once its last two vertices are consecutive points past
    the last of them, no vertex can pop and it keeps every later point, so
    it stops there.  A curve with no such triple is its own hull.
    """
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    drop = np.flatnonzero(dy[:-1] * dx[1:] >= dy[1:] * dx[:-1])
    n = len(x)
    if not drop.size:
        return np.arange(n)
    # the hull is range(lo) followed by chain
    lo, settled, x, y = int(drop[0]), int(drop[-1]) + 1, x.tolist(), y.tolist()
    chain, rest = [lo, lo + 1], n
    for i in range(lo + 2, n):
        while True:
            if len(chain) < 2:
                if not lo:
                    break
                lo -= 1
                chain.insert(0, lo)
            j, k = chain[-2], chain[-1]
            if (y[k] - y[j]) * (x[i] - x[k]) >= (y[i] - y[k]) * (x[k] - x[j]):
                chain.pop()
            else:
                break
        chain.append(i)
        if i > settled and chain[-2] == i - 1:
            rest = i + 1
            break
    return np.concatenate((np.arange(lo), chain, np.arange(rest, n)))


def _root(g, a, b, ga, gb):
    """Root of g in (a, b) given ga > 0 > gb: Illinois false position.  A
    step that rounds onto an end, which then sits on the root, moves one
    float inside it (Brent's minimum step); it bisects only if that does not
    shrink the bracket, which ends on adjacent floats."""
    side = 0
    while b - a > 2e-16 * max(abs(a), abs(b)):
        c = (a * gb - b * ga) / (gb - ga)
        if not a < c < b:
            c = math.nextafter(a, b) if c <= a else math.nextafter(b, a)
            c = c if a < c < b else 0.5 * (a + b)
        gc = g(c) if a < c < b else 0.0
        if gc > 0.0:
            a, ga, gb, side = c, gc, gb * (0.5 if side < 0 else 1.0), -1
        elif gc < 0.0:
            b, gb, ga, side = c, gc, ga * (0.5 if side > 0 else 1.0), 1
        else:
            return c
    return a if ga < -gb else b


def _cells(knots, lo, hi):
    """Cells the knots cut [lo, hi] into, ends one ulp inside (off atoms)."""
    cuts = [lo, *knots[(knots > lo) & (knots < hi)], hi]
    return [(math.nextafter(u, w), math.nextafter(w, u))
            for u, w in zip(cuts, cuts[1:])]


def _peak(g, cells, score):
    """The best local maximum, by score(x), on the cells of a function
    whose slope has the sign of g(x): in a cell, where g crosses 0
    downwards, or an end."""
    peaks = []
    for u, w in cells:
        gu, gw = g(u), g(w)
        peaks.append(u if gu <= 0.0 or u >= w
                     else w if gw >= 0.0 else _root(g, u, w, gu, gw))
    return max(peaks, key=score)


def iron(F: ValueDistribution) -> VirtualValueCurve:
    """Iron the virtual value of F on its revenue curve, for any law.

    The curve is sampled near a fixed 2000 quantiles (16 more between each
    pair of knots), at every knot (support and density-segment ends, atoms)
    and at q = 0.  A mixture's sample is the first iterate of its quantile,
    not the exact inverse: the sample only locates the chords, and each of
    its points is an exact point of the curve.  A hull chord is ironed when
    it skips a point, spans a gap, or starts at an atom or at a knot where
    the density drops, which no hull vertex of the continuum can sit on.
    Ends at other knots stay put, and a smooth end is solved for on the
    cells next to its vertex:
    - with the other end fixed, it is where the slope of the chord from
      that end peaks (phi = slope there), one root;
    - with both ends smooth, each solves phi = slope, and resetting the
      slope to the new chord's is Newton's method on max H_a - max H_b
      (derivative q_b - q_a).
    A search whose peak lands on the outer edge of its cells at a sample
    point takes the next cell too, as the end lies beyond, short of the
    cells of the ends next to it.  sf and pdf are read in one array call
    each at every cell end a search first looks at, and at any other point
    once.
    """
    (lo, hi), atoms, segments = F.support, dict(F.atoms()), F.density_segments()
    knots = np.unique([x for x in (lo, hi, *atoms, *np.ravel(segments))
                       if math.isfinite(x)])
    k_mass = np.array([atoms.get(float(k), 0.0) for k in knots])
    k_down = (k_mass == 0.0) & (F.pdf(np.nextafter(knots, math.inf))
                                < F.pdf(np.nextafter(knots, -math.inf)))

    grid = np.empty(0)
    if segments:
        eps = 1e-6 / _N_GRID
        start = np.asarray(F.cdf(knots), dtype=float)
        width = np.append(start[1:] - k_mass[1:], 1.0) - start
        inner = start[:, None] + width[:, None] * ((np.arange(16) + 0.5) / 16)
        grid = np.asarray(F._near_quantile(np.append(np.linspace(
            eps, 1.0 - eps, _N_GRID), inner[width > 1e-12])), dtype=float)
        # keep prices inside a density segment and not rounded onto a knot
        j = np.searchsorted(knots, grid)
        near = np.minimum(np.abs(grid - knots[np.maximum(j - 1, 0)]),
                          np.abs(knots[np.minimum(j, knots.size - 1)] - grid))
        grid = grid[(near > 1e-13 * np.abs(grid)) & np.any(
            [(grid > a) & (grid < b) for a, b in segments], axis=0)]
    # the last point, q = 0, closes the curve at the top of the support; it
    # counts as a knot
    price = np.append(np.sort(np.concatenate([knots, grid])), hi)
    j = np.minimum(np.searchsorted(knots, price), knots.size - 1)
    is_knot, last = knots[j] == price, price.size - 1
    mass = np.where(is_knot, k_mass[j], 0.0)
    down = is_knot & k_down[j]
    mass[last], down[last], is_knot[last] = 0.0, False, True
    q = np.asarray(F.sf(price), dtype=float) + mass
    R = np.append(price[:last] * q[:last], 0.0)
    # of the points selling to one share (a support gap) keep the dearest
    keep = q > np.append(np.maximum.accumulate(q[::-1])[-2::-1], -1.0)
    price, q, R, mass, down, is_knot, starts = (
        x[keep] for x in (price, q, R, mass, down, is_knot,
                          (mass > 0.0) | down))
    loose = ~is_knot | down         # ends solved for
    last = price.size - 1
    top = last if math.isfinite(hi) else last - 1

    # a step over a knot that was dropped above spans a support gap
    starts[:-1] |= (np.searchsorted(knots, price[1:], side="left")
                    > np.searchsorted(knots, price[:-1], side="right"))
    hull = _lower_convex_hull(-q, -R)
    # chords are the hull steps that skip a point or start at an atom, a
    # gap or a drop knot; a step from a drop knot extends the chord that
    # ends there
    steps = np.flatnonzero((hull[1:] - hull[:-1] > 1) | starts[hull[:-1]])
    chords = []
    for i, j in zip(hull[steps].tolist(), hull[steps + 1].tolist()):
        if chords and chords[-1][1] == i and down[i]:
            chords[-1][1] = j
        else:
            chords.append([i, j])

    def share(a, qa, fa, b, qb, fb):
        """q(a) - q(b) = P(a <= V < b).  Near q = 1 the difference of two
        shares cancels, so it is F(b-) - F(a-) there, with F(x-) = fa or fb
        (None: from cdf, at an end off every atom)."""
        if qb < 0.5:
            return qa - qb
        fa = float(F.cdf(a)) if fa is None else fa
        fb = float(F.cdf(b)) if fb is None else fb
        return fb - fa

    def span(u, w):
        """Cells between the points u < w, with their ends."""
        return [u, w, _cells(knots, price[u], price[w])]

    # a smooth end first searches the cells between its grid neighbours; a
    # drop knot looks outward only, and the two ends of a chord never search
    # the same cell.  An end at a knot holds no cells.
    # R peaks at its grid maximum, at a knot, or where phi crosses 0 next
    # to it: a touch of slope 0 strictly inside one of the two brackets
    # around its grid maximum
    spans = []
    for i1, i2 in chords:
        spans.append(span(i1 - 1, i1 if down[i1] or i1 + 1 >= i2 else i1 + 1)
                     if loose[i1] else [i1, i1, None])
        spans.append(span(i2 if down[i2] else max(i2 - 1, i1),
                          min(i2 + 1, top)) if loose[i2] else [i2, i2, None])
    k = int(np.argmax(R))
    brackets = [(u, w, _cells(knots, price[u], price[w]))
                for u, w in ((max(k - 1, 0), k), (k, min(k + 1, top)))
                if segments and price[u] < price[w]]
    # sf and pdf at every cell end in one call each, at other points once
    nudged = np.array([x for *_, cells in spans + brackets if cells
                       for cell in cells for x in cell])
    memo = dict(zip(nudged.tolist(), np.column_stack(
        (F.sf(nudged), F.pdf(nudged))).tolist())) if nudged.size else {}

    def sf_pdf(x):
        if x not in memo:
            memo[x] = float(F.sf(x)), float(F.pdf(x))
        return memo[x]

    def peak(e, g, score):
        """_peak on the cells of end e and (x, P(V > x)) there, the cells
        widened one at a time while the peak lands on an outer edge at a
        sample point, short of the cells of the ends before and after it
        and of the cell next to an end at a knot."""
        u, w, cells = spans[e]
        floor = (spans[e - 1][1] + (spans[e - 1][2] is None)) if e else 0
        ceil = (spans[e + 1][0] - (spans[e + 1][2] is None)
                if e + 1 < len(spans) else top)
        while True:
            x = _peak(g, cells, score)
            if x == cells[0][0] and u > floor and not is_knot[u]:
                u -= 1
                cells[:0] = _cells(knots, price[u], price[u + 1])
            elif x == cells[-1][1] and w < ceil and not is_knot[w]:
                w += 1
                cells += _cells(knots, price[w - 1], price[w])
            else:
                spans[e][:2] = u, w
                return x, sf_pdf(x)[0]

    def tangent(slope):
        """x -> P(V > x) - (x - slope(x)) f(x) = f(x) (slope(x) - phi(x))."""
        def g(x):
            s, f = sf_pdf(x)
            return s - (x - slope(x)) * f
        return g

    # F(p-) = P(V < p) at the chord ends on the grid, in one call
    ends = np.ravel(chords).astype(int)
    below = (np.asarray(F.cdf(price[ends]), dtype=float)
             - mass[ends]).tolist() if chords else []
    intervals = []
    for c, ((i1, i2), fa, fb) in enumerate(zip(chords, below[::2],
                                               below[1::2])):
        left, right = spans[2 * c][2], spans[2 * c + 1][2]
        a, qa, Ra = float(price[i1]), float(q[i1]), float(R[i1])
        b, qb, Rb = float(price[i2]), float(q[i2]), float(R[i2])
        if left and right:
            # H = (x - lam) P(V > x) peaks at both ends
            def H(x):
                return (x - lam) * sf_pdf(x)[0]

            g = tangent(lambda x: lam)
            lam = (Ra - Rb) / share(a, qa, fa, b, qb, fb)
            for _ in range(50):
                (a, qa), (b, qb) = peak(2 * c, g, H), peak(2 * c + 1, g, H)
                Ra, Rb, fa, fb = a * qa, b * qb, None, None
                dq = share(a, qa, fa, b, qb, fb)
                step, lam = lam, (Ra - Rb) / dq
                # stop once the step is down to the slope's rounding error
                if abs(step - lam) * dq <= 1e-15 * (Ra + Rb + abs(lam)):
                    break
        else:
            # the slope of the chord from the fixed end peaks at the other:
            # highest over a left end, lowest over a right one
            if left:
                def slope(x):
                    qx = sf_pdf(x)[0]
                    return (x * qx - Rb) / share(x, qx, None, b, qb, fb)
                (a, qa), fa = peak(2 * c, tangent(slope), slope), None
                Ra = a * qa
            elif right:
                def slope(x):
                    qx = sf_pdf(x)[0]
                    return (Ra - x * qx) / share(a, qa, fa, x, qx, None)
                (b, qb), fb = peak(2 * c + 1, tangent(slope),
                                   lambda x: -slope(x)), None
                Rb = b * qb
            lam = (Ra - Rb) / share(a, qa, fa, b, qb, fb)
        intervals.append((a, math.inf if i2 == last else b, lam))

    cutoff, best = float(price[k]), float(R[k])
    for u, w, cells in brackets:
        x = _peak(tangent(lambda x: 0.0), cells, lambda x: x * sf_pdf(x)[0])
        qx = sf_pdf(x)[0]
        if (math.nextafter(price[u], math.inf) < x
                < math.nextafter(price[w], -math.inf) and x * qx > best):
            cutoff, best = x, x * qx
    return VirtualValueCurve(distribution=F, ironed_intervals=tuple(intervals),
                             cutoff=None if cutoff == lo else cutoff)


def bayes_optimal_mechanism(F: ValueDistribution, cost) -> DirectMechanism:
    """Seller-optimal menu for F under any convex cost.

    First-order condition c'(Q) = phi_bar gives Q(v) =
    cost.efficient_quality(max(phi_bar(v), 0)) (Mussa and Rosen, 1978);
    types below the exclusion cutoff get Q = 0, T = 0.
    """
    _require_finite_surplus(F, cost)
    curve = iron(F)
    lo = F.support[0]
    start = lo if curve.cutoff is None else curve.cutoff

    def Q(v):
        v_arr = np.asarray(v, dtype=float)
        pb = curve.phi_bar(np.maximum(v_arr, start))
        out = cost.efficient_quality(np.maximum(pb, 0.0)) * (v_arr >= start)
        return out if out.ndim else float(out)

    return DirectMechanism(Q=Q, breakpoints=tuple(
        sorted({lo, start, *curve.breakpoints()})))


# ---------------------------------------------------------------------------
# discrete screening oracle
# ---------------------------------------------------------------------------

def _adjacent_ic_transfers(values, q):
    """t_i = v_i q_i - sum_{j<i} (v_{j+1} - v_j) q_j (IR binds at the bottom)."""
    values = np.asarray(values, dtype=float)
    q = np.asarray(q, dtype=float)
    rent = np.concatenate([[0.0], np.cumsum(np.diff(values) * q[:-1])])
    return values * q - rent


@dataclass(frozen=True)
class OracleResult:
    profit: float
    allocation: tuple
    warnings: tuple = ()


def discrete_oracle(F: Discrete, cost, quality_grid=(),
                    mode: str = "exhaustive") -> OracleResult:
    """Optimal screening of the types of an atomic law F.

    exhaustive: exact dynamic program over nondecreasing quality vectors on
    the grid (sorted here; it must hold 0), priced by binding adjacent ICs
    downward.  With those ICs profit is separable, sum_i w_i q_i -
    m_i c(q_i) with marginal revenue w_i = m_i v_i - (v_{i+1} - v_i)(1 - F_i),
    so a suffix maximum from the top type down and a forward pass of first
    maximisers give the lexicographically smallest optimal menu.  reduced:
    maximize the ironed-virtual-value objective type by type (exact, no
    grid).
    """
    values = np.asarray(F.values, dtype=float)
    masses = np.asarray(F.masses, dtype=float)
    notes = []

    if mode == "reduced":
        phi_bar = iron(F).phi_bar(values)
        q = cost.efficient_quality(np.maximum(phi_bar, 0.0))
        profit = float((masses * (phi_bar * q - np.asarray(cost.c(q)))).sum())
        return OracleResult(profit=profit, allocation=tuple(q))

    if mode != "exhaustive":
        raise ValueError("mode must be 'exhaustive' or 'reduced'")
    grid = np.sort(np.asarray(quality_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("exhaustive mode needs a quality grid")
    if grid[0] != 0.0:
        raise ValueError("quality grid must include 0")
    if not np.isfinite(grid[-1]):
        raise ValueError("quality grid must be finite")

    weight = masses * values
    weight[:-1] -= np.diff(values) * (1.0 - np.cumsum(masses)[:-1])
    gain = weight[:, None] * grid - masses[:, None] * np.asarray(cost.c(grid))
    # after this loop gain[i, g] is the best profit from types i.. with
    # type i at grid point g and every type above at g or higher
    best_above = np.zeros(grid.size)
    for row in gain[::-1]:
        row += best_above
        best_above = np.maximum.accumulate(row[::-1])[::-1]
    idx = [0]
    for row in gain:
        idx.append(idx[-1] + int(np.argmax(row[idx[-1]:])))
    best_alloc = grid[idx[1:]]
    # price the menu by its transfers, as a seller would collect them
    t = _adjacent_ic_transfers(values, best_alloc)
    best_profit = float(((t - np.asarray(cost.c(best_alloc))) * masses).sum())

    if np.any(np.isclose(best_alloc, grid[-1])) and grid[-1] > 0:
        notes.append("optimum touches the top of the quality grid; the grid "
                     "may be too coarse")
    return OracleResult(profit=best_profit, allocation=tuple(best_alloc),
                        warnings=tuple(notes))


def discretize(F: ValueDistribution, n_types: int) -> Discrete:
    """Equal-mass discretization by conditional means on quantile bins.

    Bin (u_lo, u_hi] of the quantile range gets the value (integral of v f
    between its end values, plus each atom's value times the overlap of its
    share [F(loc) - m, F(loc)] with the bin) / (u_hi - u_lo).  A bin inside
    one atom gets exactly its value, and bins with equal values merge into
    one atom.  A u-edge or a share's lower end within a few ulps of an
    atom's F(loc) is snapped onto it, so that rounding leaves no bin a
    sliver of a neighbouring atom.
    """
    u = np.clip(np.linspace(0.0, 1.0, n_types + 1), 1e-12, 1.0 - 1e-12)
    locs, mass = np.array(F.atoms()).reshape(-1, 2).T
    top = np.asarray(F.cdf(locs), dtype=float)
    bottom = _snap(top - mass, top)
    u = _snap(u, top)
    width = np.diff(u)
    v_edges = np.asarray(F.quantile(u), dtype=float)
    ends = [e for seg in F.density_segments() for e in seg]
    overlap = (np.minimum(u[1:, None], top)
               - np.maximum(u[:-1, None], bottom))
    value = np.maximum(overlap, 0.0) / width[:, None] @ locs
    for i, (a, b) in enumerate(zip(v_edges[:-1], v_edges[1:])):
        if ends and b > a:
            value[i] += adaptive_quad(lambda v: np.asarray(v) * F.pdf(v),
                                      a, b, points=ends).value / width[i]
    values, bins = np.unique(value, return_inverse=True)
    return Discrete(values=values,
                    masses=np.bincount(bins, minlength=values.size) / n_types)


def _snap(x, onto):
    """x with each entry within 4 ulps of an entry of onto replaced by it."""
    for y in onto:
        x = np.where(np.abs(x - y) <= 4.0 * np.spacing(y), y, x)
    return x
