"""Willingness-to-pay distributions, including the extremal Pareto families.

Every distribution exposes a vectorized CDF and density, an explicit list of
atoms (location, mass), a quantile function, and the open intervals on which
the density is smooth.  Atoms are first-class: integrators never see a step
smeared into a narrow density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValueDistribution",
    "Pareto",
    "TruncatedPareto",
    "Uniform",
    "Binary",
    "Power",
    "Discrete",
    "PointMass",
    "Mixture",
    "distribution_from_spec",
]

_MASS_TOL = 1e-12

def _finite(*params):
    """Reject NaN and infinite parameters when a law is built."""
    if not all(math.isfinite(x) for x in params):
        raise ValueError("distribution parameters must be finite")


def _require_spread(mass_past_one_spacing):
    """Reject a law with all its mass too close to v = 1 for a quadrature."""
    if not mass_past_one_spacing > 0.0:
        raise ValueError("the density underflows float64 beyond one float64 "
                         "spacing of v = 1, where all of the law's mass lies")


class ValueDistribution:
    """Base class for buyer value laws F on [v_lo, v_hi] (v_hi may be inf)."""

    # --- interface -------------------------------------------------------
    @property
    def support(self):
        raise NotImplementedError

    def cdf(self, v):
        raise NotImplementedError

    def pdf(self, v):
        """Density of the absolutely continuous part (0 elsewhere)."""
        return np.zeros_like(np.asarray(v, dtype=float))

    def sf(self, v):
        """Survival function 1 - F(v); override where 1 - cdf cancels."""
        return 1.0 - np.asarray(self.cdf(v), dtype=float)

    def atoms(self):
        """Mass points as a tuple of (location, mass) pairs."""
        return ()

    def density_segments(self):
        """Open intervals where the density is smooth and positive."""
        return ()

    def quantile(self, u):
        raise NotImplementedError

    def _near_quantile(self, u):
        """A price near each quantile u, where `iron` samples the revenue
        curve: the quantile itself, unless a law overrides it with a
        cheaper approximation."""
        return self.quantile(u)

    def tail_condition(self, eta):
        """True iff (1 - F(v)) v^{eta/(eta-1)} -> 0, i.e. finite surplus;
        always so on a bounded support."""
        return math.isfinite(self.support[1])

    def power_moment(self, r):
        """E[v^r]; the atom sum here, a closed form in laws with a density."""
        return sum(mass * loc ** r for loc, mass in self.atoms())

    def to_spec(self):
        raise NotImplementedError

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_spec().items()
                           if k != "kind")
        return f"{type(self).__name__}({fields})"


@dataclass(frozen=True, repr=False)
class Pareto(ValueDistribution):
    """Pareto law on [1, inf): F(v) = 1 - v^{-alpha}."""

    alpha: float

    def __post_init__(self):
        _finite(self.alpha)
        if self.alpha <= 0:
            raise ValueError("Pareto shape must be positive")
        _require_spread(math.nextafter(1.0, 2.0) ** -self.alpha)

    @property
    def support(self):
        return (1.0, math.inf)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(v < 1.0, 0.0, 1.0 - np.maximum(v, 1.0) ** -self.alpha)

    def sf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(v < 1.0, 1.0, np.maximum(v, 1.0) ** -self.alpha)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(v < 1.0, 0.0, self.alpha * np.maximum(v, 1.0) ** (-self.alpha - 1.0))

    def density_segments(self):
        return ((1.0, math.inf),)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (1.0 - u) ** (-1.0 / self.alpha)

    def tail_condition(self, eta):
        # strict inequality: at alpha = eta/(eta-1) the product is identically 1
        return self.alpha > eta / (eta - 1.0)

    def power_moment(self, r):
        if r >= self.alpha:
            return math.inf
        return self.alpha / (self.alpha - r)

    def to_spec(self):
        return {"kind": "pareto", "alpha": self.alpha}


@dataclass(frozen=True, repr=False)
class TruncatedPareto(ValueDistribution):
    """Pareto below k, with the residual tail mass k^{-alpha} parked at k."""

    alpha: float
    k: float

    def __post_init__(self):
        _finite(self.alpha, self.k)
        if self.alpha <= 0:
            raise ValueError("shape must be positive")
        if self.k <= 1.0:
            raise ValueError("truncation point must exceed 1")
        _require_spread(math.nextafter(1.0, 2.0) ** -self.alpha)

    @property
    def support(self):
        return (1.0, self.k)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        inner = 1.0 - np.maximum(v, 1.0) ** -self.alpha
        return np.where(v < 1.0, 0.0, np.where(v >= self.k, 1.0, inner))

    def sf(self, v):
        v = np.asarray(v, dtype=float)
        tail = np.maximum(v, 1.0) ** -self.alpha
        return np.where(v < 1.0, 1.0, np.where(v >= self.k, 0.0, tail))

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        dens = self.alpha * np.maximum(v, 1.0) ** (-self.alpha - 1.0)
        return np.where((v < 1.0) | (v >= self.k), 0.0, dens)

    def atoms(self):
        # a tail mass that underflows to 0 is no atom
        mass = self.k ** -self.alpha
        return ((self.k, mass),) if mass > 0.0 else ()

    def density_segments(self):
        return ((1.0, self.k),)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        cont = np.minimum(u, 1.0 - 1e-300)
        q = (1.0 - cont) ** (-1.0 / self.alpha)
        return np.where(u >= 1.0 - self.k ** -self.alpha, self.k, np.minimum(q, self.k))

    def power_moment(self, r):
        a, k = self.alpha, self.k
        tail = k ** (r - a)
        if abs(a - r) < 1e-14:
            return a * math.log(k) + tail
        return a * (1.0 - tail) / (a - r) + tail

    def to_spec(self):
        return {"kind": "truncated_pareto", "alpha": self.alpha, "k": self.k}


@dataclass(frozen=True, repr=False)
class Uniform(ValueDistribution):
    a: float
    b: float

    def __post_init__(self):
        _finite(self.a, self.b)
        if not (0.0 <= self.a < self.b):
            raise ValueError("need 0 <= a < b")

    @property
    def support(self):
        return (self.a, self.b)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.minimum(np.maximum((v - self.a) / (self.b - self.a), 0.0),
                          1.0)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v >= self.a) & (v <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def density_segments(self):
        return ((self.a, self.b),)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.a + (self.b - self.a) * u

    def power_moment(self, r):
        r1 = r + 1.0
        return (self.b ** r1 - self.a ** r1) / (r1 * (self.b - self.a))

    def to_spec(self):
        return {"kind": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True, repr=False)
class Power(ValueDistribution):
    """F(v) = v^alpha on [0, 1]."""

    alpha: float

    def __post_init__(self):
        _finite(self.alpha)
        if self.alpha <= 0:
            raise ValueError("power exponent must be positive")
        _require_spread(math.nextafter(1.0, 0.0) ** self.alpha)

    @property
    def support(self):
        return (0.0, 1.0)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.minimum(np.maximum(v, 0.0), 1.0) ** self.alpha

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v > 0.0) & (v <= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = self.alpha * np.where(inside, v, 1.0) ** (self.alpha - 1.0)
        return np.where(inside, dens, 0.0)

    def density_segments(self):
        return ((0.0, 1.0),)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return u ** (1.0 / self.alpha)

    def power_moment(self, r):
        return self.alpha / (self.alpha + r)

    def to_spec(self):
        return {"kind": "power", "alpha": self.alpha}


@dataclass(frozen=True, repr=False)
class Discrete(ValueDistribution):
    """Atoms at strictly ascending values >= 0, with positive masses that
    sum to 1: every atomic law, Binary and PointMass among them."""

    values: tuple
    masses: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        masses = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if len(values) != len(masses) or not values:
            raise ValueError("values and masses must be equal-length, nonempty")
        _finite(*values, *masses)
        if any(v < 0 for v in values):
            raise ValueError("values must be nonnegative")
        if any(v2 <= v1 for v1, v2 in zip(values, values[1:])):
            raise ValueError("values must be strictly ascending")
        if any(m <= 0 for m in masses):
            raise ValueError("masses must be positive")
        if abs(sum(masses) - 1.0) > _MASS_TOL:
            raise ValueError("masses must sum to 1 within 1e-12")
        object.__setattr__(self, "_cum", tuple(np.cumsum(masses)))
        # P(V > v) between atoms, summed from the top so that it is exactly
        # 0 above the last one
        object.__setattr__(self, "_sf", np.concatenate(
            [[1.0], np.cumsum(masses[::-1])[::-1][1:], [0.0]]))

    @property
    def support(self):
        return (self.values[0], self.values[-1])

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        idx = np.searchsorted(self.values, v, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def sf(self, v):
        v = np.asarray(v, dtype=float)
        return self._sf[np.searchsorted(self.values, v, side="right")]

    def atoms(self):
        return tuple(zip(self.values, self.masses))

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        idx = np.searchsorted(self._cum, u, side="left")
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.asarray(self.values)[idx]

    def to_spec(self):
        return {"kind": "discrete", "values": list(self.values),
                "masses": list(self.masses)}


class Binary(Discrete):
    """v_hi with mass p_hi, v_lo with the rest."""

    def __init__(self, v_lo, v_hi, p_hi):
        super().__init__(values=(v_lo, v_hi), masses=(1.0 - p_hi, p_hi))

    def to_spec(self):
        return {"kind": "binary", "v_lo": self.values[0],
                "v_hi": self.values[1], "p_hi": self.masses[1]}


class PointMass(Discrete):
    """All the mass at v0."""

    def __init__(self, v0):
        super().__init__(values=(v0,), masses=(1.0,))

    def to_spec(self):
        return {"kind": "point_mass", "v0": self.values[0]}


@dataclass(frozen=True, repr=False)
class Mixture(ValueDistribution):
    """Convex combination of component laws."""

    components: tuple
    weights: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", weights)
        if len(comps) != len(weights) or not comps:
            raise ValueError("components and weights must be equal-length, nonempty")
        _finite(*weights)
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if abs(sum(weights) - 1.0) > _MASS_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def support(self):
        los, his = zip(*(c.support for c in self.components))
        return (min(los), max(his))

    def _sum(self, name, v):
        """sum of w c.name(v) over the components, from the first term"""
        v = np.asarray(v, dtype=float)
        terms = zip(self.weights, self.components)
        w, c = next(terms)
        out = w * getattr(c, name)(v)
        for w, c in terms:
            out = out + w * getattr(c, name)(v)
        return out

    def cdf(self, v):
        return self._sum("cdf", v)

    def sf(self, v):
        return self._sum("sf", v)

    def pdf(self, v):
        return self._sum("pdf", v)

    def atoms(self):
        merged = {}
        for w, c in zip(self.weights, self.components):
            for loc, mass in c.atoms():
                merged[loc] = merged.get(loc, 0.0) + w * mass
        # a weighted mass that underflows to 0 is no atom
        return tuple(sorted((loc, m) for loc, m in merged.items() if m > 0.0))

    def density_segments(self):
        # split at every component end: the density jumps there, so no
        # segment may span one; keep the pieces some component covers
        segs = [seg for c in self.components for seg in c.density_segments()]
        ends = sorted({e for seg in segs for e in seg})
        return tuple((a, b) for a, b in zip(ends, ends[1:])
                     if any(lo <= a and b <= hi for lo, hi in segs))

    def quantile(self, u):
        """Generalised inverse: the float x with F(x-) < u <= F(x), x- being
        the float below x; the bottom of the support where u <= F there,
        and the top where u exceeds F there.

        `_bracket` answers a query where its table settles it, and puts
        every other between neighbours lo < hi of the table with
        F(lo) < u <= F(hi).  Bisection on float bit patterns (floats >= 0
        are ordered as their bit patterns, adjacent ones 1 apart) halves
        each open bracket with one CDF call on the middle points, until its
        ends are adjacent floats, and returns the upper one: at most 63
        calls after the table's.
        """
        shape = np.shape(u)
        u = np.ravel(np.asarray(u, dtype=float))
        out, run, lo, hi, _ = self._bracket(u)
        lo, hi, uu = lo.view(np.int64), hi.view(np.int64), u[run]
        while run.size:
            mid = lo + (hi - lo) // 2
            below = self.cdf(mid.view(float)) < uu
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            out[run] = hi.view(float)
            keep = hi - lo > 1
            run, lo, hi, uu = run[keep], lo[keep], hi[keep], uu[keep]
        return np.atleast_1d(out.reshape(shape))

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def _bracket(self, u):
        """The bracket stage of `quantile` on a flat array u: (out, run, lo,
        hi, x).  out holds the table's point at or above each query, the
        answer where the table settles it; run indexes the other queries,
        each with lo < Q(u) <= hi and the first iterate x, linear in F
        between them."""
        table, FT = self._quantile_table(u)
        j = np.searchsorted(FT, u, side="left")
        out = table[np.minimum(j, table.size - 1)]
        run = np.flatnonzero((j > 0) & (j < table.size))
        j = j[run]
        lo, hi = table[j - 1], table[j]
        x = lo + (u[run] - FT[j - 1]) * ((hi - lo) / (FT[j] - FT[j - 1]))
        return out, run, lo, hi, x

    def _near_quantile(self, u):
        """The quantile's first iterate: its bracket table, the component
        quantiles at u and u/w, interpolated linearly in F."""
        out, run, _, _, x = self._bracket(np.ravel(np.asarray(u, dtype=float)))
        out[run] = x
        return out

    def _quantile_table(self, u):
        """Sorted points that bracket Q(u), and the running maximum of F on
        them (so that a search in it never sees rounding noise)."""
        lo_s, hi_s = self.support
        pts = [lo_s, hi_s, *(e for seg in self.density_segments() for e in seg)]
        for loc, _ in self.atoms():
            pts += [loc, math.nextafter(loc, -math.inf)]
        table = [np.array(pts)]
        for w, c in zip(self.weights, self.components):
            table.append(np.asarray(c.quantile(u), dtype=float))
            if 0.0 < w < 1.0:
                table.append(np.asarray(c.quantile(u[u < w] / w), dtype=float))
        table = np.concatenate(table)
        # + 0.0 turns -0.0 into 0.0, whose bit pattern orders correctly
        table = np.sort(np.minimum(np.maximum(table[~np.isnan(table)], lo_s),
                                   hi_s)) + 0.0
        return table, np.maximum.accumulate(
            np.asarray(self.cdf(table), dtype=float))

    def tail_condition(self, eta):
        return all(c.tail_condition(eta) for c in self.components)

    def power_moment(self, r):
        return sum(w * c.power_moment(r)
                   for w, c in zip(self.weights, self.components))

    def to_spec(self):
        return {"kind": "mixture",
                "components": [c.to_spec() for c in self.components],
                "weights": list(self.weights)}


def _mixture(components, weights):
    return Mixture(tuple(map(distribution_from_spec, components)), weights)


# each kind's constructor, and the spec fields it takes in order
_KINDS = {
    "pareto": (Pareto, ("alpha",)),
    "truncated_pareto": (TruncatedPareto, ("alpha", "k")),
    "uniform": (Uniform, ("a", "b")),
    "binary": (Binary, ("v_lo", "v_hi", "p_hi")),
    "power": (Power, ("alpha",)),
    "discrete": (Discrete, ("values", "masses")),
    "point_mass": (PointMass, ("v0",)),
    "mixture": (_mixture, ("components", "weights")),
}


def _spec_field(spec, name, what):
    """spec[name], or a ValueError saying that `what` needs the field."""
    try:
        return spec[name]
    except (KeyError, TypeError):
        raise ValueError(f"{what} needs a {name!r} field") from None


def _in_range(value, name, lo, hi):
    """value as a float in the open interval (lo, hi), or a ValueError that
    names the input; NaN and non-numbers lie in no interval."""
    if not isinstance(value, (int, float)) or not lo < value < hi:
        raise ValueError(f"{name} must lie in ({lo:g}, {hi:g}), got {value!r}")
    return float(value)


def _from_spec(spec, kinds, family):
    """Build a spec from `kinds`, a table of kind -> (constructor, fields),
    or raise a ValueError if the kind is unknown or reads other fields."""
    kind = _spec_field(spec, "kind", f"{family} spec")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {family} kind {kind!r}")
    make, fields = kinds[kind]
    extra = set(spec) - {"kind", *fields}
    if extra:
        raise ValueError(f"unknown fields in {kind} spec: {sorted(extra)}")
    return make(*(_spec_field(spec, f, f"{kind} spec") for f in fields))


def distribution_from_spec(spec: dict) -> ValueDistribution:
    """Build a distribution from its JSON spec, e.g.
    {"kind": "truncated_pareto", "alpha": 2.0, "k": 100.0}."""
    return _from_spec(spec, _KINDS, "distribution")
