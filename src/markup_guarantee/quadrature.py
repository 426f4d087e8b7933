"""Adaptive Gauss-Kronrod quadrature for vectorized integrands.

Every integral in this package goes through `adaptive_quad`.  Callers name
the values where the integrand is not smooth (density jumps, atoms, kinks
of a menu) as `points`, and each piece between them is refined on its own,
so no piece is starved by a wider one.  A panel costs one integrand call on
the 21 nodes of the 10/21 Gauss-Kronrod pair: the Kronrod sum is the
estimate and its distance from the 10-point Gauss sum on the same values
is the error.  An infinite upper limit folds the tail beyond the last point
to a finite panel with the substitution u = 1/v, which turns Pareto-type
tails into (at worst) mild endpoint power singularities that the open node
set tolerates.  So a piece can be singular only at its ends: panels that
miss their share of the tolerance are bisected, and one that touches an end
of its piece is also cut geometrically toward that end, the graded
subdivision that converges on endpoint singularities (Davis & Rabinowitz,
1984).  Breakpoints and the infinite limit are arguments of the integrator,
as in QUADPACK's qagp and qagi (Piessens et al., 1983).  An integrand may
return a (k, n) stack of k integrands on n points; the rows share every
panel, piece and tail fold, each row is held to its own tolerance, and a
panel is accepted only when every row fits its share, as in DCUHRE's vector
integrands (Berntsen, Espelid & Genz, 1991).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["QuadratureError", "QuadResult", "adaptive_quad"]

# QUADPACK's qk21 table (Piessens et al., 1983): the 21-point Kronrod
# extension of the 10-point Gauss rule, abscissae from the right end to the
# centre.  Every second abscissa, 0.9739..., is a Gauss node.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980803360,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _kronrod_table():
    """The 21 nodes on [-1, 1] in increasing order, their Kronrod weights,
    and the Gauss weights on the same nodes (0 at the Kronrod-only ones)."""
    x = np.array(_XGK)
    wk = np.array(_WGK)
    wg = np.zeros(11)
    wg[1::2] = _WG
    return (np.concatenate([-x, x[-2::-1]]), np.concatenate([wk, wk[-2::-1]]),
            np.concatenate([wg, wg[-2::-1]]))


_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS = _kronrod_table()

# every integral is held to max(_EPSABS, _EPSREL |total|), and a piece that
# spends more than _MAX_EVALS integrand values raises QuadratureError
_EPSABS = 1e-11
_EPSREL = 1e-9
_MAX_EVALS = 1_000_000


class QuadratureError(RuntimeError):
    """Raised when the evaluation budget is exhausted before convergence."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class QuadResult(tuple):
    """(value, error) pair; behaves like a tuple for unpacking.  Floats for
    one integrand, arrays with one entry per row for a stack."""

    __slots__ = ()

    def __new__(cls, value, error):
        if np.ndim(value):
            return super().__new__(cls, (np.asarray(value, dtype=float),
                                         np.asarray(error, dtype=float)))
        return super().__new__(cls, (float(value), float(error)))

    @property
    def value(self):
        return self[0]

    @property
    def error(self):
        return self[1]


def _panels(f, lo, hi):
    """Evaluate the 10/21 Gauss-Kronrod pair on a batch of panels.

    lo, hi: 1-d arrays of panel endpoints.  One call of f on the 21 nodes
    of every panel; returns the Kronrod estimates and |K21 - G10|, one per
    panel, or (panels, k) of them when f returns a (k, n) stack.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    v = np.asarray(f(x.ravel()), dtype=float)
    if v.ndim == 2:
        # one row per integrand: panels first, like the single case
        v = v.reshape(len(v), *x.shape).transpose(1, 0, 2)
        half = half[:, None]
    else:
        v = v.reshape(x.shape)
    est_k = (v * _KRONROD_WEIGHTS).sum(axis=-1) * half
    est_g = (v * _GAUSS_WEIGHTS).sum(axis=-1) * half
    return est_k, np.abs(est_k - est_g)


def adaptive_quad(f, a, b, *, points=()):
    """Integrate a vectorized callable f over [a, b].

    f maps n points to n values, or to a (k, n) stack of k integrands that
    then share every panel: each row is held to its own tolerance
    max(1e-11, 1e-9 |row total|), and a panel is accepted only when every
    row fits its share of that row's tolerance.

    points: values where f is not smooth; each piece between consecutive
    points in (a, b) is refined to the tolerance on its own, with its own
    budget of 1,000,000 integrand values.  b may be inf: the tail beyond
    the last point is folded by u = 1/v, so it must start at a positive
    value.  A failing panel at an end of its piece is graded toward that
    end, so an integrable singularity there, such as x^(-1/2) or the fold
    of a Pareto tail, costs a few rounds of integrand calls.

    Returns a QuadResult (value, error_estimate) summed over the pieces,
    with arrays of k values and errors for a stack (0.0 and 0.0 when
    a == b).  Raises QuadratureError if a piece runs out of budget before
    the requested tolerance is met; its value and error are that piece's.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return QuadResult(0.0, 0.0)
    if not (math.isfinite(a) and (math.isfinite(b) or b == math.inf)):
        raise ValueError("adaptive_quad needs a finite lower limit and a "
                         "finite or +inf upper limit")
    edges = [a, *sorted({float(p) for p in points if a < p < b}), b]
    if b == math.inf and edges[-2] <= 0:
        raise ValueError("an infinite upper limit needs a positive start for "
                         "its tail: a positive a or a positive point")
    value = 0.0
    error = 0.0
    for lo, hi in zip(edges, edges[1:]):
        g = f
        if hi == math.inf:
            # int_lo^inf f(v) dv = int_0^{1/lo} f(1/u) / u^2 du
            g = lambda u: np.asarray(f(1.0 / u), dtype=float) / (u * u)
            lo, hi = 0.0, 1.0 / lo
        piece_value, piece_error = _adapt(g, lo, hi)
        value += piece_value
        error += piece_error
    return QuadResult(value, error)


def _adapt(f, a, b):
    """Adaptive refinement of one piece [a, b], smooth inside (see
    `_split`); returns (value, error), floats for one integrand and arrays
    for a stack."""
    # geometric seeding keeps panel widths commensurate with position on
    # log-wide ranges (heavy-tail segments), where uniform bisection from a
    # single panel wastes most of its depth budget
    ratio = max(a, b) / min(a, b) if min(a, b) > 0 else np.inf
    if np.isfinite(ratio) and ratio > 50.0:
        edges = np.geomspace(a, b, 2 + min(64, int(np.log2(ratio))))
    else:
        edges = np.array([a, b])
    lo = edges[:-1]
    hi = edges[1:]
    done_value = 0.0
    done_error = 0.0
    evals = 0
    width_total = abs(b - a)

    while lo.size:
        evals += lo.size * len(_NODES)
        # est, err: one entry per panel, or (panels, k) for a stack
        est, err = _panels(f, lo, hi)
        if not np.isfinite(est).all():
            raise QuadratureError("non-finite integrand values encountered")
        total = done_value + est.sum(axis=0)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        if (done_error + err.sum(axis=0) <= tol).all():
            done_value = total
            done_error += err.sum(axis=0)
            break
        # accept panels whose error fits their share of the budget in every
        # row; the floor recognizes panels already converged to machine
        # precision
        share = np.maximum(
            np.multiply.outer(np.abs(hi - lo), tol) / width_total,
            1e-15 * np.abs(est) + 1e-300)
        ok = err <= share
        if ok.ndim == 2:
            ok = ok.all(axis=1)
        done_value += est[ok].sum(axis=0)
        done_error += err[ok].sum(axis=0)
        lo, hi = lo[~ok], hi[~ok]
        if lo.size and evals > _MAX_EVALS:
            rem_v = est[~ok].sum(axis=0)
            rem_e = err[~ok].sum(axis=0)
            raise QuadratureError(
                f"quadrature budget exhausted ({evals} evaluations, "
                f"achieved error {np.max(done_error + rem_e):.3e})",
                value=done_value + rem_v,
                error=done_error + rem_e,
            )
        if lo.size:
            lo, hi = _split(lo, hi, a, b)
    return done_value, done_error


# cuts toward a piece's end, as fractions of the cut panel's half-width
_GRADES = np.array([1.0 / 64.0, 1.0 / 16.0, 0.25])
_NO_CUTS = np.empty(0)


def _split(lo, hi, a, b):
    """Bisect every failing panel, and cut one that touches an end of the
    piece [a, b] also at 1/64, 1/16 and 1/4 of its half-width from that end
    (from both ends when it spans the piece).  Callers name every kink, jump
    and atom as a point and the tail fold puts 1/v at u = 0, so a piece is
    only singular at its ends: there the end panel shrinks to 1/128 of its
    width per round, where bisection halves it.

    Only the first panel can start at a and only the last can end at b:
    the seeding orders the panels, and the children keep the end panels'
    places.  Returns the children's ends."""
    mid = 0.5 * (lo + hi)
    head = lo[0] + (mid[0] - lo[0]) * _GRADES if lo[0] == a else _NO_CUTS
    tail = (hi[-1] - (hi[-1] - mid[-1]) * _GRADES[::-1] if hi[-1] == b
            else _NO_CUTS)
    return (np.concatenate([lo[:1], head, lo[1:], mid, tail]),
            np.concatenate([head, mid, hi[:-1], tail, hi[-1:]]))
