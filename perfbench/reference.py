"""Reference values the benchmark computes without calling the program.

Each function here is a closed form (or, for the screening oracle, an exact
dynamic program) written from the theory, not from the program's code, so a
fault in the program cannot also hide in its check.  Distributions arrive as
the JSON specs the command line reads.
"""

from __future__ import annotations

import math

import numpy as np


def moment(spec, r):
    """E[v^r] of a distribution spec, from its components' closed forms."""
    kind = spec["kind"]
    if kind == "uniform":
        a, b = spec["a"], spec["b"]
        return (b ** (r + 1.0) - a ** (r + 1.0)) / ((r + 1.0) * (b - a))
    if kind == "power":
        return spec["alpha"] / (spec["alpha"] + r)
    if kind == "pareto":
        alpha = spec["alpha"]
        return math.inf if r >= alpha else alpha / (alpha - r)
    if kind == "truncated_pareto":
        alpha, k = spec["alpha"], spec["k"]
        top = k ** (r - alpha)          # the mass k^-alpha parked at k
        if alpha == r:
            return alpha * math.log(k) + top
        return alpha * (1.0 - top) / (alpha - r) + top
    if kind == "binary":
        p = spec["p_hi"]
        return (1.0 - p) * spec["v_lo"] ** r + p * spec["v_hi"] ** r
    if kind == "discrete":
        return math.fsum(m * v ** r
                         for v, m in zip(spec["values"], spec["masses"]))
    if kind == "point_mass":
        return spec["v0"] ** r
    if kind == "mixture":
        return math.fsum(w * moment(c, r)
                         for c, w in zip(spec["components"], spec["weights"]))
    raise ValueError(f"no moment for kind {kind!r}")


def efficient_surplus(spec, eta):
    """S = ((eta-1)/eta) E[v^{eta/(eta-1)}] under c(q) = q^eta/eta."""
    return (eta - 1.0) / eta * moment(spec, eta / (eta - 1.0))


def guarantee_shares(eta):
    """(Pi/S, U/S) of the constant-markup menu:
    (eta^{-eta/(eta-1)}, eta^{-1/(eta-1)})."""
    return eta ** (-eta / (eta - 1.0)), eta ** (-1.0 / (eta - 1.0))


def frontier(beta, eta):
    """Largest U/S at profit share beta:
    (eta/(eta-1)) (beta^{1/eta} - beta)."""
    return eta / (eta - 1.0) * (beta ** (1.0 / eta) - beta)


def pareto_bayes_shares(alpha, eta):
    """Bayes-optimal (Pi/S, U/S) under Pareto(alpha).

    phi(v) = v (alpha-1)/alpha is positive and increasing, so
    Q = phi^{1/(eta-1)} everywhere and Pi/S = ((alpha-1)/alpha)^{eta/(eta-1)};
    the outcome lies on the frontier.
    """
    beta = ((alpha - 1.0) / alpha) ** (eta / (eta - 1.0))
    return beta, frontier(beta, eta)


def uniform_bayes(b, eta):
    """Bayes-optimal (Pi, U) under Uniform(0, b).

    phi(v) = 2v - b, types below b/2 are excluded and Q = (2v - b)^p with
    p = 1/(eta-1).  Substituting x = 2v - b:
    Pi = (1 - 1/eta) b^{p+1} / (2 (p+2)),  U = b^{p+1} / (4 (p+1)(p+2)).
    """
    p = 1.0 / (eta - 1.0)
    pi = (1.0 - 1.0 / eta) * b ** (p + 1.0) / (2.0 * (p + 2.0))
    u = b ** (p + 1.0) / (4.0 * (p + 1.0) * (p + 2.0))
    return pi, u


def truncated_pareto2_bayes(k):
    """Bayes-optimal (Pi, U) under TruncatedPareto(2, k) at eta = 2.

    phi(v) = v/2 on [1, k) and the top atom k^-2 is served efficiently:
    Pi = ln k / 4 + 1/2 and U = int_1^k (v/2) v^-2 dv = ln k / 2.
    """
    return math.log(k) / 4.0 + 0.5, math.log(k) / 2.0


def binary_bayes(v_lo, v_hi, p_hi, eta):
    """Bayes-optimal (Pi, U) for two types from their discrete virtual values.

    phi_lo = v_lo - p_hi (v_hi - v_lo) / (1 - p_hi) < phi_hi = v_hi, so no
    ironing binds; q = max(phi, 0)^{1/(eta-1)} and the high type's rent is
    (v_hi - v_lo) q_lo.
    """
    p = 1.0 / (eta - 1.0)
    m_lo = 1.0 - p_hi
    phi_lo = v_lo - p_hi * (v_hi - v_lo) / m_lo
    q_lo = max(phi_lo, 0.0) ** p
    q_hi = v_hi ** p
    pi = (m_lo * (phi_lo * q_lo - q_lo ** eta / eta)
          + p_hi * (v_hi * q_hi - q_hi ** eta / eta))
    return pi, p_hi * (v_hi - v_lo) * q_lo


def convex_cost_bound(eta_bar):
    """Constant-markup profit share for convex costs:
    1/(eta_bar + 2 sqrt(eta_bar - 1))."""
    return 1.0 / (eta_bar + 2.0 * math.sqrt(eta_bar - 1.0))


def cubic_root(w):
    """The real q >= 0 with q + q^3 = w (w >= 0), by the hyperbolic form of
    Cardano's formula, polished by one Newton step."""
    s3 = math.sqrt(3.0)
    q = 2.0 / s3 * math.sinh(math.asinh(1.5 * s3 * w) / 3.0)
    return q - (q + q ** 3 - w) / (1.0 + 3.0 * q * q)


def quartic_point_mass_ratio(v0, eta_bar):
    """Pi/S of the constant-markup menu on PointMass(v0), c(q) = q^2/2 + q^4/4.

    The menu serves c'(Q(v)) = z v with z = 1/(sqrt(eta_bar - 1) + 1), so
    Q(v0) = q_m solves q + q^3 = z v0, and the rent is
    int_0^v0 Q(v) dv = (q_m^2/2 + 3 q_m^4/4) / z.  The efficient quality q*
    solves q + q^3 = v0.
    """
    z = 1.0 / (math.sqrt(eta_bar - 1.0) + 1.0)
    c = lambda q: q * q / 2.0 + q ** 4 / 4.0
    qm = cubic_root(z * v0)
    qs = cubic_root(v0)
    pi = v0 * qm - c(qm) - (qm * qm / 2.0 + 0.75 * qm ** 4) / z
    return pi / (v0 * qs - c(qs))


def _type_weights(values, masses):
    """w_i with profit = sum_i w_i q_i - m_i c(q_i) for nondecreasing q.

    Binding the adjacent downward IC constraints charges each unit of q_i
    the rent (v_{i+1} - v_i)(1 - F_i) it concedes to every higher type.
    """
    values = np.asarray(values, dtype=float)
    masses = np.asarray(masses, dtype=float)
    above = 1.0 - np.cumsum(masses)
    dv = np.append(np.diff(values), 0.0)
    return masses * values - dv * above


def menu_profit(values, masses, eta, q):
    """Profit of the nondecreasing allocation q with binding adjacent ICs."""
    q = np.asarray(q, dtype=float)
    w = _type_weights(values, masses)
    return float(np.sum(w * q - np.asarray(masses) * q ** eta / eta))


def monotone_dp(values, masses, eta, grid):
    """Best profit over nondecreasing allocations on the quality grid.

    best_i(g) = w_i grid_g - m_i c(grid_g) + max_{g' <= g} best_{i-1}(g'):
    O(n G) work, exact on the grid, and no virtual values involved.
    Returns (profit, allocation).
    """
    grid = np.asarray(sorted(grid), dtype=float)
    w = _type_weights(values, masses)
    masses = np.asarray(masses, dtype=float)
    n, G = len(w), len(grid)
    best = np.zeros(G)
    choice = np.zeros((n, G), dtype=int)
    for i in range(n):
        gain = w[i] * grid - masses[i] * grid ** eta / eta
        arg = np.zeros(G, dtype=int)
        run = 0
        for g in range(1, G):      # prefix argmax, first index on ties
            if best[g] > best[run]:
                run = g
            arg[g] = run
        choice[i] = arg
        best = gain + best[arg]
    g = int(np.argmax(best))
    alloc = [0.0] * n
    for i in range(n - 1, -1, -1):
        alloc[i] = float(grid[g])
        g = int(choice[i][g])
    return float(best.max()), tuple(alloc)
