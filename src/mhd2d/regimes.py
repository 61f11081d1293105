"""Exponent-regime classification for the (alpha, beta) plane.

Each global-regularity regime is a set of hypotheses on the dissipation
exponent alpha, the diffusion exponent beta, and the coefficients nu,
eta.  Every parameter point gets exactly one tag:

* ``theorem-1.1``: nu = 0, eta > 0, alpha = 0, beta > 3/2
  (zero dissipation, supercritical-in-alpha magnetic diffusion)
* ``theorem-1.2``: nu, eta > 0, alpha in (0, 1/2), beta in (5/4, 3/2],
  alpha + 2*beta > 3
* ``theorem-5.1``: nu, eta > 0, alpha >= 1/2, beta >= 1
* ``outside``: anything else.
"""

TAG_THEOREM_11 = "theorem-1.1"
TAG_THEOREM_12 = "theorem-1.2"
TAG_THEOREM_51 = "theorem-5.1"
TAG_OUTSIDE = "outside"


def classify_regime(alpha: float, beta: float, nu: float, eta: float) -> str:
    """Tag a parameter point by the regime hypotheses it satisfies."""
    if nu == 0.0 and eta > 0.0 and alpha == 0.0 and beta > 1.5:
        return TAG_THEOREM_11
    if nu > 0.0 and eta > 0.0:
        if 0.0 < alpha < 0.5 and 1.25 < beta <= 1.5 and alpha + 2.0 * beta > 3.0:
            return TAG_THEOREM_12
        if alpha >= 0.5 and beta >= 1.0:
            return TAG_THEOREM_51
    return TAG_OUTSIDE

