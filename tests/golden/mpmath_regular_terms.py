"""Recompute the high-precision regular terms of ``regular_terms_n49.json``.

Run from the repository root (about 20 s):

    python tests/golden/mpmath_regular_terms.py

The case is the large-norm check of the dense eigensolve: L = 4, h = 1/2
(N = 49), f = ``F`` below, beta = 1, and eight families whose ||C||_2^2 runs
from 1.2e1 to 3.3e19; the last two put a huge column before a modest one.  The float64 inputs of the readout (d = 1/lambda, the
columns' sine coefficients C and those of f) are taken from the library as
they are; diag(d) + C C^T is then eigendecomposed by mpmath at ``DPS``
digits, and the regular term sum_j a_j^2 F(1/mu_j), with F(x) = 1/(e^(beta
x) - 1) - 1/(beta x) and a the eigenvector coefficients of f, is summed at
that precision.  So the reference tests the eigensolve, not the sampling.
"""

import json
import os
import sys

import mpmath

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

import becbox as bb  # noqa: E402
from becbox import continuum as ct  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DPS = 50
L, H, BETA = 4.0, 0.5, 1.0
F = "dipole2:cx=0.2,cy=0.1,s=0.5,ax=1.2,ay=0.9,axis=y"
FAMILIES = [
    "hpoly2:n=1,part=re",
    "expcos:k=6",
    "expcos:k=9,phase=0.4",
    "hpoly2:n=4,part=re;expcos:k=9",
    "expcos:k=12",
    "expcos:k=15,phase=0.4",
    "expcos:k=9;hpoly2:n=4,part=re",
    "expcos:k=12;hpoly2:n=1,part=re",
]


def inputs(family: str):
    """d, C and f's sine coefficients of the case, as float64 arrays."""
    grid = bb.make_grid(2, [L, L], H)
    op = bb.build_phi_operator(grid, bb.parse_family(family), backend="dense")
    spec = ct.parse_test_function(F)
    f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
    return 1.0 / op.lam, op.basis.col_hat, op._hat(f)


def regular_term(family: str) -> float:
    d, C, fhat = inputs(family)
    n, K = C.shape
    with mpmath.workdps(DPS):
        M = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = mpmath.fsum(mpmath.mpf(C[i, k]) * mpmath.mpf(C[j, k]) for k in range(K))
            M[i, i] += mpmath.mpf(d[i])
        mu, V = mpmath.eigsy(M)
        total = mpmath.mpf(0)
        for j in range(n):
            a = mpmath.fsum(V[i, j] * mpmath.mpf(fhat[i]) for i in range(n))
            t = BETA / mu[j]
            total += a**2 * (1 / mpmath.expm1(t) - 1 / t)
        return float(total)


def main() -> None:
    values = {family: regular_term(family) for family in FAMILIES}
    payload = {"L": L, "h": H, "beta": BETA, "f": F, "dps": DPS, "regular_term": values}
    with open(os.path.join(HERE, "regular_terms_n49.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
