"""Floating-point pointwise oracle for the curvature model.

Builds the rank-4 curvature tensor from the two scalar parameters, computes
Ricci, Weyl, and scalar curvature with the r_ij = g^pq R_ipjq sign convention,
and checks the pointwise claims: scalar-flatness, the Ricci spectrum, the
triple-contraction proportionality, the Weyl action on 2-forms (factor
convention (W phi)_ij = 1/2 W_ijkl phi_kl, which makes the eigenvalues read
0, 2 sigma, -2 sigma on the anti-self-dual eigenforms), vanishing of the
self-dual Weyl part, and invariance under the 32-element symmetry group and
simultaneous rotations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .derive import symmetry_group
from .equations import curvature_table


def _coefficient_arrays():
    """(R_LAM, R_SIG): the exact curvature table at (lam, sig) = (1, 0) and (0, 1)."""
    T = np.array(curvature_table(), dtype=object)
    return tuple(
        np.vectorize(lambda v: float(v.evaluate(at)) if v else 0.0, otypes=[float])(T)
        for at in ({"lam": 1, "sig": 0}, {"lam": 0, "sig": 1})
    )


#: R = lam * R_LAM + sig * R_SIG, read once from equations.curvature_table
R_LAM, R_SIG = _coefficient_arrays()

#: complex structure: J e1 = e2, J e2 = -e1, J e3 = e4, J e4 = -e3
J_MATRIX = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def _two_form(*pairs) -> np.ndarray:
    """Antisymmetric matrix from (i, j, value) entries, 1-based."""
    m = np.zeros((4, 4))
    for i, j, v in pairs:
        m[i - 1, j - 1] = v
        m[j - 1, i - 1] = -v
    return m


@dataclass
class CurvaturePoint:
    lam: float
    sig: float
    R: np.ndarray
    g: np.ndarray = field(default_factory=lambda: np.eye(4))
    J: np.ndarray = field(default_factory=lambda: J_MATRIX.copy())

    @property
    def omega(self) -> np.ndarray:
        return _two_form((1, 2, 1.0), (3, 4, 1.0))

    @property
    def rho(self) -> np.ndarray:
        return _two_form((1, 2, -self.lam), (3, 4, self.lam))

    @property
    def zeta(self) -> np.ndarray:
        return _two_form((1, 2, -1.0), (3, 4, 1.0))

    @property
    def eta(self) -> np.ndarray:
        return _two_form((1, 3, -1.0), (2, 4, -1.0))

    @property
    def theta(self) -> np.ndarray:
        return _two_form((1, 4, -1.0), (2, 3, 1.0))


def build_curvature(lam: float, sig: float) -> CurvaturePoint:
    """Curvature tensor of the exact component table at (lam, sig); the
    trailing + 0.0 keeps entries the table leaves at zero at +0.0."""
    return CurvaturePoint(lam, sig, lam * R_LAM + sig * R_SIG + 0.0)


def curvature_symmetry_residual(pt: CurvaturePoint) -> float:
    R = pt.R
    r1 = np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3))))
    r2 = np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2))))
    r3 = np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))
    bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    return max(r1, r2, r3, float(np.max(np.abs(bianchi))))


def ricci_weyl_scalar(pt: CurvaturePoint):
    """(ricci, weyl, scalar) with the g^pq R_ipjq convention, n = 4."""
    R = pt.R
    g = pt.g
    ric = np.einsum("ipjp->ij", R)
    s = float(np.trace(ric))
    W = R - 0.5 * (
        np.einsum("ip,jq->ijpq", g, ric)
        + np.einsum("jq,ip->ijpq", g, ric)
        - np.einsum("jp,iq->ijpq", g, ric)
        - np.einsum("iq,jp->ijpq", g, ric)
    )
    W = W + s / 6.0 * (np.einsum("ip,jq->ijpq", g, g) - np.einsum("jp,iq->ijpq", g, g))
    return ric, W, s


def triple_contraction(R: np.ndarray) -> np.ndarray:
    return np.einsum("ipqr,jpqr->ij", R, R)


def weakly_einstein_residual(pt: CurvaturePoint) -> float:
    """max-abs residual of check(R) - (|R|^2/4) g."""
    check = triple_contraction(pt.R)
    norm2 = float(np.einsum("ijkl,ijkl->", pt.R, pt.R))
    return float(np.max(np.abs(check - norm2 / 4.0 * pt.g)))


def weyl_action(W: np.ndarray, phi: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("ijkl,kl->ij", W, phi)


def weyl_on_2forms(pt: CurvaturePoint) -> dict:
    """Eigen-data of W acting on 2-forms and the self-dual annihilation."""
    _, W, _ = ricci_weyl_scalar(pt)
    zeta, eta, theta = pt.zeta, pt.eta, pt.theta
    err_zeta = float(np.max(np.abs(weyl_action(W, zeta))))
    err_eta = float(np.max(np.abs(weyl_action(W, eta) - 2.0 * pt.sig * eta)))
    err_theta = float(np.max(np.abs(weyl_action(W, theta) + 2.0 * pt.sig * theta)))
    err_rho = float(np.max(np.abs(weyl_action(W, pt.rho))))
    self_dual = (
        _two_form((1, 2, 1.0), (3, 4, 1.0)),
        _two_form((1, 3, 1.0), (2, 4, -1.0)),
        _two_form((1, 4, 1.0), (2, 3, 1.0)),
    )
    w_plus = max(float(np.max(np.abs(weyl_action(W, f)))) for f in self_dual)
    return {
        "eigen_errors": (err_zeta, err_eta, err_theta),
        "rho_error": err_rho,
        "w_plus_norm": w_plus,
    }


def _table_residual(R: np.ndarray, lam: float, sig: float) -> float:
    return float(np.max(np.abs(R - build_curvature(lam, sig).R)))


def symmetry_orbit_check(pt: CurvaturePoint, seed: int = 0, angles: int = 16) -> dict:
    """All 32 group elements and `angles` random rotations reproduce the
    component table with the transformed scalars."""
    elements, _ = symmetry_group()
    worst_group = 0.0
    for e in elements:
        M = np.zeros((4, 4))
        for i in range(4):
            M[i, e.perm[i] - 1] = e.signs[i]
        Rhat = np.einsum("ip,jq,kr,ls,pqrs->ijkl", M, M, M, M, pt.R)
        resid = _table_residual(Rhat, e.s_lam * pt.lam, e.s_sig * pt.sig)
        worst_group = max(worst_group, resid)
    rng = random.Random(seed)
    worst_rot = 0.0
    for _ in range(angles):
        t = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(t), math.sin(t)
        M = np.array(
            [
                [c, s, 0.0, 0.0],
                [-s, c, 0.0, 0.0],
                [0.0, 0.0, c, s],
                [0.0, 0.0, -s, c],
            ]
        )
        Rhat = np.einsum("ip,jq,kr,ls,pqrs->ijkl", M, M, M, M, pt.R)
        worst_rot = max(worst_rot, _table_residual(Rhat, pt.lam, pt.sig))
    return {
        "group_elements": len(elements),
        "group_residual": worst_group,
        "rotation_residual": worst_rot,
    }


def sweep(points: int = 100, seed: int = 0, tol: float = 1e-12) -> dict:
    """Seeded random sweep over (lam, sig) in [-2, 2]^2."""
    rng = random.Random(seed)
    worst = {
        "curvature_symmetry": 0.0,
        "scalar": 0.0,
        "ricci_spectrum": 0.0,
        "weakly_einstein": 0.0,
        "eigenvalues": 0.0,
        "rho": 0.0,
        "w_plus": 0.0,
        "norm2": 0.0,
    }
    for _ in range(points):
        lam = rng.uniform(-2.0, 2.0)
        sig = rng.uniform(-2.0, 2.0)
        pt = build_curvature(lam, sig)
        worst["curvature_symmetry"] = max(worst["curvature_symmetry"], curvature_symmetry_residual(pt))
        ric, _, s = ricci_weyl_scalar(pt)
        worst["scalar"] = max(worst["scalar"], abs(s))
        spectrum = sorted(np.linalg.eigvalsh(ric))
        expected = sorted([-abs(lam), -abs(lam), abs(lam), abs(lam)])
        worst["ricci_spectrum"] = max(
            worst["ricci_spectrum"], max(abs(a - b) for a, b in zip(spectrum, expected))
        )
        worst["weakly_einstein"] = max(worst["weakly_einstein"], weakly_einstein_residual(pt))
        w = weyl_on_2forms(pt)
        worst["eigenvalues"] = max(worst["eigenvalues"], max(w["eigen_errors"]))
        worst["rho"] = max(worst["rho"], w["rho_error"])
        worst["w_plus"] = max(worst["w_plus"], w["w_plus_norm"])
        norm2 = float(np.einsum("ijkl,ijkl->", pt.R, pt.R))
        worst["norm2"] = max(worst["norm2"], abs(norm2 - (8 * lam**2 + 32 * sig**2)))
    return {
        "points": points,
        "seed": seed,
        "tol": tol,
        "worst": worst,
        "ok": all(v < tol for v in worst.values()),
    }
