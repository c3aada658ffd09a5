"""Floating-point pointwise oracle for the curvature model.

Builds the rank-4 curvature tensor from the two scalar parameters, computes
Ricci, Weyl, and scalar curvature with the r_ij = g^pq R_ipjq sign convention,
and checks the pointwise claims: scalar-flatness, the Ricci spectrum, the
triple-contraction proportionality, the Weyl action on 2-forms (factor
convention (W phi)_ij = 1/2 W_ijkl phi_kl, which makes the eigenvalues read
0, 2 sigma, -2 sigma on the anti-self-dual eigenforms), vanishing of the
self-dual Weyl part, and invariance under the 32-element symmetry group and
simultaneous rotations.

The pointwise routines take a leading batch axis: `build_curvature` accepts
scalars or arrays of (lam, sig), every tensor carries the batch shape in
front of its index axes, and every residual reduces over the index axes only,
giving one value per point.  The Weyl tensor acts on the six 2-forms it is
checked on in one contraction, against the stack `WEYL_FORMS`, and a change
of frame contracts one index at a time (`transform`).  The sweep evaluates
its points in fixed blocks of `BLOCK` = 8, so its heap is bounded by the
block, not by the number of points: about 77 KiB, some four curvature
tensors of the block and numpy's iteration buffers.  A block makes about 64
numpy calls whatever its size: sums are formed in place or in one scratch
buffer, renamed indices are plain transposes, and the scaled tables are
einsum products, which sum into a zeroed output and need no broadcast
buffer.  Each element goes through the same operations in the same order
whatever the batch, so a point's residuals do not depend on its block.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .derive import symmetry_group
from .equations import curvature_table

#: points per block of `sweep`; a constant, so the sweep's heap (about
#: 77 KiB under tracemalloc) does not grow with the number of points.  Each
#: block makes the same numpy calls whatever its size, so 8-point blocks
#: take about 0.6 times as long per point as 4-point ones, whose heap is
#: about 42 KiB.
BLOCK = 8


def _constant(a) -> np.ndarray:
    """`a` as a read-only float array, safe to share between points."""
    m = np.array(a, dtype=float)
    m.flags.writeable = False
    return m


def _coefficient_arrays():
    """(R_LAM, R_SIG): the exact curvature table at (lam, sig) = (1, 0) and (0, 1)."""
    T = np.array(curvature_table(), dtype=object)
    return tuple(
        np.vectorize(lambda v: float(v.evaluate(at)) if v else 0.0, otypes=[float])(T)
        for at in ({"lam": 1, "sig": 0}, {"lam": 0, "sig": 1})
    )


#: R = lam * R_LAM + sig * R_SIG, read once from equations.curvature_table
R_LAM, R_SIG = _coefficient_arrays()

#: the flat metric g_ij in the orthonormal frame
METRIC = _constant(np.eye(4))
#: complex structure: J e1 = e2, J e2 = -e1, J e3 = e4, J e4 = -e3
J_MATRIX = _constant(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
#: the metric part of the Weyl formula, g_ip g_jq - g_jp g_iq
METRIC_WEDGE = _constant(
    np.einsum("ip,jq->ijpq", METRIC, METRIC) - np.einsum("jp,iq->ijpq", METRIC, METRIC)
)


def _two_form(*pairs) -> np.ndarray:
    """Read-only antisymmetric matrix from (i, j, value) entries, 1-based."""
    m = np.zeros((4, 4))
    for i, j, v in pairs:
        m[i - 1, j - 1] = v
        m[j - 1, i - 1] = -v
    return _constant(m)


#: Kaehler form omega = g(J ., .)
OMEGA = _two_form((1, 2, 1.0), (3, 4, 1.0))
#: anti-self-dual eigenforms of W, eigenvalues 0, 2 sigma, -2 sigma
ZETA = _two_form((1, 2, -1.0), (3, 4, 1.0))
ETA = _two_form((1, 3, -1.0), (2, 4, -1.0))
THETA = _two_form((1, 4, -1.0), (2, 3, 1.0))
#: a basis of the self-dual 2-forms, which W annihilates
SELF_DUAL = (OMEGA, _two_form((1, 3, 1.0), (2, 4, -1.0)), _two_form((1, 4, 1.0), (2, 3, 1.0)))
#: the forms `weyl_on_2forms` applies W to, in one stack: the three
#: anti-self-dual eigenforms, then the self-dual basis
WEYL_FORMS = _constant((ZETA, ETA, THETA) + SELF_DUAL)
#: W of each form in WEYL_FORMS, per unit sigma: 0, 2 ETA, -2 THETA, then
#: zero on the self-dual forms
WEYL_IMAGES = _constant([np.zeros((4, 4)), 2.0 * ETA, -2.0 * THETA] + 3 * [np.zeros((4, 4))])


#: signs of the Ricci eigenvalues in ascending order: -|lam|, -|lam|, |lam|, |lam|
SPECTRUM_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])


def _max_abs(x: np.ndarray, axes: int) -> np.ndarray:
    """max |x| over the trailing `axes` index axes, one value per point."""
    return np.abs(x).max(axis=tuple(range(-axes, 0)))


@dataclass
class CurvaturePoint:
    """One point of the model, or a batch: `lam` and `sig` are scalars or
    arrays of one shape, and `R` has that shape followed by (4, 4, 4, 4)."""

    lam: float | np.ndarray
    sig: float | np.ndarray
    R: np.ndarray
    g: ClassVar[np.ndarray] = METRIC
    J: ClassVar[np.ndarray] = J_MATRIX

    @property
    def rho(self) -> np.ndarray:
        """Ricci form lam * ZETA; einsum sums into a zeroed output, so its
        zero entries read +0.0."""
        return np.einsum("...,kl->...kl", self.lam, ZETA)

    @cached_property
    def norm2(self) -> np.ndarray:
        """|R|^2, computed once for the residuals that read it."""
        return norm_squared(self.R)


def build_curvature(lam, sig) -> CurvaturePoint:
    """Curvature tensor of the exact component table at (lam, sig), scalars
    or arrays of one shape.  Each scaled table is an einsum, which sums into
    a zeroed output: entries the table leaves at zero read +0.0, and no
    broadcast operand needs an iteration buffer."""
    R = np.einsum("...,ijkl->...ijkl", lam, R_LAM)
    R += np.einsum("...,ijkl->...ijkl", sig, R_SIG)
    return CurvaturePoint(lam, sig, R)


def curvature_symmetry_residual(pt: CurvaturePoint) -> np.ndarray:
    """Largest violation of the pair antisymmetries, the pair symmetry and
    the first Bianchi identity.  The four residual sums are formed two at a
    time in one scratch buffer, each starting from a copy of R."""
    R = pt.R
    sums = np.empty((2, *R.shape))
    np.copyto(sums, R)
    sums[0] += R.swapaxes(-4, -3)  # R_ijkl + R_jikl
    sums[1] += R.swapaxes(-2, -1)  # R_ijkl + R_ijlk
    worst = np.abs(sums, out=sums).max(axis=(0, -4, -3, -2, -1))
    np.copyto(sums, R)
    sums[0] -= R.swapaxes(-4, -2).swapaxes(-3, -1)  # R_ijkl - R_klij
    sums[1] += R.swapaxes(-3, -2).swapaxes(-2, -1)  # R_ijkl + R_iklj + R_iljk
    sums[1] += R.swapaxes(-3, -1).swapaxes(-2, -1)
    return np.maximum(worst, np.abs(sums, out=sums).max(axis=(0, -4, -3, -2, -1)))


def ricci_weyl_scalar(pt: CurvaturePoint):
    """(ricci, weyl, scalar) with the g^pq R_ipjq convention, n = 4."""
    R = pt.R
    ric = np.einsum("...ipjp->...ij", R)
    s = ric.trace(axis1=-2, axis2=-1)
    # gr[..., i, j, p, q] = g_ip ric_jq; the other three terms of the formula
    # are transposes of it
    gr = np.einsum("ip,...jq->...ijpq", pt.g, ric)
    W = gr + gr.swapaxes(-4, -3).swapaxes(-2, -1)  # + g_jq ric_ip
    W -= gr.swapaxes(-4, -3)  # - g_jp ric_iq
    W -= gr.swapaxes(-2, -1)  # - g_iq ric_jp
    W *= 0.5
    np.subtract(R, W, out=W)
    W += np.einsum("...,ijpq->...ijpq", s / 6.0, METRIC_WEDGE, out=gr)
    return ric, W, s


def triple_contraction(R: np.ndarray) -> np.ndarray:
    return np.einsum("...ipqr,...jpqr->...ij", R, R)


def norm_squared(R: np.ndarray) -> np.ndarray:
    return np.einsum("...ijkl,...ijkl->...", R, R)


def norm_residual(pt: CurvaturePoint) -> np.ndarray:
    """|R|^2 against its closed form 8 lam^2 + 32 sig^2."""
    return np.abs(pt.norm2 - (8 * np.square(pt.lam) + 32 * np.square(pt.sig)))


def weakly_einstein_residual(pt: CurvaturePoint) -> np.ndarray:
    """max-abs residual of check(R) - (|R|^2/4) g."""
    check = triple_contraction(pt.R)
    return _max_abs(check - (pt.norm2 / 4.0)[..., None, None] * pt.g, 2)


def weyl_action(W: np.ndarray, phi: np.ndarray) -> np.ndarray:
    image = np.einsum("...ijkl,...kl->...ij", W, phi)
    image *= 0.5
    return image


def weyl_on_2forms(pt: CurvaturePoint, W: np.ndarray) -> dict:
    """Eigen-data of the Weyl tensor W of `pt` acting on 2-forms, and the
    self-dual annihilation."""
    images = np.einsum("...ijkl,fkl->...fij", W, WEYL_FORMS)
    images *= 0.5
    images -= np.einsum("...,fij->...fij", pt.sig, WEYL_IMAGES)
    errors = np.abs(images, out=images).max(axis=(-2, -1))
    rho_image = weyl_action(W, pt.rho)
    return {
        "eigen_errors": (errors[..., 0], errors[..., 1], errors[..., 2]),
        "rho_error": np.abs(rho_image, out=rho_image).max(axis=(-2, -1)),
        "w_plus_norm": errors[..., 3:].max(axis=-1),
    }


def transform(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M_ip M_jq M_kr M_ls R_pqrs, one index at a time: each step contracts
    the leading index of R with M and puts the new index last, so four steps
    bring the indices back in order."""
    for _ in range(4):
        R = np.einsum("ip,pqrs->qrsi", M, R)
    return R


def group_matrices() -> list:
    """(M, s_lam, s_sig) for each of the 32 group elements: its frame change
    as a signed permutation matrix, and the signs it puts on lam and sig."""
    out = []
    for e in symmetry_group():
        M = np.zeros((4, 4))
        M[range(4), np.subtract(e.perm, 1)] = e.signs
        out.append((M, e.s_lam, e.s_sig))
    return out


def _table_residual(R: np.ndarray, lam: float, sig: float) -> float:
    return float(np.max(np.abs(R - build_curvature(lam, sig).R)))


def symmetry_orbit_check(pt: CurvaturePoint, seed: int = 0, angles: int = 16) -> dict:
    """All 32 group elements and `angles` random rotations reproduce the
    component table with the transformed scalars.  One 4x4 frame change at a
    time: a batch of all 32 would grow the heap by some 0.3 MiB."""
    group = [
        _table_residual(transform(M, pt.R), s_lam * pt.lam, s_sig * pt.sig)
        for M, s_lam, s_sig in group_matrices()
    ]
    rng = random.Random(seed)
    rotations = []
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
        rotations.append(_table_residual(transform(M, pt.R), pt.lam, pt.sig))
    return {  # np.max keeps a NaN residual, which max() drops
        "group_elements": len(group),
        "group_residual": float(np.max(group)),
        "rotation_residual": float(np.max(rotations)),
    }


def _block_residuals(lam: np.ndarray, sig: np.ndarray) -> dict:
    """The sweep's residuals at the points (lam, sig), one array each.  A
    function, so that a block's tensors are freed before the next block is
    built."""
    pt = build_curvature(lam, sig)
    # first, so that its scratch buffer is freed before W is built
    symmetry = curvature_symmetry_residual(pt)
    ric, W, s = ricci_weyl_scalar(pt)
    spectrum = np.linalg.eigvalsh(ric)  # ascending, as LAPACK returns it
    w = weyl_on_2forms(pt, W)
    return {
        "curvature_symmetry": symmetry,
        "scalar": np.abs(s),
        "ricci_spectrum": _max_abs(spectrum - np.abs(lam)[:, None] * SPECTRUM_SIGNS, 1),
        "weakly_einstein": weakly_einstein_residual(pt),
        "eigenvalues": np.maximum.reduce(w["eigen_errors"]),
        "rho": w["rho_error"],
        "w_plus": w["w_plus_norm"],
        "norm2": norm_residual(pt),
    }


def sweep(points: int = 100, seed: int = 0, tol: float = 1e-12) -> dict:
    """Seeded random sweep over (lam, sig) in [-2, 2]^2, evaluated in blocks
    of `BLOCK` points; each point draws lam, then sig."""
    if points < 1:
        raise ValueError(f"a sweep needs at least one point, got {points}")
    if not 0 < tol < math.inf:
        raise ValueError(f"a sweep needs a finite tolerance > 0, got {tol}")
    rng = random.Random(seed)
    worst = 0.0
    for start in range(0, points, BLOCK):
        drawn = [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                 for _ in range(min(BLOCK, points - start))]
        lam, sig = np.array(drawn).T
        block = _block_residuals(lam, sig)
        # one maximum per residual; np.maximum keeps a NaN, which max() drops
        worst = np.maximum(worst, np.max(list(block.values()), axis=1))
    worst = dict(zip(block, worst.tolist()))
    return {
        "points": points,
        "seed": seed,
        "tol": tol,
        "worst": worst,
        "ok": all(v < tol for v in worst.values()),
    }
