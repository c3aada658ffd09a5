import contextlib
import io
import math
import random
import tracemalloc

from fractions import Fraction

import numpy as np
import pytest

import edsverify.numeric as N
from edsverify.cli import main
from edsverify.equations import curvature_table

from conftest import recorded

TOL = 1e-12


def brute_norm_squared(R):
    total = 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    total += R[i, j, k, l] ** 2
    return total


def brute_weyl(R, g, ric, s):
    """The dimension-4 Weyl formula written out component by component."""
    W = R.copy()
    for i in range(4):
        for j in range(4):
            for p in range(4):
                for q in range(4):
                    W[i, j, p, q] -= 0.5 * (
                        g[i, p] * ric[j, q]
                        + g[j, q] * ric[i, p]
                        - g[j, p] * ric[i, q]
                        - g[i, q] * ric[j, p]
                    )
                    W[i, j, p, q] += s / 6.0 * (g[i, p] * g[j, q] - g[j, p] * g[i, q])
    return W


def reference_sweep(points, seed):
    """The sweep as a loop over single points, calling the per-point forms."""
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
        pt = N.build_curvature(lam, sig)
        worst["curvature_symmetry"] = max(
            worst["curvature_symmetry"], N.curvature_symmetry_residual(pt)
        )
        ric, W, s = N.ricci_weyl_scalar(pt)
        worst["scalar"] = max(worst["scalar"], abs(s))
        spectrum = sorted(np.linalg.eigvalsh(ric))
        expected = sorted([-abs(lam), -abs(lam), abs(lam), abs(lam)])
        worst["ricci_spectrum"] = max(
            worst["ricci_spectrum"], max(abs(a - b) for a, b in zip(spectrum, expected))
        )
        worst["weakly_einstein"] = max(worst["weakly_einstein"], N.weakly_einstein_residual(pt))
        w = N.weyl_on_2forms(pt, W)
        worst["eigenvalues"] = max(worst["eigenvalues"], max(w["eigen_errors"]))
        worst["rho"] = max(worst["rho"], w["rho_error"])
        worst["w_plus"] = max(worst["w_plus"], w["w_plus_norm"])
        norm2 = float(np.einsum("ijkl,ijkl->", pt.R, pt.R))
        worst["norm2"] = max(worst["norm2"], abs(norm2 - (8 * lam**2 + 32 * sig**2)))
    return worst


def stacked(points):
    """One CurvaturePoint holding every (lam, sig) of `points`."""
    lam, sig = np.array(points).T
    return N.build_curvature(lam, sig)


def brute_triple_contraction(R):
    out = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            acc = 0.0
            for p in range(4):
                for q in range(4):
                    for r in range(4):
                        acc += R[i, p, q, r] * R[j, p, q, r]
            out[i, j] = acc
    return out


def test_build_unit_point_components():
    pt = N.build_curvature(1.0, 1.0)
    assert pt.R[0, 1, 0, 1] == -1.0
    assert pt.R[2, 3, 2, 3] == 1.0
    assert pt.R[0, 2, 0, 2] == 1.0
    assert pt.R[0, 3, 1, 2] == 1.0  # R_1423
    assert pt.R[0, 2, 3, 1] == -1.0  # R_1342


def test_build_zero_point():
    assert not N.build_curvature(0.0, 0.0).R.any()


def test_norm_squared_brute_force():
    pt = N.build_curvature(2.0, 3.0)
    assert abs(brute_norm_squared(pt.R) - 320.0) < TOL
    rng = random.Random(5)
    for _ in range(20):
        lam, sig = rng.uniform(-2, 2), rng.uniform(-2, 2)
        R = N.build_curvature(lam, sig).R
        assert abs(brute_norm_squared(R) - (8 * lam**2 + 32 * sig**2)) < TOL


def test_build_matches_exact_table():
    T = curvature_table()
    rng = random.Random(7)
    points = [(1.0, 1.0), (-1.5, 0.25), (0.5, -2.0), (-0.75, -1.25)]
    points += [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(10)]
    for lam, sig in points:
        at = {"lam": Fraction(lam), "sig": Fraction(sig)}
        exact = np.array(
            [[[[float(T[i][j][k][l].evaluate(at)) for l in range(4)] for k in range(4)]
              for j in range(4)] for i in range(4)]
        )
        assert np.array_equal(N.build_curvature(lam, sig).R, exact)


def test_weyl_matches_componentwise_formula():
    rng = random.Random(41)
    points = [(-1.0, -1.0), (-1.5, 0.5), (0.5, -1.5)]
    points += [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(200)]
    per_point = []
    for lam, sig in points:
        pt = N.build_curvature(lam, sig)
        ric, W, s = N.ricci_weyl_scalar(pt)
        assert np.array_equal(W, brute_weyl(pt.R, pt.g, ric, s))
        per_point.append((ric, W, s))
    for got, want in zip(N.ricci_weyl_scalar(stacked(points)), zip(*per_point)):
        assert np.array_equal(got, np.array(want))


def test_curvature_symmetries():
    rng = random.Random(11)
    points = [(-1.0, -1.0), (-1.5, 0.5), (0.5, -1.5)]
    points += [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    per_point = [N.curvature_symmetry_residual(N.build_curvature(lam, sig)) for lam, sig in points]
    assert max(per_point) < 1e-14
    assert np.array_equal(N.curvature_symmetry_residual(stacked(points)), per_point)


def test_ricci_weyl_scalar_values():
    pt = N.build_curvature(1.0, 1.0)
    ric, W, s = N.ricci_weyl_scalar(pt)
    assert ric[0, 0] == -1.0 and ric[1, 1] == -1.0
    assert ric[2, 2] == 1.0 and ric[3, 3] == 1.0
    assert s == 0.0
    assert W[0, 2, 0, 2] == 1.0  # W_1313 = sigma
    assert W[0, 3, 1, 2] == 1.0  # W_1423 = sigma
    assert W[0, 3, 0, 3] == -W[0, 2, 0, 2]  # W_1414 = -W_1313


def test_scalar_zero_exactly_random():
    rng = random.Random(3)
    for _ in range(50):
        pt = N.build_curvature(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _, _, s = N.ricci_weyl_scalar(pt)
        assert s == 0.0


def test_weakly_einstein_unit_point():
    pt = N.build_curvature(1.0, 1.0)
    check = brute_triple_contraction(pt.R)
    norm2 = brute_norm_squared(pt.R)
    assert abs(norm2 / 4.0 - 10.0) < TOL
    assert np.max(np.abs(check - 10.0 * np.eye(4))) < TOL
    assert N.weakly_einstein_residual(pt) < 1e-12


def test_weakly_einstein_conformally_flat_branch():
    pt = N.build_curvature(0.0, 1.5)
    assert N.weakly_einstein_residual(pt) < 1e-12


def test_weakly_einstein_random_sweep():
    rng = random.Random(17)
    points = [(-1.0, -1.0), (-1.5, 0.5), (0.5, -1.5)]
    points += [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(100)]
    triples, residuals = [], []
    for lam, sig in points:
        pt = N.build_curvature(lam, sig)
        residual = np.max(
            np.abs(
                brute_triple_contraction(pt.R)
                - brute_norm_squared(pt.R) / 4.0 * np.eye(4)
            )
        )
        assert residual < 1e-12
        residuals.append(N.weakly_einstein_residual(pt))
        assert residuals[-1] < 1e-12
        triples.append(N.triple_contraction(pt.R))
    pts = stacked(points)
    assert np.array_equal(N.triple_contraction(pts.R), triples)
    assert np.array_equal(N.weakly_einstein_residual(pts), residuals)


def test_weyl_eigenvalues_unit_point():
    pt = N.build_curvature(1.0, 1.0)
    _, W, _ = N.ricci_weyl_scalar(pt)
    for form, value in ((N.ZETA, 0.0), (N.ETA, 2.0), (N.THETA, -2.0)):
        assert np.max(np.abs(N.weyl_action(W, form) - value * form)) < 1e-12


def test_weyl_annihilates_ricci_form():
    rng = random.Random(23)
    for _ in range(25):
        pt = N.build_curvature(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _, W, _ = N.ricci_weyl_scalar(pt)
        assert np.max(np.abs(N.weyl_action(W, pt.rho))) < 1e-12
        # rho is lam times the first eigenform
        assert np.max(np.abs(pt.rho - pt.lam * N.ZETA)) < 1e-14


def test_self_dual_part_vanishes_brute_force():
    def two_form(pairs):
        m = np.zeros((4, 4))
        for i, j, v in pairs:
            m[i, j] = v
            m[j, i] = -v
        return m

    self_dual = (
        two_form([(0, 1, 1.0), (2, 3, 1.0)]),
        two_form([(0, 2, 1.0), (1, 3, -1.0)]),
        two_form([(0, 3, 1.0), (1, 2, 1.0)]),
    )
    rng = random.Random(29)
    for _ in range(25):
        pt = N.build_curvature(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _, W, _ = N.ricci_weyl_scalar(pt)
        for f in self_dual:
            out = np.zeros((4, 4))
            for i in range(4):
                for j in range(4):
                    acc = 0.0
                    for k in range(4):
                        for l in range(4):
                            acc += 0.5 * W[i, j, k, l] * f[k, l]
                    out[i, j] = acc
            assert np.max(np.abs(out)) < 1e-12


def test_anti_self_dual_eigenforms_are_orthogonal_length_sqrt2():
    # 2-form inner product <a, b> = 1/2 sum a_ij b_ij
    forms = (N.ZETA, N.ETA, N.THETA)
    for a in forms:
        assert abs(0.5 * np.tensordot(a, a) - 2.0) < TOL
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(0.5 * np.tensordot(forms[i], forms[j])) < TOL


def test_complex_structure():
    pt = N.build_curvature(1.0, 2.0)
    assert np.array_equal(pt.J @ pt.J, -np.eye(4))
    # omega = g(J . , .) has components J^T
    assert np.max(np.abs(N.OMEGA - pt.J.T)) < TOL


def test_symmetry_orbit_elements():
    pt = N.build_curvature(1.0, 1.0)
    report = N.symmetry_orbit_check(pt, seed=2)
    assert len(N.group_matrices()) == 32
    assert report["group_residual"] < 1e-12
    assert report["rotation_residual"] < 1e-12


def test_rep_i_image_matches_flipped_sigma():
    # (e2, -e1, e3, e4) with sigma -> -sigma
    pt = N.build_curvature(0.7, -1.3)
    M = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    Rhat = np.einsum("ip,jq,kr,ls,pqrs->ijkl", M, M, M, M, pt.R)
    assert np.max(np.abs(Rhat - N.build_curvature(0.7, 1.3).R)) < 1e-12


def test_rep_iv_image_matches_flipped_lambda():
    pt = N.build_curvature(0.7, -1.3)
    M = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0.0]])
    Rhat = np.einsum("ip,jq,kr,ls,pqrs->ijkl", M, M, M, M, pt.R)
    assert np.max(np.abs(Rhat - N.build_curvature(-0.7, -1.3).R)) < 1e-12


def test_identity_rotation():
    pt = N.build_curvature(1.1, 0.4)
    M = np.eye(4)
    Rhat = np.einsum("ip,jq,kr,ls,pqrs->ijkl", M, M, M, M, pt.R)
    assert np.array_equal(Rhat, pt.R)


def test_sweep_interface():
    worst = N.sweep(points=30, seed=9)
    assert sorted(worst) == sorted(reference_sweep(1, 0))
    assert all(value < N.TOL for value in worst.values())
    with pytest.raises(ValueError):
        N.sweep(points=0)
    with pytest.raises(TypeError):  # the tolerance is the constant TOL
        N.sweep(points=5, tol=1e-12)


def test_sweep_matches_reference_loop():
    # block boundaries on each side: one point, a block less one, a block, a block plus one
    for seed in range(4):
        for points in (1, N.BLOCK - 1, N.BLOCK, N.BLOCK + 1, 31, 32, 33, 100, 2000):
            assert N.sweep(points=points, seed=seed) == reference_sweep(points, seed), (seed, points)


def test_sweep_heap_is_bounded_by_the_block():
    N.sweep(points=N.BLOCK)  # numpy's lazy set-up happens outside the trace
    tracemalloc.start()
    try:
        N.sweep(points=4 * N.BLOCK)
        _, few = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        N.sweep(points=2000)
        _, many = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about four curvature tensors of an 8-point block and numpy's iteration buffers
    assert many < 80 * 1024, many
    assert abs(many - few) <= 0.1 * few, (few, many)


def five_operand(M, R):
    """The frame change written as one contraction over all four indices."""
    return np.einsum("ip,jq,kr,ls,pqrs->ijkl", M, M, M, M, R)


def seeded_rotations(seed, angles):
    rng = random.Random(seed)
    out = []
    for _ in range(angles):
        t = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(t), math.sin(t)
        out.append([[c, s, 0, 0], [-s, c, 0, 0], [0, 0, c, s], [0, 0, -s, c]])
    return np.array(out)


def test_staged_transform_matches_five_operand_einsum():
    group = [M for M, _, _ in N.group_matrices()]
    assert len(group) == 32
    curvature = N.build_curvature(1.25, -0.75).R
    full = np.random.default_rng(43).uniform(-2.0, 2.0, (4, 4, 4, 4))
    for M in group:
        # a signed permutation moves entries exactly, whatever the order
        assert np.array_equal(N.transform(M, curvature), five_operand(M, curvature))
        assert np.array_equal(N.transform(M, full), five_operand(M, full))
    for M in seeded_rotations(3, 16):
        assert np.max(np.abs(N.transform(M, curvature) - five_operand(M, curvature))) <= 1e-15
    for seed in range(4):  # the CLI's orbit-group detail reads 0.000e+00
        report = N.symmetry_orbit_check(N.build_curvature(1.25, -0.75), seed=seed)
        assert report["group_residual"] == 0.0


def test_stacked_weyl_forms_match_one_action_per_form():
    rng = random.Random(47)
    pts = stacked([(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(50)])
    _, W, _ = N.ricci_weyl_scalar(pts)
    w = N.weyl_on_2forms(pts, W)
    two_sig = 2.0 * pts.sig[:, None, None]

    def err(x):
        return np.abs(x).max(axis=(-2, -1))

    want = (
        err(N.weyl_action(W, N.ZETA)),
        err(N.weyl_action(W, N.ETA) - two_sig * N.ETA),
        err(N.weyl_action(W, N.THETA) + two_sig * N.THETA),
    )
    for got, expected in zip(w["eigen_errors"], want):
        assert np.array_equal(got, expected)
    assert np.array_equal(
        w["w_plus_norm"], np.maximum.reduce([err(N.weyl_action(W, f)) for f in N.SELF_DUAL])
    )
    assert np.array_equal(w["rho_error"], err(N.weyl_action(W, pts.rho)))


def test_a_nan_residual_fails(monkeypatch):
    monkeypatch.setattr(N, "norm_residual", lambda pt: np.full(np.shape(pt.lam), np.nan))
    assert math.isnan(N.sweep(points=2 * N.BLOCK + 1)["norm2"])
    checks = recorded(N.verify_residuals, 2 * N.BLOCK + 1, 0)
    assert [c_id for c_id, c in checks.items() if c["status"] == "fail"] == ["sweep-norm2"]
    assert checks["sweep-norm2"]["detail"] == "nan"
    monkeypatch.setattr(N, "transform", lambda M, R: np.full_like(R, np.nan))
    report = N.symmetry_orbit_check(N.build_curvature(1.25, -0.75))
    assert math.isnan(report["group_residual"]) and math.isnan(report["rotation_residual"])
    checks = recorded(N.verify_residuals, 1, 0)
    assert checks["orbit-group"]["status"] == checks["orbit-rotations"]["status"] == "fail"


def test_no_array_constant_is_writeable():
    """Every ndarray constant of the module is read-only, so no caller can
    change what a later sweep reads in the same process."""
    arrays = {name: value for name, value in vars(N).items() if isinstance(value, np.ndarray)}
    assert {"R_TABLES", "R_LAM", "R_SIG", "SPECTRUM_SIGNS", "METRIC", "WEYL_FORMS"} <= arrays.keys()
    assert [name for name, a in arrays.items() if a.flags.writeable] == []
    with pytest.raises(ValueError):
        N.R_SIG[0, 2, 0, 2] += 0.5


def test_a_perturbed_table_fails_the_sweep(monkeypatch):
    """Against the constant tolerance, one curvature component off by 0.5
    fails the numeric suite."""
    perturbed = N.R_TABLES.copy()
    perturbed[1, 0, 2, 0, 2] += 0.5  # R_SIG's entry
    monkeypatch.setattr(N, "R_TABLES", perturbed)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["numeric", "--points", "50"]) == 1


def test_curvature_point_shares_read_only_frames():
    a, b = N.build_curvature(1.0, 2.0), N.build_curvature(-0.5, 0.25)
    assert a.g is b.g and a.J is b.J
    assert not a.g.flags.writeable and not a.J.flags.writeable
