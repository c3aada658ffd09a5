from fractions import Fraction

from edsverify import structure
from edsverify.algebra import LocFrac, Poly
from edsverify.forms import COFRAME, DForm, ext_d, substitute_one_forms, wedge
from edsverify.structure import (
    StructureSystem,
    build_connection,
    curvature_forms,
    expected_curvature,
    gamma,
    grid_rules,
    lie_bracket,
    load_system,
    torsion_equations,
    verify_covariant_derivatives,
    verify_parallel_g_J,
)

from conftest import recorded


def abstract_forms(system):
    E, H = system.form_E(), system.form_H()
    F, G = system.one_form("F"), system.one_form("G")
    return E, F, G, H


def test_connection_entries(system):
    E, F, G, H = abstract_forms(system)
    grid = build_connection(E, F, G, H)
    assert gamma(grid, 2, 1) == E  # entry (1,2) of the display
    assert gamma(grid, 3, 2) == -G  # entry (2,3)
    assert gamma(grid, 4, 3) == H
    assert gamma(grid, 1, 1).is_zero()


def test_connection_skew(system):
    grid = system.connection
    for j in range(1, 5):
        for k in range(1, 5):
            assert (gamma(grid, j, k) + gamma(grid, k, j)).is_zero()


def test_pattern_verification_passes(system):
    pattern = recorded(verify_parallel_g_J, system.connection)["connection-pattern"]
    assert pattern["status"] == "pass"
    assert pattern["detail"] == "free 1-forms: 4"
    assert sorted(structure._pattern_classes()) == [(1, 2), (1, 3), (1, 4), (3, 4)]


def pattern_classes_by_union_find():
    """The reference: the former solution of the nabla g / nabla J relations
    on 16 free slots by signed union-find."""
    parent: dict = {}
    sign: dict = {}  # sign of a node relative to its parent pointer
    zero = ("zero",)

    def find(x):
        parent.setdefault(x, x)
        sign.setdefault(x, 1)
        if parent[x] == x:
            return x, 1
        root, s = find(parent[x])
        parent[x] = root
        sign[x] = sign[x] * s
        return root, sign[x]

    def union(x, y, rel_sign):
        # impose x = rel_sign * y
        rx, sx = find(x)
        ry, sy = find(y)
        if rx == ry:
            if sx * sy != rel_sign:
                union_zero(rx)
            return
        parent[ry] = rx
        sign[ry] = rel_sign * sx * sy

    def union_zero(x):
        rx, _ = find(x)
        rz, _ = find(zero)
        if rx != rz:
            parent[rx] = rz
            sign[rx] = 1

    for j in range(1, 5):
        union_zero((j, j))
        for k in range(1, 5):
            if j != k:
                union((j, k), (k, j), -1)
    for j, k, p, q, rel in structure._J_RELATIONS:
        union((j, k), (p, q), rel)
    zroot, _ = find(zero)
    groups: dict = {}
    for j in range(1, 5):
        for k in range(1, 5):
            root, s = find((j, k))
            if root == zroot:
                continue
            groups.setdefault(root, []).append(((j, k), s))
    # canonical representatives, re-signed so the lowest slot is +1
    out = {}
    for members in groups.values():
        members.sort()
        base_slot, base_sign = members[0]
        out[base_slot] = [(slot, s * base_sign) for slot, s in members]
    return out


def test_pattern_classes_match_the_signed_union_find():
    got, want = structure._pattern_classes(), pattern_classes_by_union_find()
    assert list(got.items()) == list(want.items())
    # E and H fill two slots each, F and G four; the diagonal is zero
    assert sorted(len(members) for members in got.values()) == [2, 2, 4, 4]


def test_pattern_detects_nonzero_diagonal(system):
    """Gamma_1^1 = Gamma_2^2 = F commutes with J but is not skew."""
    E, F, G, H = abstract_forms(system)
    grid = build_connection(E, F, G, H)
    grid[0][0] = grid[1][1] = F
    assert recorded(verify_parallel_g_J, grid)["connection-pattern"]["status"] == "fail"


def test_pattern_detects_J_violation(system):
    """Gamma_3^1 = G, Gamma_1^3 = -G is skew but breaks Gamma_4^2 = Gamma_3^1."""
    E, F, G, H = abstract_forms(system)
    grid = build_connection(E, F, G, H)
    grid[0][2], grid[2][0] = G, -G  # display entries (1,3) and (3,1): F -> G
    assert recorded(verify_parallel_g_J, grid)["connection-pattern"]["status"] == "fail"


def test_torsion_residuals_zero(system):
    residuals = torsion_equations(system)
    assert all(r.is_zero() for r in residuals)


def test_torsion_detects_injected_defect(system):
    B, E = system.one_form("B"), system.form_E()
    C, D = system.one_form("C"), system.one_form("D")
    F, G = system.one_form("F"), system.one_form("G")
    rules = dict(system.d_rules)
    rules["A"] = wedge(B, E)  # drop C^F + D^G
    broken = StructureSystem(system.basis, system.ctx, rules, system.nonzero)
    residuals = torsion_equations(broken)
    assert residuals[0] == -(wedge(C, F) + wedge(D, G))
    assert all(r.is_zero() for r in residuals[1:])


def test_curvature_matches_display(system):
    R = curvature_forms(system)
    X = expected_curvature(system)
    for k in range(4):
        for l in range(4):
            assert (R[k][l] - X[k][l]).is_zero()


def test_curvature_specific_entries(system):
    lam, sig = system.ctx.symbol("lam"), system.ctx.symbol("sig")
    A, B, C, D = (system.one_form(n) for n in COFRAME)
    R = curvature_forms(system)
    assert R[0][1] == wedge(A, B).scale(-lam)
    assert R[1][3] == (wedge(A, C) - wedge(D, B)).scale(sig)
    assert R[1][2] == (wedge(A, D) - wedge(B, C)).scale(sig)
    assert R[0][3] == -R[1][2]


def test_curvature_flat_case(system):
    R = curvature_forms(system)
    flat = {"lam": 0, "sig": 0}
    for k in range(4):
        for l in range(4):
            reduced = DForm(system.basis, 2)
            for idx, c in R[k][l].terms.items():
                reduced = reduced + DForm(system.basis, 2, {idx: system.ctx.substitute(c, flat)})
            assert reduced.is_zero()


def free_rules(system):
    """The coframe d-rules with F, G, L, S in free components."""
    return system.component_rules(system.free_components(), COFRAME)


def test_lie_bracket_display_lines(system):
    P = Poly.var
    rules = free_rules(system)
    b12 = lie_bracket(1, 2, rules)
    assert 2 * b12[2] == LocFrac(2 * P("G1") + 2 * P("F2"))
    assert 2 * b12[3] == LocFrac(2 * P("G2") - 2 * P("F1"))
    assert 2 * b12[0] == LocFrac(P("S1") + P("L1"))
    b13 = lie_bracket(1, 3, rules)
    assert 2 * b13[0] == LocFrac(2 * P("F1"))
    assert 2 * b13[1] == LocFrac(P("S3") + P("L3") - 2 * P("G1"))
    assert 2 * b13[3] == LocFrac(2 * P("G3") + P("L1") - P("S1"))


def test_lie_bracket_antisymmetric(system):
    rules = free_rules(system)
    for i in range(1, 5):
        assert all(c.is_zero() for c in lie_bracket(i, i, rules))
        for j in range(1, 5):
            if i == j:
                continue
            fwd = lie_bracket(i, j, rules)
            back = lie_bracket(j, i, rules)
            assert all((a + b).is_zero() for a, b in zip(fwd, back))


def test_covariant_derivative_table(system):
    covariant = recorded(verify_covariant_derivatives, system)["covariant-derivatives"]
    assert (covariant["status"], covariant["detail"]) == ("pass", "")


def test_nabla_A_display(system):
    A, B, C, D = (system.one_form(n) for n in COFRAME)
    F, G, L, S = (system.one_form(n) for n in ("F", "G", "L", "S"))
    E = (S + L).scale(Fraction(1, 2))
    assert ext_d(A, grid_rules(system)) == -(wedge(E, B) + wedge(F, C) + wedge(G, D))


#: the anti-self-dual eigenforms as signed sums of coframe wedges
EIGENFORMS = {
    "zeta": ((-1, "A", "B"), (1, "C", "D")),
    "eta": ((-1, "A", "C"), (1, "D", "B")),
    "theta": ((-1, "A", "D"), (1, "B", "C")),
}


def nabla_by_directions(system):
    """The reference: nabla_{e_i} of A..D and of the eigenforms for i = 1..4,
    from the grid in free components Gamma_{ij}^k, with
    nabla_{e_i} e^k = -Gamma_{ij}^k e^j and the Leibniz rule on each wedge."""
    comp = system.free_components()
    frame = {n: system.one_form(n) for n in COFRAME}
    out = {}
    for k, name in enumerate(COFRAME, start=1):
        gammas = [substitute_one_forms(gamma(system.connection, j, k), comp) for j in range(1, 5)]
        out[name] = [
            sum((frame[COFRAME[j]].scale(-gammas[j].coefficient(COFRAME[i])) for j in range(4)),
                DForm(system.basis, 1))
            for i in range(4)
        ]
    for name, pairs in EIGENFORMS.items():
        out[name] = [
            sum(((wedge(out[x][i], frame[y]) + wedge(frame[x], out[y][i])).scale(sign)
                 for sign, x, y in pairs), DForm(system.basis, 2))
            for i in range(4)
        ]
    return out


def factor_of(form, name):
    """omega_a, where form = sum over auxiliary 1-forms a of a ^ omega_a and
    each omega_a is a coframe form: the part of `form` with `name` on the left."""
    a = form.basis.index[name]
    terms = {}
    for idx, c in form.terms.items():
        assert sum(i >= 4 for i in idx) == 1, "one auxiliary factor per term"
        if a in idx:
            pos = idx.index(a)
            terms[idx[:pos] + idx[pos + 1:]] = c if pos % 2 == 0 else -c
    return DForm(form.basis, form.degree - 1, terms)


def test_nabla_forms_match_the_per_direction_reference(system):
    """Each nabla as a form, contracted with e_i (each auxiliary factor a
    replaced by its component a_i), is the per-direction nabla_{e_i}."""
    reference = nabla_by_directions(system)
    rules = grid_rules(system)
    coframe = {n: system.one_form(n) for n in COFRAME}
    forms = {**coframe, **{
        name: sum((wedge(coframe[x], coframe[y]).scale(sign) for sign, x, y in pairs),
                  DForm(system.basis, 2))
        for name, pairs in EIGENFORMS.items()
    }}
    for name, form in forms.items():
        nabla = ext_d(form, rules)
        for i in range(4):
            contracted = sum(
                (factor_of(nabla, a).scale(system.ctx.symbol(f"{a}{i + 1}")) for a in "FGLS"),
                DForm(system.basis, form.degree),
            )
            assert contracted == reference[name][i], (name, i + 1)


def test_covariant_check_sees_a_swapped_grid(system):
    """A grid with F and G swapped breaks nabla A; on the system's own grid
    the Kahler form is parallel."""
    swapped = load_system()
    E, F, G, H = abstract_forms(swapped)
    swapped.connection = build_connection(E, G, F, H)
    covariant = recorded(verify_covariant_derivatives, swapped)["covariant-derivatives"]
    assert covariant["status"] == "fail"
    assert "nabla A" in covariant["detail"].split("; ")
    A, B, C, D = (system.one_form(n) for n in COFRAME)
    assert ext_d(wedge(A, B) + wedge(C, D), grid_rules(system)).is_zero()
