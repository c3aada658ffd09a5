from fractions import Fraction
from pathlib import Path

from edsverify import structure
from edsverify.algebra import LocFrac, Poly
from edsverify.forms import COFRAME, DForm, ext_d, substitute_one_forms, wedge
from edsverify.structure import (
    StructureSystem,
    curvature_forms,
    expected_curvature,
    gamma,
    grid_rules,
    lie_bracket,
    load_system,
    role_slots,
    torsion_equations,
    verify_closed,
    verify_covariant_derivatives,
    verify_parallel_g_J,
)

from conftest import recorded


def abstract_forms(system):
    """E, F, G, H of the displayed pattern in the shipped basis 1-forms."""
    F, G, L, S = (system.one_form(n) for n in ("F", "G", "L", "S"))
    half = Fraction(1, 2)
    return (S + L).scale(half), F, G, (S - L).scale(half)


def display(E, F, G, H):
    """The displayed pattern, grid[k-1][j-1] = Gamma_j^k."""
    zero = DForm(E.basis, 1)
    return [
        [zero, E, F, G],
        [-E, zero, -G, F],
        [-F, G, zero, H],
        [-G, -F, -H, zero],
    ]


def with_grid(grid):
    """The shipped system with its connection replaced by `grid`."""
    system = load_system()
    system.connection = grid
    return system


def test_connection_entries(system):
    """The grid read off the shipped coframe rules is the displayed pattern,
    slot for slot, and its role slots are the basis 1-forms F, G, L, S."""
    E, F, G, H = abstract_forms(system)
    grid = system.connection
    assert grid == display(E, F, G, H)
    assert gamma(grid, 2, 1) == E  # entry (1,2) of the display
    assert gamma(grid, 3, 2) == -G  # entry (2,3)
    assert gamma(grid, 4, 3) == H
    assert gamma(grid, 1, 1).is_zero()
    assert system.roles == ("F", "G", "L", "S")
    assert role_slots(grid) == tuple(system.one_form(n) for n in system.roles)


def test_connection_skew(system):
    grid = system.connection
    for j in range(1, 5):
        for k in range(1, 5):
            assert (gamma(grid, j, k) + gamma(grid, k, j)).is_zero()


def test_pattern_verification_passes(system):
    pattern = recorded(verify_parallel_g_J, system)["connection-pattern"]
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
    # nabla J = 0: Gamma_{m(j)}^{m(k)} = s_j s_k Gamma_j^k
    m, sgn = structure._J_MAP, structure._J_SIGNS
    for j in range(1, 5):
        for k in range(1, 5):
            union((m[j - 1], m[k - 1]), (j, k), sgn[j - 1] * sgn[k - 1])
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
    grid = display(E, F, G, H)
    grid[0][0] = grid[1][1] = F
    pattern = recorded(verify_parallel_g_J, with_grid(grid))["connection-pattern"]
    assert (pattern["status"], pattern["detail"]) == ("fail", "Gamma_1^1 = (1) F")


def test_pattern_detects_J_violation(system):
    """Gamma_3^1 = G, Gamma_1^3 = -G is skew but breaks Gamma_4^2 = Gamma_3^1."""
    E, F, G, H = abstract_forms(system)
    grid = display(E, F, G, H)
    grid[0][2], grid[2][0] = G, -G  # display entries (1,3) and (3,1): F -> G
    pattern = recorded(verify_parallel_g_J, with_grid(grid))["connection-pattern"]
    assert (pattern["status"], pattern["detail"]) == (
        "fail", "Gamma_2^4 - (1) Gamma_1^3 = (-1) F + (1) G")


def test_pattern_names_a_role_slot_that_is_no_basis_form(system):
    """A grid with 2F in every F slot keeps the pattern, but its role F is
    neither a basis 1-form nor zero: connection-pattern and the covariant
    derivatives fail naming the slot."""
    E, F, G, H = abstract_forms(system)
    broken = with_grid(display(E, F.scale(2), G, H))
    detail = "role F = Gamma_3^1 is (2) F: neither a basis 1-form nor zero"
    for verify, check_id in ((verify_parallel_g_J, "connection-pattern"),
                             (verify_covariant_derivatives, "covariant-derivatives")):
        found = recorded(verify, broken)[check_id]
        assert (found["status"], found["detail"]) == ("fail", detail)


def test_torsion_residuals_zero(system):
    residuals = torsion_equations(system)
    assert all(r.is_zero() for r in residuals)


def test_torsion_detects_injected_defect(system):
    """A coframe ^ coframe term in d A is torsion the read-off grid cannot
    absorb.  Dropping C^F + D^G changes the grid instead: no torsion, and
    connection-pattern names the broken skew pair."""
    B, C, D = (system.one_form(n) for n in "BCD")
    lam = system.ctx.symbol("lam")
    rules = dict(system.d_rules)
    rules["A"] = rules["A"] + wedge(C, D).scale(lam)
    residuals = torsion_equations(StructureSystem(system.basis, system.ctx, rules, system.nonzero))
    assert residuals[0] == wedge(C, D).scale(lam)
    assert all(r.is_zero() for r in residuals[1:])
    rules["A"] = wedge(B, abstract_forms(system)[0])  # drop C^F + D^G
    dropped = StructureSystem(system.basis, system.ctx, rules, system.nonzero)
    assert all(r.is_zero() for r in torsion_equations(dropped))
    pattern = recorded(verify_parallel_g_J, dropped)["connection-pattern"]
    assert pattern["detail"] == "Gamma_3^1 - (-1) Gamma_1^3 = (-1) F"


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
    """Swapping F and G in every slot keeps the pattern and swaps the roles,
    so the covariant derivatives hold.  Swapping them only in the slots
    Gamma_4^2 and Gamma_2^4 leaves nabla A as it is and breaks nabla zeta
    and nabla theta.  On the system's own grid the Kahler form is parallel."""
    E, F, G, H = abstract_forms(system)
    swapped = with_grid(display(E, G, F, H))
    assert swapped.roles == ("G", "F", "L", "S")
    assert recorded(verify_covariant_derivatives, swapped)["covariant-derivatives"]["status"] == "pass"
    grid = display(E, F, G, H)
    grid[1][3], grid[3][1] = G, -G
    covariant = recorded(verify_covariant_derivatives, with_grid(grid))["covariant-derivatives"]
    assert (covariant["status"], covariant["detail"]) == ("fail", "nabla zeta; nabla theta")
    A, B, C, D = (system.one_form(n) for n in COFRAME)
    assert ext_d(wedge(A, B) + wedge(C, D), grid_rules(system)).is_zero()


def test_a_failing_closure_check_names_its_three_form(system):
    """Doubling the first coefficient of d F leaves d^2 B and d^2 D nonzero:
    each of the two checks names the number of terms of its 3-form and the
    first term in index order, as the form prints it.  A missing rule keeps
    its own message."""
    mutant = load_system(Path(__file__).parent / "data" / "mutant-F.1.double.eds")
    checks = recorded(verify_closed, mutant)
    assert {k: (c["status"], c["detail"]) for k, c in checks.items()} == {
        "d2-A": ("pass", ""),
        "d2-B": ("fail", "nonzero terms: 1, first (-sig) A^C^D"),
        "d2-C": ("pass", ""),
        "d2-D": ("fail", "nonzero terms: 1, first (-sig) A^B^C"),
        "kahler-closed": ("pass", ""),
    }
    rules = {n: r for n, r in system.d_rules.items() if n != "B"}
    without_b = StructureSystem(system.basis, system.ctx, rules, system.nonzero)
    assert recorded(verify_closed, without_b)["d2-B"]["detail"] == \
        "no exterior-derivative rule for basis form 'B'"
