"""Theorem 5 computed directly in twisted coordinates.

``verification.check_theorem5`` proves the twisted claims by naturality
from one untwisted computation. ``direct_theorem5`` is the computation it
replaced: the twisted structure, form and sections, the twisted gluing
composite, and positivity after changing basis by the inverse twist. Its
labels and verdicts must match the reduced report's for every twist.
Both take the untwisted structure as an input, so the dropped-quadratic-
term control is checked on a J that ``dropped_quadratic_structure`` builds
here, not on the library's.
"""

import random

from torus_surgery.coefficients import RationalFunction, I
from torus_surgery.forms import (
    GENERATORS,
    Form,
    LinearOperator,
    Region,
    _positivity_failures,
    compose,
    mat_equal,
    mat_identity,
    mat_mul,
    mat_neg,
    mat_transpose,
    omega_matrix,
)
from torus_surgery.surgery import SL2Z
from torus_surgery.verification import (
    IdentityReport,
    almost_complex_structure,
    canonical_section,
    canonical_section_flat,
    gluing_map,
    gluing_map_inverse,
    interpolated_form,
    k_coefficient,
    standard_symplectic_form,
    twist_coframe,
    unit_scale,
)


def random_sl2z(rng, bound=9):
    """Random word in the standard generators, rejected until all entries
    stay within the bound."""
    shear = SL2Z(1, 1, 0, 1)
    rot = SL2Z(0, -1, 1, 0)
    while True:
        result = SL2Z.identity()
        for _ in range(rng.randint(0, 6)):
            result = result @ rng.choice([shear, shear.inverse(), rot])
        if max(abs(v) for v in (result.p, result.q, result.r, result.s)) <= bound:
            return result


def criterion6_twists():
    """The identity and the 20 seeded twists of acceptance criterion 6."""
    rng = random.Random(5)
    return [SL2Z.identity()] + [random_sl2z(rng) for _ in range(20)]


def verdicts(report):
    return [(c.label, c.passed) for c in report.claims]


def metric(j, omega):
    """g = omega(., J.) on the coordinate vector fields, f abstract."""
    return mat_mul(omega_matrix(omega), mat_transpose(j.matrix))


def dropped_quadratic_structure(k):
    """The almost complex structure with (kxf)^2 added to the image of dw:
    its dy-coefficient, -1 - (kxf)^2, becomes -1."""
    j = almost_complex_structure(k)
    kxf = k_coefficient(k) * RationalFunction.variable("x") * RationalFunction.variable("f")
    images = {g: j(Form.generator(g)) for g in GENERATORS}
    images["dw"] = images["dw"] + Form.from_terms((kxf * kxf, "dy"))
    return LinearOperator.from_images(images)


def twisted_metric(k, tau, j):
    """The metric of the direct twisted path: the untwisted structure j,
    twisted, against the twisted form. It is M g M^T for the twist's matrix
    M and the untwisted metric g, which check_theorem5 certifies instead."""
    twist, twist_inv = twist_coframe(tau), twist_coframe(tau.inverse())
    return metric(j.conjugate_by(twist, twist_inv), twist.pullback(interpolated_form(k)))


def direct_theorem5(k, tau, j):
    """check_theorem5's claims for the untwisted structure j, each computed
    in twisted coordinates."""
    report = IdentityReport("canonical-class-vanishing")

    twist = twist_coframe(tau)
    twist_inv = twist_coframe(tau.inverse())

    j_k = j.conjugate_by(twist, twist_inv)
    j_0 = almost_complex_structure(0).conjugate_by(twist, twist_inv)
    omega = standard_symplectic_form()
    omega_k = twist.pullback(interpolated_form(k))
    section_k = twist.pullback(canonical_section(k))
    section_0 = twist.pullback(canonical_section_flat())

    report.add_matrix_claim(
        "(a) J^2 = -identity", j_k.square(), mat_neg(mat_identity(6))
    )

    # (b) invariance and symmetry of the twisted metric; positivity after
    # the change of basis by the inverse twist, which gives back the
    # untwisted metric, whose minors are certifiable
    big_omega = omega_matrix(omega_k)
    g = metric(j_k, omega_k)
    report.add_flag_claim(
        "(b) form invariance under J", mat_equal(mat_mul(j_k.matrix, g), big_omega)
    )
    report.add_flag_claim(
        "(b) induced metric is symmetric", mat_equal(g, mat_transpose(g))
    )
    u = twist_inv.matrix
    failures = _positivity_failures(mat_mul(u, mat_mul(g, mat_transpose(u))))
    report.add_flag_claim(
        "(b) metric positive definite (certified leading minors)",
        not failures,
        "; ".join(failures),
    )

    # (c) the eigenform product of the twisted generators
    generators = [twist.pullback(Form.generator(g)) for g in ("dx", "dw", "ds1")]
    factors = [g - j_k(g) * I for g in generators]
    report.add_form_claim(
        "(c) eigenform product matches section up to the unit factor",
        factors[0].wedge(factors[1]).wedge(factors[2]),
        section_k * unit_scale(k),
    )
    report.add_flag_claim(
        "(c) unit coefficient on dx^dw^ds1",
        twist_inv.pullback(section_k).coefficient("dx", "dw", "ds1")
        == RationalFunction.constant(1),
    )

    # (d) the twisted gluing map and its inverse, each the composite around
    # the untwisted one
    phi_twisted = compose(compose(twist_inv, gluing_map(k)), twist)
    phi_twisted_inv = compose(compose(twist_inv, gluing_map_inverse(k)), twist)
    report.add_matrix_claim(
        "(d) gluing pullback of flat J gives twisted J (outer)",
        j_0.conjugate_by(phi_twisted, phi_twisted_inv).matrix,
        j_k.in_region(Region.OUTER).matrix,
    )
    report.add_form_claim(
        "(d) gluing pullback of omega gives twisted omega (outer)",
        phi_twisted.pullback(omega),
        omega_k.in_region(Region.OUTER),
    )
    report.add_form_claim(
        "(d) gluing pullback of flat section gives twisted section (outer)",
        phi_twisted.pullback(section_0),
        section_k.in_region(Region.OUTER),
    )

    report.add_form_claim(
        "(e) twist preserves the symplectic form", twist.pullback(omega), omega
    )
    return report
