"""End-to-end symbolic checks of the symplectic identities behind the
surgery construction: the gluing-map pullback formulas, closedness and
nondegeneracy of the interpolated form, the almost complex structure, and
the canonical-bundle section, all with exact coefficients.

Each check returns an IdentityReport listing labelled claims; a failing
claim records the nonzero residual so it can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .coefficients import RationalFunction, I
from .forms import (
    CoframeMap,
    Form,
    LinearOperator,
    Region,
    compatibility_check,
    compose,
    mat_equal,
    mat_identity,
    mat_neg,
    operator_pullback,
)

KParam = Union[int, str]

X = RationalFunction.variable("x")
Y = RationalFunction.variable("y")
F = RationalFunction.variable("f")
RADIUS_SQ = X * X + Y * Y


def k_coefficient(k: KParam) -> RationalFunction:
    """'symbolic' keeps k as a ring symbol; integers become constants."""
    if isinstance(k, str):
        if k != "symbolic":
            raise ValueError(f"k must be an integer or 'symbolic', got {k!r}")
        return RationalFunction.variable("k")
    return RationalFunction.constant(k)


def standard_symplectic_form() -> Form:
    """dx^dz + dw^dy + ds1^ds2."""
    return Form.from_terms((1, "dx", "dz"), (1, "dw", "dy"), (1, "ds1", "ds2"))


def correction_form(k: KParam, sign: int = 1) -> Form:
    """alpha = -k*y*f dx^dy (sign flips it for the negative control)."""
    kc = k_coefficient(k)
    return Form.from_terms((-kc * Y * F * sign, "dx", "dy"))


def interpolated_form(k: KParam, corrupt_sign: bool = False) -> Form:
    """omega-tilde = omega + alpha."""
    return standard_symplectic_form() + correction_form(
        k, -1 if corrupt_sign else 1
    )


def gluing_map(k: KParam) -> CoframeMap:
    """Pullback of the boundary twist on the coframe (Cartesian form):
    dw picks up (k/(x^2+y^2))*(x dy - y dx)."""
    kc = k_coefficient(k)
    radial = kc / RADIUS_SQ
    return CoframeMap(
        {
            "dw": Form.from_terms(
                (1, "dw"), (radial * X, "dy"), (-radial * Y, "dx")
            )
        }
    )


def almost_complex_structure(
    k: KParam, drop_quadratic_term: bool = False
) -> LinearOperator:
    """The twisted almost complex structure on 1-forms, with f abstract.

    drop_quadratic_term removes the (kxf)^2 dy contribution from the image
    of dw; used as a negative control only.
    """
    kc = k_coefficient(k)
    kxf = kc * X * F
    kyf = kc * Y * F
    quad = RationalFunction.zero() if drop_quadratic_term else kxf * kxf
    return LinearOperator(
        {
            "dx": Form.from_terms((-1, "dz")),
            "dz": Form.from_terms((1, "dx")),
            "dy": Form.from_terms((1, "dw"), (-kyf, "dx"), (kxf, "dy")),
            "dw": Form.from_terms(
                (-(RationalFunction.constant(1) + quad), "dy"),
                (kxf * kyf, "dx"),
                (-kyf, "dz"),
                (-kxf, "dw"),
            ),
            "ds1": Form.from_terms((-1, "ds2")),
            "ds2": Form.from_terms((1, "ds1")),
        }
    )


def canonical_section_flat() -> Form:
    """s_0 = (dx + i dz)^(dw + i dy)^(ds1 + i ds2)."""
    a = Form.from_terms((1, "dx"), (I, "dz"))
    b = Form.from_terms((1, "dw"), (I, "dy"))
    c = Form.from_terms((1, "ds1"), (I, "ds2"))
    return a.wedge(b).wedge(c)


def canonical_section(k: KParam) -> Form:
    """The closed-form section of (3,0)-forms, normalized so the
    coefficient on dx^dw^ds1 is 1."""
    kc = k_coefficient(k)
    kf = kc * F
    correction = Form.from_terms(
        (kf * X, "dx", "dy"),
        (I * kf * Y, "dx", "dz"),
        (-I * kf * X, "dy", "dz"),
    )
    tail = Form.from_terms((1, "ds1"), (I, "ds2"))
    return canonical_section_flat() + correction.wedge(tail)


def twist_coframe(tau) -> CoframeMap:
    """The coordinate twist by a determinant-one tau = [[p, q], [r, s]].

    The torus directions transform by tau; the disk directions carry the
    contragredient action, the unique extension fixing ds1, ds2 under
    which the symplectic form is invariant (this is where det = 1 bites).
    The disk images, rows [[s, q], [r, p]], invert to [[p, -q], [-r, s]],
    those of tau^-1, so ``twist_coframe(tau.inverse())`` is the inverse map.
    """
    return CoframeMap(
        {
            "dz": Form.from_terms((tau.p, "dz"), (tau.r, "dw")),
            "dw": Form.from_terms((tau.q, "dz"), (tau.s, "dw")),
            "dx": Form.from_terms((tau.s, "dx"), (tau.q, "dy")),
            "dy": Form.from_terms((tau.r, "dx"), (tau.p, "dy")),
        }
    )


def eigenform_product(j: LinearOperator, twist: CoframeMap | None = None) -> Form:
    """(a - iJa)^(b - iJb)^(c - iJc) for a, b, c = dx, dw, ds1 pushed
    through the optional coordinate twist."""
    generators = [Form.generator("dx"), Form.generator("dw"), Form.generator("ds1")]
    if twist is not None:
        generators = [twist.pullback(g) for g in generators]
    factors = [g - j(g) * I for g in generators]
    return factors[0].wedge(factors[1]).wedge(factors[2])


def unit_scale(k: KParam) -> RationalFunction:
    """The nowhere-zero factor (1 + i k x f) relating the eigenform product
    to the normalized section; its real part is identically 1."""
    return RationalFunction.constant(1) + I * k_coefficient(k) * X * F


# ---------------------------------------------------------------------------


@dataclass
class ClaimResult:
    label: str
    passed: bool
    residual: str | None = None

    def to_json(self) -> dict:
        data = {"label": self.label, "passed": self.passed}
        if self.residual is not None:
            data["residual"] = self.residual
        return data


@dataclass
class IdentityReport:
    name: str
    claims: list[ClaimResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def add_form_claim(self, label: str, actual: Form, expected: Form):
        residual = actual - expected
        if residual.is_zero():
            self.claims.append(ClaimResult(label, True))
        else:
            self.claims.append(ClaimResult(label, False, str(residual)))

    def add_matrix_claim(self, label: str, actual, expected):
        if mat_equal(actual, expected):
            self.claims.append(ClaimResult(label, True))
        else:
            residual = "; ".join(
                f"[{i}][{j}] = {a - b}"
                for i, row in enumerate(actual)
                for j, (a, b) in enumerate(zip(row, expected[i]))
                if a != b
            )
            self.claims.append(ClaimResult(label, False, residual))

    def add_flag_claim(self, label: str, passed: bool, detail: str | None = None):
        self.claims.append(ClaimResult(label, passed, None if passed else detail))

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "claims": [c.to_json() for c in self.claims],
        }


# ---------------------------------------------------------------------------


def check_lemma2(k: KParam, corrupt_alpha_sign: bool = False) -> IdentityReport:
    """Closedness and nondegeneracy of the interpolated form, and its
    agreement with the pulled-back form near the boundary."""
    report = IdentityReport("gluing-form-interpolation")
    phi = gluing_map(k)
    omega = standard_symplectic_form()
    alpha = correction_form(k)
    omega_tilde = interpolated_form(k, corrupt_sign=corrupt_alpha_sign)
    kc = k_coefficient(k)

    # (a) pullback of each coordinate 1-form on the outer annulus
    radial = kc / RADIUS_SQ
    expected_images = {
        "dx": Form.generator("dx"),
        "dy": Form.generator("dy"),
        "dz": Form.generator("dz"),
        "dw": Form.from_terms((1, "dw"), (radial * X, "dy"), (-radial * Y, "dx")),
    }
    for gen, expected in expected_images.items():
        report.add_form_claim(
            f"(a) boundary-twist pullback of {gen}",
            phi.pullback(Form.generator(gen)),
            expected,
        )

    # (b) pullback of the symplectic form
    expected_b = omega + Form.from_terms((-kc * Y / RADIUS_SQ, "dx", "dy"))
    report.add_form_claim(
        "(b) pullback of the symplectic form", phi.pullback(omega), expected_b
    )

    # (c) the interpolated form matches the pullback outside and the
    # original form inside
    report.add_form_claim(
        "(c) interpolated form agrees with pullback (outer)",
        omega_tilde.in_region(Region.OUTER),
        phi.pullback(omega),
    )
    report.add_form_claim(
        "(c) interpolated form agrees with original (inner)",
        omega_tilde.in_region(Region.INNER),
        omega,
    )

    # (d) closedness where f has a concrete value
    for region in (Region.INNER, Region.OUTER):
        report.add_form_claim(
            f"(d) d(interpolated form) = 0 ({region.value})",
            omega_tilde.exterior_derivative(region),
            Form.zero(),
        )

    # (e) top-power identity with abstract f, hence in every region
    report.add_form_claim(
        "(e) correction wedge correction = 0", alpha.wedge(alpha), Form.zero()
    )
    report.add_form_claim(
        "(e) omega^2 wedge correction = 0",
        omega.wedge(omega).wedge(alpha),
        Form.zero(),
    )
    omega_cubed = omega.wedge_power(3)
    for region in Region:
        report.add_form_claim(
            f"(e) top power preserved ({region.value})",
            omega_tilde.in_region(region).wedge_power(3),
            omega_cubed.in_region(region),
        )
    report.add_form_claim(
        "(e) omega^3 is six times the volume form",
        omega_cubed,
        Form.from_terms((6, "dx", "dz", "dw", "dy", "ds1", "ds2")),
    )
    return report


def check_theorem5(
    k: KParam,
    tau=None,
    drop_quadratic_term: bool = False,
) -> IdentityReport:
    """Almost complex structure, compatibility, canonical-bundle section,
    and the pullback identities on the outer annulus, all after an optional
    determinant-one coordinate twist of the torus directions."""
    from .surgery import SL2Z  # local import to avoid a cycle

    if tau is None:
        tau = SL2Z.identity()
    report = IdentityReport("canonical-class-vanishing")

    twist = twist_coframe(tau)
    twist_inv = twist_coframe(tau.inverse())

    j_k = almost_complex_structure(k, drop_quadratic_term).conjugate_by(
        twist, twist_inv
    )
    j_0 = almost_complex_structure(0).conjugate_by(twist, twist_inv)
    omega = standard_symplectic_form()
    omega_k = twist.pullback(interpolated_form(k))
    section_k = twist.pullback(canonical_section(k))
    section_0 = twist.pullback(canonical_section_flat())

    # (a) squares to minus the identity with f abstract
    report.add_matrix_claim(
        "(a) J^2 = -identity", j_k.square(), mat_neg(mat_identity(6))
    )

    # (b) compatibility with the twisted symplectic form; positivity is
    # certified in untwisted coordinates, where the metric is the untwisted
    # one whatever the twist
    compat = compatibility_check(
        j_k, omega_k, Region.MIDDLE, basis=twist_inv.matrix
    )
    report.add_flag_claim("(b) form invariance under J", compat.invariant)
    report.add_flag_claim("(b) induced metric is symmetric", compat.symmetric)
    report.add_flag_claim(
        "(b) metric positive definite (certified leading minors)",
        not compat.positivity_failures,
        "; ".join(compat.positivity_failures),
    )

    # (c) the eigenform product equals the normalized section up to the
    # nowhere-zero unit, and the normalized section has unit coefficient
    raw = eigenform_product(j_k, twist)
    report.add_form_claim(
        "(c) eigenform product matches section up to the unit factor",
        raw,
        section_k * unit_scale(k),
    )
    report.add_flag_claim(
        "(c) unit coefficient on dx^dw^ds1",
        twist_inv.pullback(section_k).coefficient("dx", "dw", "ds1")
        == RationalFunction.constant(1),
    )

    # (d) pullback identities on the outer annulus, in twisted coordinates
    phi = gluing_map(k)
    phi_twisted = compose(compose(twist_inv, phi), twist)
    report.add_matrix_claim(
        "(d) gluing pullback of flat J gives twisted J (outer)",
        operator_pullback(phi_twisted, j_0).matrix,
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

    # (e) determinant-one twists preserve the symplectic form
    report.add_form_claim(
        "(e) twist preserves the symplectic form", twist.pullback(omega), omega
    )
    return report


def negative_control_reports(k: KParam = "symbolic") -> dict[str, IdentityReport]:
    """Deliberately corrupted inputs; every report here must FAIL."""
    return {
        "alpha-sign-flip": check_lemma2(k, corrupt_alpha_sign=True),
        "dropped-quadratic-term": check_theorem5(k, drop_quadratic_term=True),
    }
