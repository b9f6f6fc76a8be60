"""End-to-end symbolic checks of the symplectic identities behind the
surgery construction: the gluing-map pullback formulas, closedness and
nondegeneracy of the interpolated form, the almost complex structure, and
the canonical-bundle section, all with exact coefficients.

Each check runs a table of claims, each entry a function of the inputs it
names, and returns an IdentityReport listing labelled claims; a failing
claim records the nonzero residual so it can be inspected. A negative
control reruns only the entries that read the input it corrupts.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .coefficients import RationalFunction, I
from .forms import (
    CoframeMap,
    Form,
    LinearOperator,
    Region,
    compatibility_check,
    mat_equal,
    mat_identity,
    mat_neg,
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


def correction_form(k: KParam) -> Form:
    """alpha = -k*y*f dx^dy."""
    return Form.from_terms((-k_coefficient(k) * Y * F, "dx", "dy"))


def interpolated_form(k: KParam) -> Form:
    """omega-tilde = omega + alpha."""
    return standard_symplectic_form() + correction_form(k)


def gluing_map(k: KParam) -> CoframeMap:
    """Pullback of the boundary twist on the coframe (Cartesian form):
    dw picks up (k/(x^2+y^2))*(x dy - y dx)."""
    return _gluing_map(k_coefficient(k))


def gluing_map_inverse(k: KParam) -> CoframeMap:
    """The inverse of ``gluing_map(k)`` without elimination: the map is the
    identity plus a part N with N^2 = 0 (N sends dw into dx, dy only), so
    its inverse is the identity minus N, the same map with k negated."""
    return _gluing_map(-k_coefficient(k))


def _gluing_map(kc: RationalFunction) -> CoframeMap:
    radial = kc / RADIUS_SQ
    return CoframeMap.from_images(
        {
            "dw": Form.from_terms(
                (1, "dw"), (radial * X, "dy"), (-radial * Y, "dx")
            )
        }
    )


def almost_complex_structure(k: KParam) -> LinearOperator:
    """The twisted almost complex structure on 1-forms, with f abstract."""
    kc = k_coefficient(k)
    kxf = kc * X * F
    kyf = kc * Y * F
    return LinearOperator.from_images(
        {
            "dx": Form.from_terms((-1, "dz")),
            "dz": Form.from_terms((1, "dx")),
            "dy": Form.from_terms((1, "dw"), (-kyf, "dx"), (kxf, "dy")),
            "dw": Form.from_terms(
                (-(RationalFunction.constant(1) + kxf * kxf), "dy"),
                (kxf * kyf, "dx"),
                (-kyf, "dz"),
                (-kxf, "dw"),
            ),
            "ds1": Form.from_terms((-1, "ds2")),
            "ds2": Form.from_terms((1, "ds1")),
        }
    )


def canonical_section(k: KParam) -> Form:
    """The closed-form section of (3,0)-forms, normalized so the
    coefficient on dx^dw^ds1 is 1: ((dx + i dz)^(dw + i dy) + kf (x dx^dy
    + i y dx^dz - i x dy^dz))^(ds1 + i ds2). At k = 0 it is the flat
    section."""
    kf = k_coefficient(k) * F
    a = Form.from_terms((1, "dx"), (I, "dz"))
    b = Form.from_terms((1, "dw"), (I, "dy"))
    correction = Form.from_terms(
        (kf * X, "dx", "dy"),
        (I * kf * Y, "dx", "dz"),
        (-I * kf * X, "dy", "dz"),
    )
    tail = Form.from_terms((1, "ds1"), (I, "ds2"))
    return (a.wedge(b) + correction).wedge(tail)


def twist_coframe(tau) -> CoframeMap:
    """The coordinate twist by a determinant-one tau = [[p, q], [r, s]].

    The torus directions transform by tau; the disk directions carry the
    contragredient action, the unique extension fixing ds1, ds2 under
    which the symplectic form is invariant (this is where det = 1 bites).
    The disk images, rows [[s, q], [r, p]], invert to [[p, -q], [-r, s]],
    those of tau^-1, so ``twist_coframe(tau.inverse())`` is the inverse map.
    """
    return CoframeMap.from_images(
        {
            "dz": Form.from_terms((tau.p, "dz"), (tau.r, "dw")),
            "dw": Form.from_terms((tau.q, "dz"), (tau.s, "dw")),
            "dx": Form.from_terms((tau.s, "dx"), (tau.q, "dy")),
            "dy": Form.from_terms((tau.r, "dx"), (tau.p, "dy")),
        }
    )


def eigenform_product(j: LinearOperator) -> Form:
    """(a - iJa)^(b - iJb)^(c - iJc) for a, b, c = dx, dw, ds1."""
    generators = [Form.generator("dx"), Form.generator("dw"), Form.generator("ds1")]
    factors = [g - j(g) * I for g in generators]
    return factors[0].wedge(factors[1]).wedge(factors[2])


def unit_scale(k: KParam) -> RationalFunction:
    """The nowhere-zero factor (1 + i k x f) relating the eigenform product
    to the normalized section; its real part is identically 1."""
    return RationalFunction.constant(1) + I * k_coefficient(k) * X * F


# ---------------------------------------------------------------------------


class ClaimResult(NamedTuple):
    label: str
    passed: bool
    residual: str | None = None

    def to_json(self) -> dict:
        data = {"label": self.label, "passed": self.passed}
        if self.residual is not None:
            data["residual"] = self.residual
        return data


def form_claim(label: str, actual: Form, expected: Form) -> ClaimResult:
    residual = actual - expected
    if residual.is_zero():
        return ClaimResult(label, True)
    return ClaimResult(label, False, str(residual))


def matrix_claim(label: str, actual, expected) -> ClaimResult:
    if mat_equal(actual, expected):
        return ClaimResult(label, True)
    return ClaimResult(label, False, "; ".join(
        f"[{i}][{j}] = {a - b}"
        for i, row in enumerate(actual)
        for j, (a, b) in enumerate(zip(row, expected[i]))
        if a != b
    ))


def _run(entry, inputs: dict) -> tuple[ClaimResult, ...]:
    reads, claims = entry
    return tuple(claims(**{name: inputs[name] for name in reads}))


class IdentityReport:
    """A check's claims, held in ``results`` entry by entry of its claim
    table and computed from ``inputs``. A table entry is (the names of the
    inputs it reads, a function of just those that returns its claims)."""

    __slots__ = ("name", "table", "inputs", "results")

    def __init__(self, name: str, table, inputs: dict, results=None):
        self.name, self.table, self.inputs = name, table, inputs
        self.results = [_run(e, inputs) for e in table] if results is None else results

    @property
    def claims(self) -> list[ClaimResult]:
        return [claim for result in self.results for claim in result]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def rerun(self, name: str, value) -> "IdentityReport":
        """The report with input ``name`` set to ``value``: the entries that
        read it run again, and every other entry, whose inputs are
        unchanged, keeps its result."""
        inputs = {**self.inputs, name: value}
        return IdentityReport(self.name, self.table, inputs, [
            _run(entry, inputs) if name in entry[0] else result
            for entry, result in zip(self.table, self.results)
        ])

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "claims": [c.to_json() for c in self.claims],
        }


# ---------------------------------------------------------------------------


def _pullback_images(kc, phi):
    radial = kc / RADIUS_SQ
    expected_images = {
        "dx": Form.generator("dx"),
        "dy": Form.generator("dy"),
        "dz": Form.generator("dz"),
        "dw": Form.from_terms((1, "dw"), (radial * X, "dy"), (-radial * Y, "dx")),
    }
    return [
        form_claim(f"(a) boundary-twist pullback of {gen}",
                   phi.pullback(Form.generator(gen)), expected)
        for gen, expected in expected_images.items()
    ]


LEMMA2_CLAIMS = (
    # (a) pullback of each coordinate 1-form on the outer annulus
    (("kc", "phi"), _pullback_images),
    # (b) pullback of the symplectic form
    (("kc", "omega", "phi_omega"), lambda kc, omega, phi_omega: [form_claim(
        "(b) pullback of the symplectic form",
        phi_omega, omega + Form.from_terms((-kc * Y / RADIUS_SQ, "dx", "dy")))]),
    # (c) the interpolated form matches the pullback outside and the
    # original form inside
    (("omega_tilde", "omega", "phi_omega"), lambda omega_tilde, omega, phi_omega: [
        form_claim("(c) interpolated form agrees with pullback (outer)",
                   omega_tilde.in_region(Region.OUTER), phi_omega),
        form_claim("(c) interpolated form agrees with original (inner)",
                   omega_tilde.in_region(Region.INNER), omega),
    ]),
    # (d) closedness where f has a concrete value
    (("omega_tilde",), lambda omega_tilde: [
        form_claim(f"(d) d(interpolated form) = 0 ({region.value})",
                   omega_tilde.exterior_derivative(region), Form.zero())
        for region in (Region.INNER, Region.OUTER)
    ]),
    # (e) top-power identity with abstract f, hence in every region
    (("alpha", "omega"), lambda alpha, omega: [
        form_claim("(e) correction wedge correction = 0", alpha.wedge(alpha), Form.zero()),
        form_claim("(e) omega^2 wedge correction = 0",
                   omega.wedge(omega).wedge(alpha), Form.zero()),
    ]),
    (("omega_tilde", "omega_cubed_in"), lambda omega_tilde, omega_cubed_in: [
        form_claim(f"(e) top power preserved ({region.value})",
                   omega_tilde.in_region(region).wedge_power(3), omega_cubed_in[region])
        for region in Region
    ]),
    (("omega_cubed",), lambda omega_cubed: [form_claim(
        "(e) omega^3 is six times the volume form",
        omega_cubed, Form.from_terms((6, "dx", "dz", "dw", "dy", "ds1", "ds2")))]),
)


def check_lemma2(k: KParam) -> IdentityReport:
    """Closedness and nondegeneracy of the interpolated form, and its
    agreement with the pulled-back form near the boundary. The form
    omega_tilde is the input that a negative control replaces; the others
    are built here once."""
    omega, alpha, phi = standard_symplectic_form(), correction_form(k), gluing_map(k)
    omega_cubed = omega.wedge_power(3)
    return IdentityReport("gluing-form-interpolation", LEMMA2_CLAIMS, {
        "kc": k_coefficient(k), "phi": phi, "omega": omega, "alpha": alpha,
        "phi_omega": phi.pullback(omega), "omega_cubed": omega_cubed,
        "omega_cubed_in": {region: omega_cubed.in_region(region) for region in Region},
        "omega_tilde": omega + alpha,
    })


def _compatibility(j, omega_k):
    compat = compatibility_check(j, omega_k, Region.MIDDLE)
    return [
        ClaimResult("(b) form invariance under J", compat.invariant),
        ClaimResult("(b) induced metric is symmetric", compat.symmetric),
        ClaimResult("(b) metric positive definite (certified leading minors)",
                    not compat.positivity_failures,
                    "; ".join(compat.positivity_failures) or None),
    ]


THEOREM5_CLAIMS = (
    # (a) squares to minus the identity with f abstract
    (("j",), lambda j: [
        matrix_claim("(a) J^2 = -identity", j.square(), mat_neg(mat_identity(6)))]),
    # (b) compatibility with the interpolated symplectic form
    (("j", "omega_k"), _compatibility),
    # (c) the eigenform product equals the normalized section up to the
    # nowhere-zero unit, and the normalized section has unit coefficient
    (("j", "section_times_unit"), lambda j, section_times_unit: [form_claim(
        "(c) eigenform product matches section up to the unit factor",
        eigenform_product(j), section_times_unit)]),
    (("section_k",), lambda section_k: [ClaimResult(
        "(c) unit coefficient on dx^dw^ds1",
        section_k.coefficient("dx", "dw", "ds1") == RationalFunction.constant(1))]),
    # (d) pullback identities on the outer annulus
    (("j", "glued_flat_j"), lambda j, glued_flat_j: [matrix_claim(
        "(d) gluing pullback of flat J gives twisted J (outer)",
        glued_flat_j, j.in_region(Region.OUTER).matrix)]),
    (("phi", "phi_omega", "omega_k", "section_k"),
     lambda phi, phi_omega, omega_k, section_k: [
        form_claim("(d) gluing pullback of omega gives twisted omega (outer)",
                   phi_omega, omega_k.in_region(Region.OUTER)),
        form_claim("(d) gluing pullback of flat section gives twisted section (outer)",
                   phi.pullback(canonical_section(0)), section_k.in_region(Region.OUTER)),
    ]),
    # (e) determinant-one twists preserve the symplectic form
    (("tau", "omega"), lambda tau, omega: [form_claim(
        "(e) twist preserves the symplectic form",
        twist_coframe(tau).pullback(omega), omega)]),
)


def check_theorem5(k: KParam, tau) -> IdentityReport:
    """Almost complex structure, compatibility, canonical-bundle section,
    and the pullback identities on the outer annulus, after a
    determinant-one coordinate twist tau of the torus directions.

    Claims (a)-(d) are proved once, in untwisted coordinates; the twisted
    ones follow by naturality. T = ``twist_coframe(tau)`` has constant
    integer entries, so T* is an automorphism of the exterior algebra that
    leaves coefficients unchanged: it commutes with ^, + and ``in_region``,
    and conjugation by T commutes with operator products and composition of
    coframe maps. Each twisted input is a T-conjugate of an untwisted one:
    T J T^-1, T*omega_k, T*s_k, T phi T^-1, and T*g for each generator g,
    where (T J T^-1)(T*g) = T*(J g). So (a) and (c) transport directly, and
    the twisted metric is M g M^T for the invertible matrix M of T, which
    is invariant, symmetric and positive definite exactly when g is. In (d)
    the J and section identities transport directly; the omega identity
    pulls back the untwisted omega, comparing T* phi* (T^-1)* omega with
    T* omega_k, so it also uses (e). No claim takes d, which would not
    commute with T*, since T* leaves x and y unchanged. Only (e),
    T*omega = omega, depends on tau. A failing claim of (a)-(d) reports its
    residual in untwisted coordinates.

    J is the input that a negative control replaces. The others are built
    here once; none is derived from J: omega_k, s_k, s_k times the unit,
    phi*omega, and the flat J conjugated by phi, whose inverse is the same
    map with k negated, so nothing is eliminated.
    """
    omega, phi, section_k = standard_symplectic_form(), gluing_map(k), canonical_section(k)
    flat_j = almost_complex_structure(0)
    return IdentityReport("canonical-class-vanishing", THEOREM5_CLAIMS, {
        "tau": tau, "omega": omega, "phi": phi, "phi_omega": phi.pullback(omega),
        "omega_k": interpolated_form(k), "section_k": section_k,
        "section_times_unit": section_k * unit_scale(k),
        "glued_flat_j": flat_j.conjugate_by(phi, gluing_map_inverse(k)).matrix,
        "j": almost_complex_structure(k),
    })


def negative_control_reports(
    lemma2: IdentityReport, theorem5: IdentityReport
) -> dict[str, IdentityReport]:
    """``check_lemma2``'s and ``check_theorem5``'s reports on corrupted
    inputs, each of which must FAIL: omega - alpha for omega + alpha, and J
    with the dy-coefficient of J(dw), -1 - (kxf)^2, replaced by -1. A
    control reruns only the claim-table entries that read its corrupted
    input. Every other entry has the same inputs as in the true report, so
    the control copies its claims from there. Both corruptions carry a
    factor k, so at k = 0 both inputs are the true ones and both reports
    pass."""
    omega, alpha = lemma2.inputs["omega"], lemma2.inputs["alpha"]
    matrix = [row[:] for row in theorem5.inputs["j"].matrix]
    matrix[1][3] = RationalFunction.constant(-1)  # row dy, column dw
    return {
        "alpha-sign-flip": lemma2.rerun("omega_tilde", omega - alpha),
        "dropped-quadratic-term": theorem5.rerun("j", LinearOperator(matrix)),
    }
