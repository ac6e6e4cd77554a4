"""Machine-readable catalog of published-source discrepancies.

Reproducing the published analysis of this family surfaced a number of
defects: display formulas whose printed form disagrees with the quantity
they claim to expand, series that diverge as printed, and fitted-table
rows that are not reproducible from their own printed estimates.  Each
entry below records what the source displays, what this library computes
instead, and the numeric evidence behind the adjudication.  Entries are
named by the role of the formula or table row, and the corrected behavior
is the one implemented (and tested) in the named component module.

The catalog is static data.  Cheap evidence values are re-derived by the
test suite against the live implementation; expensive ones (full refits)
are corroborated by the acceptance tests.
"""

import json
from dataclasses import asdict, dataclass, field

__all__ = ["Erratum", "known_errata", "erratum_report", "write_erratum_report"]

_KINDS = ("display", "divergence", "table", "prose")


@dataclass(frozen=True)
class Erratum:
    """One recorded discrepancy.

    slug: stable kebab-case identifier.
    component: module whose implementation adjudicates the entry.
    kind: "display" for a formula wrong as printed, "divergence" for a
        series that cannot converge as printed, "table" for a published
        numeric row that is internally inconsistent or not reproducible
        from its own printed values, "prose" for a text statement that
        contradicts the algebra.
    printed: what the source shows.
    corrected: what this library does instead, or what actually reproduces.
    evidence: numbers backing the call.
    """

    slug: str
    component: str
    kind: str
    printed: str
    corrected: str
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")

    def to_dict(self):
        return asdict(self)


def known_errata():
    """The full catalog, ordered roughly by pipeline position."""
    return (
        Erratum(
            slug="submodel-constraint-prose-order",
            component="family",
            kind="prose",
            printed=(
                "The sub-family prose pairs the Kumaraswamy- and "
                "beta-generated cases with the constraints c=1 and a=c in "
                "the opposite order from the algebra."
            ),
            corrected=(
                "c=1 collapses the cdf to the regularized incomplete beta "
                "of G (beta-generated, BG); a=c collapses it to "
                "1-(1-G^c)^b (Kumaraswamy-generated, KumG). The published "
                "device-data table's own tied-estimate pattern (the KumG "
                "column shares one value for a and c) agrees with the "
                "algebra, and the constraint registry follows it."
            ),
            evidence={
                "c_equals_1_cdf": "I(G(y); a, b)",
                "a_equals_c_cdf": "1 - (1 - G(y)^c)^b",
            },
        ),
        Erratum(
            slug="mixture-weight-gamma-ratio",
            component="expansions",
            kind="display",
            printed=(
                "Mixture weights written with a gamma-function ratio "
                "equivalent to Gamma(b)/(Gamma(b-j) j!), which hits poles "
                "at every integer b once j >= b."
            ),
            corrected=(
                "Weights use the signed generalized binomial coefficient "
                "(-1)^j C(b-1, j) built by an iterative product, finite for "
                "all b > 0; at integer b the series terminates after b "
                "terms as the binomial theorem requires."
            ),
            evidence={
                "integer_b_example": "b = 3 leaves 3 nonzero weights",
                "weight_sum_tolerance": 1e-10,
            },
        ),
        Erratum(
            slug="binomial-coefficient-argument-order",
            component="expansions",
            kind="display",
            printed=(
                "The base binomial expansion prints its coefficient with "
                "the summation index first, C(j, m)."
            ),
            corrected=(
                "The standard expansion requires the exponent first, "
                "C(m, j); implemented accordingly."
            ),
            evidence={
                "printed_symbol": "C(j, m)",
                "required_symbol": "C(m, j)",
            },
        ),
        Erratum(
            slug="power-series-power-recurrence-bracket",
            component="expansions",
            kind="display",
            printed=(
                "The recurrence for coefficients of an m-th power of a "
                "series carries the bracket factor [k(m+1) - r + k]."
            ),
            corrected=(
                "The classical bracket is [k(m+1) - r]; the printed "
                "variant already fails on (1+u)^2."
            ),
            evidence={
                "test_case": "(1 + u)^2",
                "printed_bracket_coeffs": [1.0, 3.0, 3.0],
                "correct_coeffs": [1.0, 2.0, 1.0],
            },
        ),
        Erratum(
            slug="moment-series-inner-kernel",
            component="expansions",
            kind="display",
            printed=(
                "The series k-th moment applies Gamma(k+1)/[-gamma(r+1)]"
                "^{k+1} termwise to integrals of y^k e^{(r+1) gamma y} "
                "that individually diverge; the resulting outer series "
                "converges, but to the wrong value."
            ),
            corrected=(
                "The inner kernel is computed exactly as e^m mu_k(m) with "
                "mu_k(m) the integral over u >= 1 of (ln u)^k e^{-m u} "
                "(mu_1(m) = E1(m)/m), keeping the printed mixture-over-j "
                "and binomial-over-i structure."
            ),
            evidence={
                "case": "a=b=c=1, theta=gamma=1, first moment",
                "printed_form_value": 2.16545,
                "true_mean": 0.5963473623,
                "true_mean_closed_form": "e * E1(1)",
            },
        ),
        Erratum(
            slug="moment-series-large-rate-overflow",
            component="expansions",
            kind="divergence",
            printed=(
                "The moment series carries the factor e^{(i+1) theta/gamma} "
                "in its binomial-over-i terms."
            ),
            corrected=(
                "For large theta/gamma the factor overflows before the "
                "tail settles (theta/gamma = 50 gives e^{50(i+1)}); the "
                "implementation withholds the value and reports "
                "non-convergence instead of returning a partial sum."
            ),
            evidence={
                "rate": 50.0,
                "behavior": "value withheld, converged flag off",
            },
        ),
        Erratum(
            slug="mgf-series-summand",
            component="expansions",
            kind="display",
            printed=(
                "The series MGF's double sum has a summand with no "
                "dependence on its inner binomial index, and its k-sum "
                "carries C(t/gamma, k) k!, which grows factorially for "
                "non-integer t/gamma."
            ),
            corrected=(
                "Implemented as displayed with a fidelity flag against the "
                "quadrature MGF: the collapsed inner sum lands on the "
                "wrong value whenever a shape exponent exceeds one, and "
                "non-integer t/gamma is reported as divergent. The "
                "quadrature engine is the authority."
            ),
            evidence={
                "case": "a=c=1, b=2, theta=gamma=1, t=1",
                "series_value": 4.0,
                "quadrature_value": 1.5,
                "divergent_case": "t/gamma = 0.1",
            },
        ),
        Erratum(
            slug="shannon-entropy-digamma-arguments",
            component="shape",
            kind="display",
            printed=(
                "The closed-form Shannon entropy combines (a-1) zeta(a, b) "
                "+ (b-1) zeta(b, a) with zeta(r, s) = psi(r+s) - psi(r), "
                "ignoring the 1/c rescaling of the generator exponent."
            ),
            corrected=(
                "The generator-variable derivation gives ((a-1)/c) "
                "zeta(a/c, b) + (b-1) zeta(b, a/c), which matches the "
                "numeric entropy at every tested parameter set; the two "
                "coincide at c = 1. The public function stays faithful to "
                "the displayed form and carries a fidelity flag."
            ),
            evidence={
                "case": "a=2, b=1.5, c=2, theta=gamma=1",
                "numeric_entropy": 0.3034824104,
                "displayed_form_value": 0.5436685637,
                "corrected_form_value": 0.3034824109,
            },
        ),
        Erratum(
            slug="renyi-entropy-series-index-binding",
            component="shape",
            kind="display",
            printed=(
                "The series Renyi entropy multiplies the log of a j-sum by "
                "an expectation over a Beta variable whose parameters "
                "depend on j, binding the index outside its own sum."
            ),
            corrected=(
                "Not evaluable as printed; the entropy is computed by "
                "direct quadrature of the integral of f^rho, with the "
                "integrability condition rho (a-1) > -1 enforced."
            ),
            evidence={
                "beta_parameters": "a rho - rho + c j - 1, rho",
            },
        ),
        Erratum(
            slug="order-stat-moment-undefined-symbol",
            component="orderstats",
            kind="display",
            printed=(
                "The s-th order-statistic moment series contains a "
                "binomial coefficient built from r*lambda - 1 where lambda "
                "is never defined, and rests on a re-expansion of the cdf "
                "in integer powers of G whose inner sum Abel-sums to zero "
                "for non-integer exponents."
            ),
            corrected=(
                "The series route uses the equivalent factorization "
                "F^m = G^{a m} (sum_j p_j G^{c j})^m raised through the "
                "power-series recurrence, which converges wherever the "
                "mixture does and reduces to the printed finite expansions "
                "in the integer cases. Exact quadrature remains the "
                "authority."
            ),
            evidence={
                "undefined_symbol": "lambda",
            },
        ),
        Erratum(
            slug="score-complement-power-placement",
            component="inference",
            kind="display",
            printed=(
                "The score components for b and c carry the complement "
                "factor with the power inside, (1 - t^c), in the "
                "substitution variable t."
            ),
            corrected=(
                "Differentiating the implemented log-likelihood places the "
                "power on the complement itself, (1 - t)^c. All five "
                "analytic score components are certified against central "
                "finite differences of the log-likelihood."
            ),
            evidence={
                "fd_gate_cases": 25,
                "fd_gate_rel_tol": 1e-05,
            },
        ),
        Erratum(
            slug="observed-info-cross-term-missing",
            component="inference",
            kind="display",
            printed=(
                "The displayed mixed second derivative with respect to a "
                "and c omits the term -(n/c^2)[psi(a/c + b) - psi(a/c)] "
                "generated by differentiating the 1/c-scaled digamma "
                "arguments."
            ),
            corrected=(
                "All fifteen distinct second-derivative entries are "
                "derived from the implemented log-likelihood and certified "
                "against finite differences of the analytic score."
            ),
            evidence={
                "fd_gate_cases": 25,
                "fd_gate_rel_tol": 0.0001,
            },
        ),
        Erratum(
            slug="printed-loglik-vs-printed-estimates",
            component="inference",
            kind="table",
            printed=(
                "Five-parameter rows: device data prints -log L = 219.0041 "
                "and K-S 0.1216; fiber data prints -log L = 11.4208 and "
                "K-S 0.1159."
            ),
            corrected=(
                "Evaluating at the printed four-decimal estimates gives "
                "218.96696 (device) and 11.47217 (fiber). Both gaps are "
                "pure rounding of the printed estimates: fiber theta = "
                "0.00095, which rounds to the printed 0.0009, reproduces "
                "11.42080 exactly. The fiber K-S at the printed row is "
                "0.1033, not 0.1159: the printed statistic needs the "
                "unrounded estimates."
            ),
            evidence={
                "device_loglik_at_printed_row": 218.9669598783,
                "device_printed_loglik": 219.0041,
                "fiber_loglik_at_printed_row": 11.4721701287,
                "fiber_printed_loglik": 11.4208,
                "fiber_theta_unrounded": 0.00095,
                "fiber_ks_at_printed_row": 0.1033,
                "fiber_printed_ks": 0.1159,
            },
        ),
        Erratum(
            slug="printed-estimates-not-stationary",
            component="inference",
            kind="table",
            printed=(
                "The five-parameter estimate rows of both tables, the "
                "exponential-base row of the device table, and the "
                "beta-sub-family row of the fiber table are presented as "
                "maximum-likelihood estimates."
            ),
            corrected=(
                "None of those four rows is a stationary point: the score "
                "in log-parameter space is far from zero at each, and "
                "descent started at the printed points reaches deeper "
                "interior optima. The beta- and Kumaraswamy-sub-family "
                "rows of the device table and the Kumaraswamy row of the "
                "fiber table are genuine interior optima and refits "
                "recover every printed digit."
            ),
            evidence={
                "device_mcg_score_norm": 4.8,
                "device_mcg_interior_optimum": 217.384571,
                "fiber_mcg_score_norm": 1.4,
                "fiber_mcg_interior_optimum": 10.778384,
                "device_mce_score_norm": 3.26,
                "device_mce_interior_optimum": 236.1100,
                "fiber_bg_score_norm": 6.89,
                "fiber_bg_interior_optimum": 14.1434,
                "fiber_bg_loglik_at_printed_row": 14.2293,
            },
        ),
        Erratum(
            slug="likelihood-ridge-no-strict-mle",
            component="inference",
            kind="divergence",
            printed=(
                "The tables report a unique maximum-likelihood fit per "
                "model."
            ),
            corrected=(
                "The likelihood supremum sits on the b -> infinity "
                "boundary with theta -> 0 jointly: on the device data the "
                "negative log-likelihood falls monotonically along the "
                "ridge past every interior optimum (214.934 at b = 9.6e12)."
                " A strict MLE does not exist; the fitter reports interior "
                "stationary points and classifies ridge endpoints as "
                "non-converged."
            ),
            evidence={
                "device_ridge_nll": 214.934,
                "device_ridge_b": 9.6e12,
                "fiber_bg_ridge_nll_approach": 13.88,
                "fiber_mce_ridge_nll_approach": 14.59,
            },
        ),
        Erratum(
            slug="fiber-mce-column-mixed-runs",
            component="selection",
            kind="table",
            printed=(
                "Fiber-data exponential-base column: -log L = 15.5995, "
                "AIC 37.2569, AICC 37.9466, BIC 45.8295, K-S 0.1466."
            ),
            corrected=(
                "The three information criteria all back-solve to "
                "-log L = 14.6285 with k = 4, inconsistent with the "
                "printed 15.5995; and the printed K-S lies near the b-ridge "
                "endpoint's (0.1455 where -log L = 14.592), not the printed "
                "estimates' (0.1673). The column mixes a ridge run with an "
                "interior non-stationary point."
            ),
            evidence={
                "printed_neg_loglik": 15.5995,
                "neg_loglik_implied_by_aic": 14.62845,
                "ks_at_printed_row": 0.1673,
                "printed_ks": 0.1466,
                "ks_at_ridge_endpoint": 0.1455,
            },
        ),
        Erratum(
            slug="fiber-bg-ks-from-different-point",
            component="selection",
            kind="table",
            printed=(
                "Fiber-data beta-sub-family column prints K-S 0.1324 "
                "alongside its estimate row."
            ),
            corrected=(
                "The printed estimates give K-S 0.1255; the printed 0.1324 "
                "matches the interior optimum (0.1319 at -log L 14.1434), "
                "a different parameter point from the printed row."
            ),
            evidence={
                "ks_at_printed_row": 0.1255,
                "printed_ks": 0.1324,
                "ks_at_interior_optimum": 0.1319,
            },
        ),
        Erratum(
            slug="stderr-rows-inconsistent-with-info-matrix",
            component="inference",
            kind="table",
            printed=(
                "Five-parameter standard-error rows: device "
                "(0.0656, 0.1029, 0.9946, 0.0001, 0.0001) and fiber "
                "(0.2355, 0.1786, 307.3698, 0.0001, 0.4018)."
            ),
            corrected=(
                "The inverse observed information at the printed estimate "
                "rows gives device (0.0657, 0.0575, 2.7023, 0.00120, "
                "0.01562) and fiber (0.1513, 0.0977, 264.76, 0.000653, "
                "0.4679): only the first device component agrees. The "
                "printed rows cannot derive from the inverse observed "
                "information at the printed points."
            ),
            evidence={
                "device_se_from_info": [
                    0.065657974,
                    0.057487452,
                    2.702277,
                    0.001195908,
                    0.015615089,
                ],
                "device_printed_se": [0.0656, 0.1029, 0.9946, 0.0001, 0.0001],
                "fiber_se_from_info": [
                    0.151293,
                    0.0977185,
                    264.762,
                    0.000652939,
                    0.467874,
                ],
                "fiber_printed_se": [0.2355, 0.1786, 307.3698, 0.0001, 0.4018],
            },
        ),
    )


def erratum_report():
    """The catalog as a JSON-ready mapping."""
    entries = [e.to_dict() for e in known_errata()]
    return {
        "schema_version": 1,
        "package": "mcgompertz",
        "entry_count": len(entries),
        "entries": entries,
    }


def _dump(report, fh):
    json.dump(report, fh, indent=2)
    fh.write("\n")


def write_erratum_report(path):
    """Write the catalog to `path` as formatted JSON; returns the mapping."""
    report = erratum_report()
    with open(path, "w", encoding="utf-8") as fh:
        _dump(report, fh)
    return report


if __name__ == "__main__":
    import sys

    if len(sys.argv) > 1:
        write_erratum_report(sys.argv[1])
    else:
        _dump(erratum_report(), sys.stdout)
