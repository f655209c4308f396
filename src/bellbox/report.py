"""Analysis reports with deterministic text and machine renderings.

Every number in a report is reproducible from the analyzed experiment
alone.  Machine output is JSON with a fixed field order and all reals
formatted to six decimal places, so equal analyses produce byte-equal
documents.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .bell import (
    AmbiguousClassError,
    BOUNDS,
    CHSH_TERM_ORDER,
    ChshResult,
    ZooClass,
    chsh,
    decide_class,
)
from .expfile import _indented_json
from .hilbert import ModelVerdict
from .models import NamedModel
from .tables import (
    Experiment,
    FactorizationVerdict,
    MarginalLawReport,
    PAIR_ORDER,
    SettingPair,
    factorization_test,
    marginal_law_report,
)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


#: The bounds as both reports print them.
_BOUNDS_PAYLOAD = {
    "classical": _fmt(BOUNDS.classical),
    "tsirelson": _fmt(BOUNDS.tsirelson),
    "algebraic": _fmt(BOUNDS.algebraic),
}
_BOUNDS_LINE = (
    f"  bounds: classical {_BOUNDS_PAYLOAD['classical']}, "
    f"tsirelson {_BOUNDS_PAYLOAD['tsirelson']}, algebraic {_BOUNDS_PAYLOAD['algebraic']}"
)


class Report(NamedTuple):
    chsh: ChshResult
    marginal_law: MarginalLawReport
    factorization: dict[SettingPair, FactorizationVerdict]
    zoo_class: ZooClass | None
    zoo_error: str | None
    #: A named construction and its verdict on the analyzed data, if checked.
    model: tuple[NamedModel, ModelVerdict] | None


def build_report(
    experiment: Experiment, model: tuple[NamedModel, ModelVerdict] | None = None
) -> Report:
    chsh_result = chsh(experiment)
    marginal_law = marginal_law_report(experiment)
    zoo_class: ZooClass | None
    zoo_error: str | None
    try:
        zoo_class = decide_class(chsh_result.max_abs_over_variants, marginal_law.holds)
        zoo_error = None
    except AmbiguousClassError as exc:
        zoo_class, zoo_error = None, str(exc)
    factorization = {
        pair: factorization_test(table) for pair, table in zip(PAIR_ORDER, experiment.tables)
    }
    return Report(chsh_result, marginal_law, factorization, zoo_class, zoo_error, model)


def _model_payload(model: NamedModel, v: ModelVerdict) -> dict[str, Any]:
    return {
        "name": model.name,
        "alpha": _fmt(model.alpha),
        "beta": _fmt(model.beta),
        "iso": v.iso.name,
        "residual_kind": v.residual_kind,
        "tolerance": _fmt(v.tolerance),
        "residuals": {p.label: _fmt(v.residuals[p]) for p in PAIR_ORDER},
        "hermiticity_residuals": {
            p.label: _fmt(v.hermiticity_residuals[p]) for p in PAIR_ORDER
        },
        "measurement_entangled": {
            p.label: v.measurement_entangled[p] for p in PAIR_ORDER
        },
        "state_entangled": v.state_entangled,
        "chsh_from_model": _fmt(v.chsh_from_model),
        "chsh_imag_residual": _fmt(v.chsh_imag_residual),
        "passed": v.passed,
    }


def _factorization_payload(verdict: FactorizationVerdict) -> dict[str, Any]:
    f = verdict.factors
    return {
        "factorizable": verdict.factorizable,
        "residual": _fmt(verdict.residual),
        "factors": None
        if f is None
        else {
            "a": _fmt(f.a),
            "b": _fmt(f.b),
            "a_prime": _fmt(f.a_prime),
            "b_prime": _fmt(f.b_prime),
        },
    }


def render_machine(report: Report) -> str:
    c = report.chsh
    ml = report.marginal_law
    payload: dict[str, Any] = {
        "expectations": {p.label: _fmt(c.expectations[p]) for p in PAIR_ORDER},
        "chsh": {
            "reference_combination": _fmt(c.reference_combination),
            "max_abs_over_variants": _fmt(c.max_abs_over_variants),
            "variant_signs": {p.label: c.variant_signs[p] for p in CHSH_TERM_ORDER},
        },
        "bounds": _BOUNDS_PAYLOAD,
        "marginal_law": {
            "holds": ml.holds,
            "tol": _fmt(ml.tol),
            "comparisons": [
                {
                    "side": m.side,
                    "setting": m.setting,
                    "tables": [p.label for p in m.pairs],
                    "difference": _fmt(max(m.differences)),
                    "holds": m.holds,
                }
                for m in ml.comparisons
            ],
        },
        "factorization": {
            p.label: _factorization_payload(report.factorization[p]) for p in PAIR_ORDER
        },
        "zoo_class": report.zoo_class.value if report.zoo_class else None,
        "zoo_error": report.zoo_error,
        "model": _model_payload(*report.model) if report.model else None,
    }
    return _indented_json(payload) + "\n"


def render_text(report: Report) -> str:
    c = report.chsh
    lines = []
    lines.append("expectation values")
    for p in PAIR_ORDER:
        lines.append(f"  E({p.first},{p.second}) = {_fmt(c.expectations[p])}")
    lines.append("chsh")
    lines.append(f"  combination  = {_fmt(c.reference_combination)}")
    lines.append(f"  max |variant| = {_fmt(c.max_abs_over_variants)}")
    signs = " ".join(
        f"{'+' if c.variant_signs[p] > 0 else '-'}E({p.first},{p.second})"
        for p in CHSH_TERM_ORDER
    )
    lines.append(f"  achieved by  {signs}")
    lines.append(_BOUNDS_LINE)
    ml = report.marginal_law
    lines.append(f"marginal law: {'holds' if ml.holds else 'violated'} (tol {ml.tol:g})")
    for m in ml.comparisons:
        lines.append(
            f"  setting {m.setting:3s} ({m.pairs[0].label} vs {m.pairs[1].label}): "
            f"marginals ({_fmt(m.marginal_a[0])}, {_fmt(m.marginal_a[1])}) vs "
            f"({_fmt(m.marginal_b[0])}, {_fmt(m.marginal_b[1])}), "
            f"|diff| {_fmt(max(m.differences))} -> "
            f"{'ok' if m.holds else 'violated'}"
        )
    lines.append("factorization per table")
    for p in PAIR_ORDER:
        verdict = report.factorization[p]
        if verdict.factorizable and verdict.factors:
            f = verdict.factors
            lines.append(
                f"  {p.label:4s}: factorizable, a={_fmt(f.a)} b={_fmt(f.b)} "
                f"a'={_fmt(f.a_prime)} b'={_fmt(f.b_prime)} "
                f"(residual {_fmt(verdict.residual)})"
            )
        else:
            lines.append(
                f"  {p.label:4s}: not factorizable (residual {_fmt(verdict.residual)})"
            )
    if report.zoo_class is not None:
        lines.append(f"class: {report.zoo_class.value}")
    else:
        lines.append(f"class: unresolved ({report.zoo_error})")
    if report.model is not None:
        model, v = report.model
        lines.append(
            f"model {model.name} (alpha={model.alpha:g}, beta={model.beta:g}, "
            f"iso={v.iso.name})"
        )
        lines.append(
            f"  verification ({v.residual_kind}, tol {v.tolerance:g}): "
            f"{'pass' if v.passed else 'FAIL'}"
        )
        for p in PAIR_ORDER:
            lines.append(
                f"  {p.label:4s}: residual {_fmt(v.residuals[p])}, "
                f"hermiticity {_fmt(v.hermiticity_residuals[p])}, "
                f"{'entangled' if v.measurement_entangled[p] else 'product'}"
            )
        lines.append(
            f"  state: {'entangled' if v.state_entangled else 'product'}; "
            f"model chsh {_fmt(v.chsh_from_model)} "
            f"(imag residual {_fmt(v.chsh_imag_residual)})"
        )
    return "\n".join(lines) + "\n"
