"""Analysis reports with deterministic text and machine renderings.

Every number in a report is reproducible from the analyzed experiment
alone.  Machine output is JSON with a fixed field order and all reals
formatted to six decimal places, so equal analyses produce byte-equal
documents.  :func:`render_machine` fills fixed layouts, made at import,
with the report's values; it writes what ``json.dumps(..., indent=2)``
writes for the report as a JSON object, byte for byte.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .bell import (
    AmbiguousClassError,
    BOUNDS,
    CHSH_TERM_ORDER,
    ChshResult,
    ZooClass,
    chsh,
    decide_class,
)
from .expfile import _RAW, _REAL, _SETTINGS, _layout
from .hilbert import ModelVerdict
from .models import NamedModel
from .tables import (
    Experiment,
    FactorizationVerdict,
    Factors,
    MarginalLawReport,
    PAIR_ORDER,
    SettingPair,
    factorization_test,
    marginal_law_report,
)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


#: The bounds as both reports print them.
_BOUNDS_TEXT = {name: _fmt(getattr(BOUNDS, name)) for name in BOUNDS._fields}
_BOUNDS_LINE = "  bounds: " + ", ".join(f"{name} {text}" for name, text in _BOUNDS_TEXT.items())

#: Each setting label as a JSON string.
_QUOTED_LABEL = {pair: _quote(pair.label) for pair in PAIR_ORDER}

#: ``false`` and ``true``, indexed by a bool.
_JSON_BOOL = ("false", "true")

#: The machine report.  The marginal-law comparisons, each factorization
#: entry's ``factors`` and the model block fill their slots with the layouts
#: below, or with ``null``; each of those is indented as the line of its slot.
_MACHINE_LAYOUT = _layout(
    {
        "expectations": dict.fromkeys(_SETTINGS, _REAL),
        "chsh": {
            "reference_combination": _REAL,
            "max_abs_over_variants": _REAL,
            "variant_signs": dict.fromkeys([pair.label for pair in CHSH_TERM_ORDER], _RAW),
        },
        "bounds": _BOUNDS_TEXT,
        "marginal_law": {"holds": _RAW, "tol": _REAL, "comparisons": [_RAW]},
        "factorization": {
            label: {"factorizable": _RAW, "residual": _REAL, "factors": _RAW} for label in _SETTINGS
        },
        "zoo_class": _RAW,
        "zoo_error": _RAW,
        "model": _RAW,
    }
) + "\n"
_COMPARISON_LAYOUT = _layout(
    {"side": _RAW, "setting": _RAW, "tables": [_RAW, _RAW], "difference": _REAL, "holds": _RAW},
    " " * 6,
)
_FACTORS_LAYOUT = _layout(dict.fromkeys(Factors._fields, _REAL), " " * 6)
_MODEL_LAYOUT = _layout(
    {
        "name": _RAW, "alpha": _REAL, "beta": _REAL, "iso": _RAW, "residual_kind": _RAW,
        "tolerance": _REAL,
        "residuals": dict.fromkeys(_SETTINGS, _REAL),
        "hermiticity_residuals": dict.fromkeys(_SETTINGS, _REAL),
        "measurement_entangled": dict.fromkeys(_SETTINGS, _RAW),
        "state_entangled": _RAW, "chsh_from_model": _REAL, "chsh_imag_residual": _REAL,
        "passed": _RAW,
    },
    "  ",
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


def render_machine(report: Report) -> str:
    c = report.chsh
    ml = report.marginal_law
    comparisons = [
        _COMPARISON_LAYOUT
        % (
            _quote(m.side), _quote(m.setting), _QUOTED_LABEL[m.pairs[0]],
            _QUOTED_LABEL[m.pairs[1]], max(m.differences), _JSON_BOOL[m.holds],
        )
        for m in ml.comparisons
    ]
    fields = [
        *map(c.expectations.__getitem__, PAIR_ORDER),
        c.reference_combination,
        c.max_abs_over_variants,
        *map(c.variant_signs.__getitem__, CHSH_TERM_ORDER),
        _JSON_BOOL[ml.holds],
        ml.tol,
        ",\n      ".join(comparisons),
    ]
    for pair in PAIR_ORDER:
        f = report.factorization[pair]
        factors = "null" if f.factors is None else _FACTORS_LAYOUT % f.factors
        fields += (_JSON_BOOL[f.factorizable], f.residual, factors)
    model = "null"
    if report.model is not None:
        named, v = report.model
        model = _MODEL_LAYOUT % (
            _quote(named.name), named.alpha, named.beta, _quote(v.iso.name),
            _quote(v.residual_kind), v.tolerance,
            *map(v.residuals.__getitem__, PAIR_ORDER),
            *map(v.hermiticity_residuals.__getitem__, PAIR_ORDER),
            *[_JSON_BOOL[v.measurement_entangled[pair]] for pair in PAIR_ORDER],
            _JSON_BOOL[v.state_entangled], v.chsh_from_model, v.chsh_imag_residual,
            _JSON_BOOL[v.passed],
        )
    fields += (
        "null" if report.zoo_class is None else _quote(report.zoo_class.value),
        "null" if report.zoo_error is None else _quote(report.zoo_error),
        model,
    )
    return _MACHINE_LAYOUT % tuple(fields)


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
