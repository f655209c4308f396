"""Analysis reports with deterministic text and machine renderings.

Every number in a report is reproducible from the analyzed experiment
alone.  Machine output is JSON with a fixed field order and all reals
formatted to six decimal places, so equal analyses produce byte-equal
documents.  :func:`render_machine` fills fixed layouts, made at import,
with the report's values; it writes what ``json.dumps(..., indent=2)``
writes for the report as a JSON object, byte for byte.  :func:`render_text`
fills ``%`` layouts made at import too (``%.6f``, ``%g`` and ``%-3s`` write
what ``{:.6f}``, ``{:g}`` and ``{:3s}`` write); setting labels are part of
them, side labels, names and ``zoo_error`` are only filled in.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote

from .bell import (
    AmbiguousClassError,
    BOUNDS,
    CHSH_TERM_ORDER,
    chsh,
    decide_class,
)
from .expfile import _RAW, _REAL, _SETTINGS, _layout
from .tables import (
    Factors,
    PAIR_ORDER,
    factorization_test,
    marginal_law_report,
)


#: The bounds as both reports print them.
_BOUNDS_TEXT = {name: f"{getattr(BOUNDS, name):.6f}" for name in BOUNDS._fields}
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

#: The text report: its head, up to the marginal-law line; one line per
#: marginal-law comparison; per setting pair, one of two factorization
#: lines; and the model block.
_TEXT_HEAD = "\n".join(
    [
        "expectation values",
        *[f"  E({p.first},{p.second}) = %.6f" for p in PAIR_ORDER],
        "chsh",
        "  combination  = %.6f",
        "  max |variant| = %.6f",
        "  achieved by  " + " ".join(f"%sE({p.first},{p.second})" for p in CHSH_TERM_ORDER),
        _BOUNDS_LINE,
        "marginal law: %s (tol %g)\n",
    ]
)
_COMPARISON_LINE = (
    "  setting %-3s (%s vs %s): marginals (%.6f, %.6f) vs (%.6f, %.6f), |diff| %.6f -> %s\n"
)
_FACTORIZABLE_LINE = {
    p: f"  {p.label:4s}: factorizable, a=%.6f b=%.6f a'=%.6f b'=%.6f (residual %.6f)\n"
    for p in PAIR_ORDER
}
_NOT_FACTORIZABLE_LINE = {
    p: f"  {p.label:4s}: not factorizable (residual %.6f)\n" for p in PAIR_ORDER
}
_TEXT_MODEL = "\n".join(
    [
        "model %s (alpha=%g, beta=%g, iso=%s)",
        "  verification (%s, tol %g): %s",
        *[f"  {p.label:4s}: residual %.6f, hermiticity %.6f, %s" for p in PAIR_ORDER],
        "  state: %s; model chsh %.6f (imag residual %.6f)\n",
    ]
)


Report = namedtuple("Report", "chsh marginal_law factorization zoo_class zoo_error model")
Report.__doc__ = """An analysis; ``model`` is a named construction and its verdict on
the analyzed data, if one was checked."""


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
    factorization = dict(zip(PAIR_ORDER, map(factorization_test, experiment.tables)))
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
    ml = report.marginal_law
    parts = [
        _TEXT_HEAD
        % (
            *map(c.expectations.__getitem__, PAIR_ORDER), c.reference_combination,
            c.max_abs_over_variants,
            *["+" if c.variant_signs[p] > 0 else "-" for p in CHSH_TERM_ORDER],
            "holds" if ml.holds else "violated", ml.tol,
        )
    ]
    for m in ml.comparisons:
        parts.append(
            _COMPARISON_LINE
            % (
                m.setting, m.pairs[0].label, m.pairs[1].label, *m.marginal_a, *m.marginal_b,
                max(m.differences), "ok" if m.holds else "violated",
            )
        )
    parts.append("factorization per table\n")
    for p in PAIR_ORDER:
        f = report.factorization[p]
        if f.factorizable and f.factors:
            parts.append(_FACTORIZABLE_LINE[p] % (*f.factors, f.residual))
        else:
            parts.append(_NOT_FACTORIZABLE_LINE[p] % f.residual)
    if report.zoo_class is not None:
        parts.append("class: %s\n" % report.zoo_class.value)
    else:
        parts.append("class: unresolved (%s)\n" % (report.zoo_error,))
    if report.model is not None:
        model, v = report.model
        rows = []
        for p in PAIR_ORDER:
            entangled = "entangled" if v.measurement_entangled[p] else "product"
            rows += (v.residuals[p], v.hermiticity_residuals[p], entangled)
        parts.append(
            _TEXT_MODEL
            % (
                model.name, model.alpha, model.beta, v.iso.name, v.residual_kind, v.tolerance,
                "pass" if v.passed else "FAIL", *rows,
                "entangled" if v.state_entangled else "product", v.chsh_from_model,
                v.chsh_imag_residual,
            )
        )
    return "".join(parts)
