"""Built-in datasets and the Hilbert-space constructions that realize them.

Three datasets ship with the toolkit:

* ``animal-acts`` - coincidence probabilities from a survey on the
  concept combination *The Animal Acts* (exemplar pairs of *Animal* and
  *Acts*), which violates the CHSH bound: the quoted tables give
  2.4217, while the paper quotes 2.4197 (the tables are rounded to three
  decimals, so their CHSH differs from the published figure);
* ``vessels`` - the connected-vessels-of-water thought experiment, a
  macroscopic system reaching the algebraic maximum CHSH = 4;
* ``vessels-separated`` - the same vessels with the connecting tube
  removed, which drops the CHSH combination back to the classical bound.

Each dataset that admits one comes with an explicit C^4 construction:
a state plus four measurements (or operators) reproducing its
probabilities, as a :class:`NamedModel`, the ``hilbert.Construction``
with its name, its dataset, its tolerance and its phases.  The two
vessel constructions differ in where the entanglement sits (state vs.
measurements), which is the point of keeping both.  Their canonical
product-basis measurements do not depend on the phases, so each is built
once, on first use, and shared by every vessel model; a measurement keeps
no flags, since a construction computes its own once per pairing class
(see ``hilbert``).  The AB', A'B and A'B' bases of :func:`vessels_model`
are three orders of one set, checked for orthonormality once.  A vessel
model has no operator matrices: it is verified from its Born tables, and a
second isomorphism of the same pairing class adds only the data
comparison.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Callable, Mapping
from functools import cache, cached_property

from .bell import ZooClass
from .hilbert import CANONICAL_ISO, Construction, Measurement, StateVector
from .linalg import CANONICAL_BASIS, CMatrix, CVector, _numbers, _real, _shown
from .tables import ENTRY_EPS, EXACT_TOL, PAIR_ORDER, Experiment, SettingPair, normalize

#: Entrywise tolerance when comparing against operator matrices that are
#: only known to three decimals.
ROUNDED_OPERATOR_TOL = 5e-2

#: Verification tolerance for the animal-acts model: expectation values
#: recomputed from three-decimal matrices and a three-decimal state.
ANIMAL_ACTS_MODEL_TOL = 0.03

#: Verification tolerance for the exact vessel constructions.
EXACT_MODEL_TOL = EXACT_TOL


Fixture = namedtuple("Fixture", "name experiment expected_chsh chsh_tol expected_class")
Fixture.__doc__ = """A named reference experiment with its expected analysis results."""


class NamedModel(Construction):
    """A named :class:`hilbert.Construction` paired with a reference fixture.

    ``measurements`` holds labeled final-state bases when the construction
    provides them, and it is verified from their Born tables.  The
    animal-acts model is known only through its operator matrices (their
    +-1 spectra are degenerate, so final states cannot be recovered), so
    verification compares expectation values instead of Born
    distributions.  ``alpha`` and ``beta`` are the phases the construction
    was built with (0 for one that has none).

    Its own reference data is built on first use and kept: :meth:`verify`
    checks against it when given no data, and with the model's
    ``tolerance`` when given none.
    """

    _fields = (
        "name", "state", "measurements", "operators", "fixture_name",
        "tolerance", "product_tol", "alpha", "beta",
    )

    def __init__(
        self,
        name: str,
        state: StateVector,
        measurements: Mapping[SettingPair, Measurement] | None,
        operators: Mapping[SettingPair, CMatrix] | None,
        fixture_name: str,
        tolerance: float,
        product_tol: float = EXACT_TOL,
        alpha: float = 0.0,
        beta: float = 0.0,
    ) -> None:
        super().__init__(state, measurements, operators, product_tol)
        vars(self).update(
            name=name, fixture_name=fixture_name, tolerance=tolerance, alpha=alpha, beta=beta
        )

    @cached_property
    def _fixture_experiment(self) -> Experiment:
        return get_fixture(self.fixture_name).experiment

    def verify(
        self,
        data: Experiment | None = None,
        tol: float | None = None,
        iso: Isomorphism = CANONICAL_ISO,
    ) -> ModelVerdict:
        if data is None:
            data = self._fixture_experiment
        if tol is None:
            tol = self.tolerance
        return super().verify(data, tol, iso)


# ---------------------------------------------------------------------------
# animal-acts dataset and model
# ---------------------------------------------------------------------------

#: Survey probabilities per setting pair, in cell order 11, 12, 21, 22.
#: The A'B row sums to 0.999 as quoted (three-decimal rounding) and is
#: rescaled on construction.
ANIMAL_ACTS_PROBABILITIES: Mapping[SettingPair, tuple[float, float, float, float]] = {
    SettingPair.AB: (0.049, 0.630, 0.259, 0.062),
    SettingPair.AB_PRIME: (0.593, 0.025, 0.296, 0.086),
    SettingPair.A_PRIME_B: (0.778, 0.086, 0.086, 0.049),
    SettingPair.A_PRIME_B_PRIME: (0.148, 0.086, 0.099, 0.667),
}

#: State amplitudes as (modulus, phase in degrees).  The fourth amplitude
#: vanishes; its quoted phase is irrelevant and dropped.
ANIMAL_ACTS_STATE_POLAR = (
    (0.23, 13.93),
    (0.62, 16.72),
    (0.75, 9.69),
    (0.0, 0.0),
)

#: Operator matrices per setting pair, quoted to three decimals (hence
#: only comparable at ROUNDED_OPERATOR_TOL).
ANIMAL_ACTS_OPERATORS: Mapping[SettingPair, CMatrix] = {
    SettingPair.AB: CMatrix(
        [
            [0.952, -0.207 - 0.030j, 0.224 + 0.007j, 0.003 - 0.006j],
            [-0.207 + 0.030j, -0.930, 0.028 - 0.001j, -0.163 + 0.251j],
            [0.224 - 0.007j, 0.028 + 0.001j, -0.916, -0.193 + 0.266j],
            [0.003 + 0.006j, -0.163 - 0.251j, -0.193 - 0.266j, 0.895],
        ]
    ),
    SettingPair.AB_PRIME: CMatrix(
        [
            [-0.001, 0.587 + 0.397j, 0.555 + 0.434j, 0.035 + 0.0259j],
            [0.587 - 0.397j, -0.489, 0.497 + 0.0341j, -0.106 - 0.005j],
            [0.555 - 0.434j, 0.497 - 0.0341j, -0.503, 0.045 - 0.001j],
            [0.035 - 0.0259j, -0.106 + 0.005j, 0.045 + 0.001j, 0.992],
        ]
    ),
    SettingPair.A_PRIME_B: CMatrix(
        [
            [-0.587, 0.568 + 0.353j, 0.274 + 0.365j, 0.002 + 0.004j],
            [0.568 - 0.353j, 0.090, 0.681 + 0.263j, -0.110 - 0.007j],
            [0.274 - 0.365j, 0.681 - 0.263j, -0.484, 0.150 - 0.050j],
            [0.002 - 0.004j, -0.110 + 0.007j, 0.150 + 0.050j, 0.981],
        ]
    ),
    SettingPair.A_PRIME_B_PRIME: CMatrix(
        [
            [0.854, 0.385 + 0.243j, -0.035 - 0.164j, -0.115 - 0.146j],
            [0.385 - 0.243j, -0.700, 0.483 + 0.132j, -0.086 + 0.212j],
            [-0.035 + 0.164j, 0.483 - 0.132j, 0.542, 0.093 + 0.647j],
            [-0.115 + 0.146j, -0.086 - 0.212j, 0.093 - 0.647j, -0.697],
        ]
    ),
}


def animal_acts_state() -> StateVector:
    """The C^4 state of the animal-acts construction, normalized (the
    quoted moduli give a norm of 0.99990)."""
    amps = [m * cmath.exp(1j * math.radians(ph)) for m, ph in ANIMAL_ACTS_STATE_POLAR]
    return StateVector.of(amps, normalize=True)


def animal_acts_data() -> Fixture:
    return get_fixture("animal-acts")


def animal_acts_model() -> NamedModel:
    return NamedModel(
        name="animal-acts",
        state=animal_acts_state(),
        measurements=None,
        operators=dict(ANIMAL_ACTS_OPERATORS),
        fixture_name="animal-acts",
        tolerance=ANIMAL_ACTS_MODEL_TOL,
        product_tol=ROUNDED_OPERATOR_TOL,
    )


# ---------------------------------------------------------------------------
# vessels of water: dataset and the two constructions
# ---------------------------------------------------------------------------


#: The two vessel tables: the same outcome on both sides (perfect
#: correlation) and opposite outcomes, each half of the time.
_CORRELATED = (1.0, 0.0, 0.0, 0.0)
_ANTI_CORRELATED = (0.0, 0.5, 0.5, 0.0)

#: The connected vessels' tables in PAIR_ORDER.
_VESSELS_TABLES = (_ANTI_CORRELATED, _CORRELATED, _CORRELATED, _CORRELATED)


def vessels_data() -> Fixture:
    """Connected vessels: perfect anti-correlation for AB, perfect
    correlation for the other three setting pairs (CHSH = 4)."""
    return get_fixture("vessels")


def vessels_separated_data() -> Fixture:
    """Vessels with the tube removed: the anti-correlation for AB stays,
    and the perfect correlation of A'B flips to anti-correlation
    (CHSH = 2)."""
    return get_fixture("vessels-separated")


def vessels_model(alpha: float = 0.0, beta: float = 0.0) -> NamedModel:
    """Construction with the entanglement in the state.

    The state is (0, sqrt(.5) e^{i alpha}, sqrt(.5) e^{i beta}, 0); AB is
    read out in the canonical product basis, while AB', A'B and A'B' each
    contain the state itself and its sign-flipped partner
    (0, sqrt(.5) e^{i alpha}, -sqrt(.5) e^{i beta}, 0) among their final
    states and are therefore entangled measurements.  All probabilities,
    and the Bell operator expectation of 4, are independent of the phases.
    """
    a = math.sqrt(0.5) * cmath.exp(1j * alpha)
    b = math.sqrt(0.5) * cmath.exp(1j * beta)
    state = CVector([0, a, b, 0])
    partner = CVector([0, a, -b, 0])
    e0, e3 = CANONICAL_BASIS[0], CANONICAL_BASIS[3]
    # A'B holds (state, e0, partner, e3) and A'B' (state, e0, e3, partner)
    ab_prime = Measurement(SettingPair.AB_PRIME, (state, partner, e0, e3))
    measurements = {
        SettingPair.AB: _canonical_measurement(SettingPair.AB),
        SettingPair.AB_PRIME: ab_prime,
        SettingPair.A_PRIME_B: ab_prime._reordered(SettingPair.A_PRIME_B, (0, 2, 1, 3)),
        SettingPair.A_PRIME_B_PRIME: ab_prime._reordered(SettingPair.A_PRIME_B_PRIME, (0, 2, 3, 1)),
    }
    return _vessel_model("vessels", state, measurements, alpha, beta)


def vessels_alternative_model(alpha: float = 0.0, beta: float = 0.0) -> NamedModel:
    """Construction with the entanglement in a single measurement.

    The same vessel probabilities are reproduced from the product state
    (1, 0, 0, 0) with AB', A'B and A'B' all canonical (product)
    measurements; only AB is entangled, through the final states
    (sqrt(.5) e^{i alpha}, 0, 0, +- sqrt(.5) e^{i beta}).  Together with
    :func:`vessels_model` this shows that where the entanglement sits
    depends on the chosen tensor-product identification, not on the data.
    """
    a = math.sqrt(0.5) * cmath.exp(1j * alpha)
    b = math.sqrt(0.5) * cmath.exp(1j * beta)
    e = CANONICAL_BASIS
    w_plus = CVector([a, 0, 0, b])
    w_minus = CVector([a, 0, 0, -b])
    measurements = {
        SettingPair.AB: Measurement(SettingPair.AB, (e[1], w_plus, w_minus, e[2])),
        SettingPair.AB_PRIME: _canonical_measurement(SettingPair.AB_PRIME),
        SettingPair.A_PRIME_B: _canonical_measurement(SettingPair.A_PRIME_B),
        SettingPair.A_PRIME_B_PRIME: _canonical_measurement(SettingPair.A_PRIME_B_PRIME),
    }
    return _vessel_model("vessels-alt", e[0], measurements, alpha, beta)


@cache
def _canonical_measurement(pair: SettingPair) -> Measurement:
    """The canonical product basis read out at ``pair``.

    It does not depend on any phase, so it is built on first use, once per
    pair, and every vessel model shares it."""
    return Measurement(pair, CANONICAL_BASIS)


def _vessel_model(
    name: str,
    state: CVector,
    measurements: Mapping[SettingPair, Measurement],
    alpha: float,
    beta: float,
) -> NamedModel:
    """An exact construction on the vessels data from its state and the
    measurement of each setting pair."""
    return NamedModel(
        name=name,
        state=StateVector(state),
        measurements=measurements,
        operators=None,
        fixture_name="vessels",
        tolerance=EXACT_MODEL_TOL,
        alpha=alpha,
        beta=beta,
    )


# ---------------------------------------------------------------------------
# basis synthesis
# ---------------------------------------------------------------------------


def basis_from_probabilities(
    state: StateVector,
    targets: tuple[float, float, float, float],
    pair: SettingPair = SettingPair.AB,
) -> Measurement:
    """Build an orthonormal basis whose Born probabilities in ``state``
    equal ``targets``.

    Let t be the unit vector with amplitudes sqrt(target_k).  A single
    reflection H sends ``state`` to -c t, where c is the unimodular phase
    aligning t with the state (the reflection across state + c t is
    always well conditioned, since |state + c t| >= sqrt(2)).  The
    returned basis vectors are -c H |k>, so every overlap <e_k|state>
    comes out real and nonnegative, equal to sqrt(target_k): the phase
    convention that makes the construction deterministic.
    Only the four basis vectors are built as :class:`CVector`; the rest is
    computed from plain complex tuples, in the order of the vector forms kept
    in ``tests/oracles.py``, and the basis gets :class:`Measurement`'s full
    Gram check.  The reflection needs a unit state: anything but a
    :class:`StateVector` is a :class:`ValueError` naming ``state``.
    ``targets`` must be four finite numbers by ``linalg._numbers`` and
    ``linalg._real``, nonnegative and summing to 1, or a :class:`ValueError`
    names them.
    """
    if not isinstance(state, StateVector):
        raise ValueError(f"state: expected a StateVector, got {state!r}")
    vals = _numbers(targets, _real)
    if vals is None or not all(map(math.isfinite, vals)):
        raise ValueError(f"targets: expected 4 finite real numbers, got {_shown(targets)}")
    if any(v < -ENTRY_EPS for v in vals):
        raise ValueError(f"target probabilities must be nonnegative: {vals}")
    v0, v1, v2, v3 = vals
    total = 0.0 + v0 + v1 + v2 + v3
    if abs(total - 1.0) > EXACT_TOL:
        raise ValueError(f"target probabilities sum to {total!r}, not 1")

    s0, s1, s2, s3 = s = state.vector.amplitudes
    t0, t1, t2, t3 = t = [complex(math.sqrt(max(v, 0.0))) for v in vals]
    # <t|s>, with the additions of linalg.inner in its order
    overlap = (
        0j + t0.conjugate() * s0 + t1.conjugate() * s1 + t2.conjugate() * s2 + t3.conjugate() * s3
    )
    c = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0 + 0j
    w0, w1, w2, w3 = w = [s[i] + c * t[i] for i in range(4)]
    # = 2 + 2|<t|s>| >= 2
    wnorm2 = 0.0 + abs(w0) ** 2 + abs(w1) ** 2 + abs(w2) ** 2 + abs(w3) ** 2

    minus_c = -c
    basis = []
    for k in range(4):
        wk = w[k].conjugate()
        basis.append(CVector([
            minus_c * ((1.0 if i == k else 0.0) - 2.0 * w[i] * wk / wnorm2) for i in range(4)
        ]))
    return Measurement(pair, tuple(basis))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: Every built-in name -> (dataset, construction builder).  A dataset is
#: its four raw tables in PAIR_ORDER, each in cell order, its quoted CHSH,
#: that figure's tolerance and its Zoo class; :func:`get_fixture` builds it.
#: Either may be None: a name without a dataset is a further construction
#: on the dataset its model names (``NamedModel.fixture_name``), and a name
#: without a construction gets a data-only report from the model command.
REGISTRY: Mapping[str, tuple[tuple | None, Callable[[float, float], NamedModel] | None]] = {
    "animal-acts": (
        (
            tuple(ANIMAL_ACTS_PROBABILITIES[p] for p in PAIR_ORDER),
            2.421656, 1e-6, ZooClass.NONLOCAL_NON_MARGINAL_BOX_1,
        ),
        lambda alpha, beta: animal_acts_model(),
    ),
    "vessels": ((_VESSELS_TABLES, 4.0, 1e-12, ZooClass.NONLOCAL_NON_MARGINAL_BOX_2), vessels_model),
    "vessels-alt": (None, vessels_alternative_model),
    "vessels-separated": (
        (
            # the vessels with A'B flipped
            _VESSELS_TABLES[:2] + (_ANTI_CORRELATED,) + _VESSELS_TABLES[3:],
            2.0, 1e-12, ZooClass.KOLMOGOROVIAN_COMPATIBLE,
        ),
        None,
    ),
}


def get_fixture(name: str) -> Fixture:
    """The dataset ``name`` of :data:`REGISTRY`, each row through
    :func:`tables.normalize`."""
    data = REGISTRY.get(name, (None, None))[0]
    if data is None:
        choices = sorted(n for n, (dataset, _) in REGISTRY.items() if dataset is not None)
        raise ValueError(f"unknown fixture {name!r}; choose from {choices}")
    rows, expected_chsh, chsh_tol, expected_class = data
    tables = tuple(map(normalize, rows, PAIR_ORDER))
    return Fixture(name, Experiment(tables), expected_chsh, chsh_tol, expected_class)


def get_model(name: str, alpha: float = 0.0, beta: float = 0.0) -> NamedModel:
    builder = REGISTRY.get(name, (None, None))[1]
    if builder is None:
        choices = sorted(n for n, (_, model) in REGISTRY.items() if model is not None)
        raise ValueError(f"unknown model {name!r}; choose from {choices}")
    return builder(alpha, beta)
