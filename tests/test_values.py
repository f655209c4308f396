"""Value semantics of bellbox's immutable types.

Every record and value class keeps its constructor (by position and by
keyword, with the same defaults), refuses assignment and deletion, and
compares by its fields; the validating ones keep their error types and
messages.
"""

import copy
import inspect
import math
import pickle
import re
from decimal import Decimal

import pytest

from bellbox.bell import Bounds, ChshResult, ZooClass
from bellbox.expfile import read_experiment, write_experiment
from bellbox.hilbert import (
    CANONICAL_ISO,
    COINCIDENCE_OUTCOMES,
    SWAPPED_ISO,
    Construction,
    Isomorphism,
    Measurement,
    ModelVerdict,
    StateVector,
    is_product_operator,
    realign,
    verify_model,
)
from bellbox.linalg import CANONICAL_BASIS, CMatrix, CVector
from bellbox.models import (
    ANIMAL_ACTS_OPERATORS,
    Fixture,
    NamedModel,
    animal_acts_data,
    animal_acts_model,
    animal_acts_state,
    basis_from_probabilities,
    vessels_data,
    vessels_model,
)
from bellbox.report import Report
from bellbox.tables import (
    DEFAULT_SIDES,
    EXACT_TOL,
    PAIR_ORDER,
    Experiment,
    FactorizationVerdict,
    Factors,
    JointTable,
    MarginalComparison,
    MarginalLawReport,
    NotNormalizableError,
    SettingPair,
    TableError,
    normalize,
)

AB, AB_PRIME = SettingPair.AB, SettingPair.AB_PRIME
E0, E1, E2, E3 = CANONICAL_BASIS


def _tables(shift=0.0):
    return tuple(JointTable(0.1 + shift, 0.2, 0.3, 0.4 - shift, p) for p in PAIR_ORDER)


def _experiment(shift=0.0):
    return Experiment(_tables(shift))


def _state(k=0):
    return StateVector(CANONICAL_BASIS[k])


def _measurement(pair=AB):
    return Measurement(pair, CANONICAL_BASIS)


def _matrix(scale=1.0):
    return CMatrix([[scale if i == j else 0 for j in range(4)] for i in range(4)])


class Case:
    """How to build one type twice: ``base`` maps every field to a value
    (zero-argument callables are called, so each construction gets fresh
    objects); ``other`` differs from ``base`` in every field it maps, each
    of which may replace the base value alone.  It maps every field unless
    the type ties two fields together.  ``defaults`` are the values that
    omitted trailing arguments take.  ``name`` tells apart two cases of one
    type."""

    def __init__(self, cls, base, other, defaults=None, hashable=True, name=None):
        self.cls, self.base, self.other = cls, base, other
        self.defaults = defaults or {}
        self.hashable = hashable
        self.name = name or cls.__name__

    def fields(self, **override):
        values = {**self.base, **override}
        return {k: v() if callable(v) else v for k, v in values.items()}

    def build(self, **override):
        return self.cls(**self.fields(**override))

    def __repr__(self):
        return self.name


CASES = [
    Case(
        CVector,
        {"amplitudes": lambda: (1 + 0j, 0j, 0j, 0j)},
        {"amplitudes": lambda: (0j, 1 + 0j, 0j, 0j)},
    ),
    Case(CMatrix, {"rows": lambda: _matrix().rows}, {"rows": lambda: _matrix(2.0).rows}),
    Case(
        JointTable,
        {"p11": 0.1, "p12": 0.2, "p21": 0.3, "p22": 0.4, "pair": AB},
        # one ulp apart: each changed table still sums to 1 within the admission rule
        {
            "p11": math.nextafter(0.1, 1.0),
            "p12": math.nextafter(0.2, 1.0),
            "p21": math.nextafter(0.3, 1.0),
            "p22": math.nextafter(0.4, 1.0),
            "pair": AB_PRIME,
        },
        defaults={"pair": AB},
    ),
    Case(
        Experiment,
        {"tables": _tables, "sides": DEFAULT_SIDES},
        {"tables": lambda: _tables(0.05), "sides": (("X", "X'"), ("Y", "Y'"))},
        defaults={"sides": DEFAULT_SIDES},
    ),
    Case(
        Bounds,
        {"classical": 2.0, "tsirelson": 2.0 * math.sqrt(2.0), "algebraic": 4.0},
        {"classical": 1.5, "tsirelson": 3.0, "algebraic": 4.5},
    ),
    Case(
        Isomorphism,
        {"name": "canonical", "cells": CANONICAL_ISO.cells},
        {"name": "swapped", "cells": SWAPPED_ISO.cells},
    ),
    Case(StateVector, {"vector": lambda: CVector([1, 0, 0, 0])}, {"vector": lambda: CVector([0, 1, 0, 0])}),
    Case(
        Measurement,
        {
            "pair": AB,
            "final_states": lambda: tuple(CVector(v) for v in CANONICAL_BASIS),
            "outcomes": COINCIDENCE_OUTCOMES,
        },
        {
            "pair": AB_PRIME,
            "final_states": (E1, E0, E2, E3),
            "outcomes": (1.0, 1.0, -1.0, -1.0),
        },
        defaults={"outcomes": COINCIDENCE_OUTCOMES},
    ),
    # a construction has exactly one of measurements and operators: the
    # basis-backed case changes only its measurements, the operator-only
    # case only its operators
    Case(
        Construction,
        {
            "state": _state,
            "measurements": lambda: {p: _measurement(p) for p in PAIR_ORDER},
            "operators": None,
            "product_tol": EXACT_TOL,
        },
        {
            "state": lambda: _state(1),
            "measurements": lambda: {
                p: Measurement(p, (E1, E0, E2, E3)) for p in PAIR_ORDER
            },
            "product_tol": 0.05,
        },
        defaults={"operators": None, "product_tol": EXACT_TOL},
        hashable=False,
        name="Construction-measurements",
    ),
    Case(
        Construction,
        {
            "state": _state,
            "measurements": None,
            "operators": lambda: {p: _matrix() for p in PAIR_ORDER},
            "product_tol": 0.05,
        },
        {"operators": lambda: {p: _matrix(2.0) for p in PAIR_ORDER}},
        defaults={"product_tol": EXACT_TOL},
        hashable=False,
        name="Construction-operators",
    ),
    Case(
        NamedModel,
        {
            "name": "m",
            "state": _state,
            "measurements": lambda: {p: _measurement(p) for p in PAIR_ORDER},
            "operators": None,
            "fixture_name": "vessels",
            "tolerance": 1e-9,
            "product_tol": EXACT_TOL,
            "alpha": 0.0,
            "beta": 0.0,
        },
        {
            "name": "n",
            "state": lambda: _state(1),
            "measurements": lambda: {
                p: Measurement(p, (E1, E0, E2, E3)) for p in PAIR_ORDER
            },
            "fixture_name": "animal-acts",
            "tolerance": 0.03,
            "product_tol": 0.05,
            "alpha": 0.3,
            "beta": 1.1,
        },
        defaults={"product_tol": EXACT_TOL, "alpha": 0.0, "beta": 0.0},
        hashable=False,
    ),
    Case(
        NamedModel,
        {
            "name": "m",
            "state": _state,
            "measurements": None,
            "operators": lambda: {p: _matrix() for p in PAIR_ORDER},
            "fixture_name": "animal-acts",
            "tolerance": 0.03,
            "product_tol": 0.05,
            "alpha": 0.0,
            "beta": 0.0,
        },
        {"operators": lambda: {p: _matrix(2.0) for p in PAIR_ORDER}},
        defaults={"product_tol": EXACT_TOL, "alpha": 0.0, "beta": 0.0},
        hashable=False,
        name="NamedModel-operators",
    ),
    Case(
        MarginalComparison,
        {
            "side": "first",
            "setting": "A",
            "pairs": (AB, AB_PRIME),
            "marginal_a": (0.5, 0.5),
            "marginal_b": (1.0, 0.0),
            "differences": (0.5, 0.5),
            "holds": False,
        },
        {
            "side": "second",
            "setting": "B",
            "pairs": (AB, SettingPair.A_PRIME_B),
            "marginal_a": (0.25, 0.75),
            "marginal_b": (0.25, 0.75),
            "differences": (0.0, 0.0),
            "holds": True,
        },
    ),
    Case(
        MarginalLawReport,
        {"comparisons": (), "tol": 1e-6, "holds": True},
        {"comparisons": (None,), "tol": 1e-3, "holds": False},
    ),
    Case(
        Factors,
        {"a": 0.1, "b": 0.2, "a_prime": 0.9, "b_prime": 0.8},
        {"a": 0.3, "b": 0.4, "a_prime": 0.7, "b_prime": 0.6},
    ),
    Case(
        FactorizationVerdict,
        {"factorizable": True, "factors": lambda: Factors(0.1, 0.2, 0.9, 0.8), "residual": 0.0},
        {"factorizable": False, "factors": None, "residual": 0.25},
    ),
    Case(
        ChshResult,
        {
            "expectations": lambda: {p: 1.0 for p in PAIR_ORDER},
            "reference_combination": 2.0,
            "max_abs_over_variants": 2.0,
            "variant_signs": lambda: {p: 1 for p in PAIR_ORDER},
        },
        {
            "expectations": lambda: {p: 0.5 for p in PAIR_ORDER},
            "reference_combination": 1.0,
            "max_abs_over_variants": 1.5,
            "variant_signs": lambda: {p: -1 for p in PAIR_ORDER},
        },
        hashable=False,
    ),
    Case(
        ModelVerdict,
        {
            "residual_kind": "probabilities",
            "residuals": lambda: {p: 0.0 for p in PAIR_ORDER},
            "measurement_entangled": lambda: {p: False for p in PAIR_ORDER},
            "state_entangled": True,
            "hermiticity_residuals": lambda: {p: 0.0 for p in PAIR_ORDER},
            "chsh_from_model": 4.0,
            "chsh_imag_residual": 0.0,
            "tolerance": 1e-9,
            "iso": CANONICAL_ISO,
            "passed": True,
        },
        {
            "residual_kind": "expectations",
            "residuals": lambda: {p: 0.5 for p in PAIR_ORDER},
            "measurement_entangled": lambda: {p: True for p in PAIR_ORDER},
            "state_entangled": False,
            "hermiticity_residuals": lambda: {p: 0.1 for p in PAIR_ORDER},
            "chsh_from_model": 2.0,
            "chsh_imag_residual": 0.1,
            "tolerance": 0.03,
            "iso": SWAPPED_ISO,
            "passed": False,
        },
        hashable=False,
    ),
    Case(
        Fixture,
        {"name": "f", "experiment": _experiment},
        {"name": "g", "experiment": lambda: _experiment(0.05)},
    ),
    Case(
        Report,
        {
            "chsh": None,
            "marginal_law": None,
            "factorization": lambda: {p: None for p in PAIR_ORDER},
            "zoo_class": ZooClass.NONLOCAL_BOX,
            "zoo_error": None,
            "model": None,
        },
        {
            "chsh": 1,
            "marginal_law": 2,
            "factorization": dict,
            "zoo_class": None,
            "zoo_error": "unresolved",
            "model": (1, 2),
        },
        hashable=False,
    ),
]


def test_every_former_dataclass_is_covered():
    # Construction is the one value class that was never a dataclass
    assert len({case.cls for case in CASES} - {Construction}) == 17


@pytest.mark.parametrize("case", CASES, ids=repr)
class TestValueSemantics:
    def test_position_and_keyword_construct_the_same_value(self, case):
        fields = case.fields()
        by_position = case.cls(*fields.values())
        by_keyword = case.cls(**fields)
        assert by_position == by_keyword
        for name, value in fields.items():
            assert getattr(by_keyword, name) == value

    def test_defaults(self, case):
        fields = case.fields()
        required = [name for name in fields if name not in case.defaults]
        value = case.cls(*(fields[name] for name in required))
        for name, default in case.defaults.items():
            assert getattr(value, name) == default

    def test_fields_cannot_be_assigned_or_deleted(self, case):
        value = case.build()
        for name in case.base:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert name in dir(value)
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_equal_fields_give_equal_values(self, case):
        first, second = case.build(), case.build()
        assert first == second and not first != second
        if case.hashable:
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError):
                hash(first)

    def test_each_differing_field_makes_values_unequal(self, case):
        base = case.build()
        for name, value in case.other.items():
            changed = case.build(**{name: value})
            assert base != changed and not base == changed, name

    def test_copies_and_pickles_are_equal(self, case):
        value = case.build()
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value

    def test_repr_names_the_fields(self, case):
        text = repr(case.build())
        assert text.startswith(f"{case.cls.__name__}(")
        assert all(f"{name}=" in text for name in case.base)


def test_unchecked_builds_equal_checked_values(tmp_path):
    # normalize and read_experiment skip the constructor checks they have
    # already made; what they build must be the value the constructor builds
    rows = ((0.049, 0.630, 0.259, 0.062), (0.5, 0.25, 0.125, 0.124), (0.0, 0.5, 0.5, 0.0),
            (1.0, 0.0, 0.0, 0.0))
    for row, pair in zip(rows, PAIR_ORDER):
        made = normalize(row, pair)
        checked = JointTable(*made.values, pair)
        assert made == checked and hash(made) == hash(checked)
        assert type(made) is JointTable and vars(made) == vars(checked)
    path = tmp_path / "e.json"
    write_experiment(path, Experiment(_tables(0.05), (("X", "X'"), ("Y", "Y'"))))
    made = read_experiment(path)[0]
    checked = Experiment(made.tables, made.sides)
    assert made == checked and hash(made) == hash(checked)
    assert type(made) is Experiment and vars(made) == vars(checked)


def test_values_of_different_classes_are_unequal():
    assert StateVector(E0) != E0
    assert CVector(E0) != CMatrix(_matrix().rows)
    assert JointTable(0.25, 0.25, 0.25, 0.25) != (0.25, 0.25, 0.25, 0.25, AB)


def test_cached_values_take_no_part_in_equality():
    fresh, used = _measurement(), _measurement()
    assert used.operator is used.operator
    assert fresh == used and hash(fresh) == hash(used)
    case = next(c for c in CASES if c.cls is NamedModel)
    fresh, used = case.build(), case.build()
    used.verify()
    assert fresh == used


def test_measurement_labels_default_to_the_pair_labels():
    with _raises(ValueError, "final states A'2B2,A'2B2 are not orthonormal: |<i|j>| = 4.0"):
        Measurement(SettingPair.A_PRIME_B, (E0, E1, E2, E3.scaled(2)))


@pytest.mark.parametrize("cls", [CVector, CMatrix, JointTable])
def test_counted_constructors_define_their_own_init(cls):
    # the benchmark's tracer wraps exactly this function to count constructions
    assert inspect.isfunction(cls.__dict__["__init__"])


def _raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


class TestValidationMessages:
    def test_joint_table_entries(self):
        with _raises(TableError, "entry A1B1 = 1.5 is not a probability"):
            JointTable(1.5, 0, 0, 0)
        with _raises(TableError, "entry A'2B'1 = -0.5 is not a probability"):
            JointTable(0.5, 0.5, -0.5, 0.5, SettingPair.A_PRIME_B_PRIME)

    def test_joint_table_sum(self):
        with _raises(NotNormalizableError, "table AB' sums to 1.5, too far from 1"):
            JointTable(0.5, 0.5, 0.5, 0, AB_PRIME)

    def test_experiment_order(self):
        with _raises(
            TableError,
            "tables must appear in order ['AB', \"AB'\", \"A'B\", \"A'B'\"], "
            "got [\"AB'\", 'AB', \"A'B\", \"A'B'\"]",
        ):
            tables = _tables()
            Experiment((tables[1], tables[0], tables[2], tables[3]))

    def test_isomorphism_cells(self):
        with _raises(
            ValueError, "cells must be a bijection onto {0,1}^2: ((0, 0), (0, 0), (1, 0), (1, 1))"
        ):
            Isomorphism("bad", ((0, 0), (0, 0), (1, 0), (1, 1)))

    def test_state_norm(self):
        with _raises(ValueError, "state norm 1.4142135623730951 is not 1 within 1e-09"):
            StateVector(CVector([1, 1, 0, 0]))

    @pytest.mark.parametrize("vector", [[1, 0, 0, 0], (1, 0, 0, 0), None, _state()])
    def test_state_vector_type(self, vector):
        with _raises(ValueError, f"vector must be a CVector, got {vector!r}"):
            StateVector(vector)

    @pytest.mark.parametrize("pair", ["AB", None, 0])
    def test_measurement_pair(self, pair):
        with _raises(ValueError, f"pair must be a SettingPair, got {pair!r}"):
            Measurement(pair, CANONICAL_BASIS)

    def test_measurement_orthonormality(self):
        with _raises(ValueError, "final states A1B1,A1B2 are not orthonormal: |<i|j>| = 1.0"):
            Measurement(AB, (E0, E0, E2, E3))
        with _raises(ValueError, "final states A1B'1,A1B'1 are not orthonormal: |<i|j>| = 4.0"):
            Measurement(AB_PRIME, (E0.scaled(2), E1, E2, E3))

    def test_measurement_final_states(self):
        for final_states in ((E0, E1, E2), (E0, E1, E2, E3, E0), (E0, E1, E2, _state(3)), ()):
            with pytest.raises(ValueError, match=r"^final_states must be 4 CVectors, got "):
                Measurement(AB, final_states)

    @pytest.mark.parametrize(
        "outcomes",
        [(1.0, -1.0, -1.0), (1.0, -1.0, -1.0, 1.0, 1.0), (1.0, -1.0, -1.0, math.inf),
         (math.nan, -1.0, -1.0, 1.0), (1.0, "a", -1.0, 1.0), (1.0, -1.0, 1j, 1.0),
         (1.0, -1.0, None, 1.0), (), "1111", ("1", "-1", "-1", "1"), (1.0, -1.0, b"-1", 1.0),
         (1.0, -1.0, bytearray(b"-1"), 1.0), (1.0, -1.0, memoryview(b"-1"), 1.0),
         b"1111", bytearray(b"1111"), memoryview(b"1111")],
        ids=["three", "five", "inf", "nan", "string", "complex", "none", "empty", "text",
             "numeric-strings", "bytes", "bytearray", "memoryview", "whole-bytes",
             "whole-bytearray", "whole-memoryview"],
    )
    def test_measurement_outcomes(self, outcomes):
        with _raises(ValueError, f"outcomes must be 4 finite real numbers, got {outcomes!r}"):
            Measurement(AB, CANONICAL_BASIS, outcomes)

    def test_named_model_takes_measurements_or_operators(self):
        measurements = {p: _measurement(p) for p in PAIR_ORDER}
        operators = {p: _matrix() for p in PAIR_ORDER}
        with _raises(ValueError, "operators: must be None when measurements are given"):
            NamedModel("m", _state(), measurements, operators, "vessels", 1e-9)
        with _raises(ValueError, "measurements: a construction needs measurements or operators"):
            NamedModel("m", _state(), None, None, "vessels", 1e-9)

    def test_verify_model_needs_measurements(self):
        with _raises(ValueError, "measurements: a construction needs measurements or operators"):
            verify_model(_state(), None, _experiment(), 1e-9)

    def test_construction_state_is_a_state_vector(self):
        # a norm-2 vector is not a state: its Born table would be clamped to 1
        vector = CVector([2, 0, 0, 0])
        measurements = vessels_model().measurements
        with _raises(ValueError, f"state: expected a StateVector, got {vector!r}"):
            verify_model(vector, measurements, vessels_data().experiment, 1e-9)
        vector = animal_acts_state().vector
        operators = dict(ANIMAL_ACTS_OPERATORS)
        with _raises(ValueError, f"state: expected a StateVector, got {vector!r}"):
            NamedModel("m", vector, None, operators, "animal-acts", 0.03)

    @pytest.mark.parametrize(
        "entries", [[1, 2], (), "AB", 0], ids=["list", "tuple", "text", "int"]
    )
    def test_construction_entries_are_a_mapping(self, entries):
        with _raises(ValueError, f"measurements: expected a mapping, got {entries!r}"):
            verify_model(_state(), entries, _experiment(), 1e-9)
        with _raises(ValueError, f"measurements: expected a mapping, got {entries!r}"):
            NamedModel("m", _state(), entries, None, "vessels", 1e-9)
        with _raises(ValueError, f"operators: expected a mapping, got {entries!r}"):
            NamedModel("m", _state(), None, entries, "animal-acts", 0.03)

    def test_verify_needs_an_isomorphism(self):
        model = vessels_model()
        with _raises(ValueError, "iso: expected an Isomorphism, got 'swapped'"):
            model.verify(iso="swapped")
        with _raises(ValueError, "iso: expected an Isomorphism, got None"):
            verify_model(model.state, model.measurements, vessels_data().experiment, 1e-9, None)

    def test_joint_table_pair(self):
        with _raises(TableError, "pair must be a SettingPair, got 'AB'"):
            JointTable(0.25, 0.25, 0.25, 0.25, "AB")

    @pytest.mark.parametrize("pair", ["AB", None], ids=["label", "none"])
    def test_normalize_pair(self, pair):
        with _raises(TableError, f"pair must be a SettingPair, got {pair!r}"):
            normalize((0.5, 0.5, 0, 0), pair)

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_joint_table_entry_that_does_not_add(self, position):
        # a Decimal compares with a float, so it passes the range check, but
        # does not add to one
        entries = [0.5, 0.5, 0.0, 0.0]
        entries[position] = Decimal(entries[position])
        label = AB.outcome_labels[position]
        with _raises(TableError, f"entry {label} = {entries[position]!r} is not a probability"):
            JointTable(*entries)

    @pytest.mark.parametrize(
        "m", [[[1, 0, 0, 0]] * 4, _matrix().rows, None], ids=["lists", "rows", "none"]
    )
    def test_realignment_needs_a_matrix(self, m):
        with _raises(ValueError, f"m: expected a CMatrix, got {m!r}"):
            realign(m)
        with _raises(ValueError, f"m: expected a CMatrix, got {m!r}"):
            is_product_operator(m, SWAPPED_ISO)

    @pytest.mark.parametrize(
        "entries,position",
        [(("0.5", 0.5, 0.0, 0.0), 0), ((0.5, None, 0.5, 0.0), 1),
         ((0.5, 0.0, 0.5j, 0.0), 2), ((0.5, 0.0, 0.5, b"0"), 3)],
        ids=["string", "none", "complex", "bytes"],
    )
    def test_joint_table_entry_types(self, entries, position):
        label, value = AB.outcome_labels[position], entries[position]
        with _raises(TableError, f"entry {label} = {value!r} is not a probability"):
            JointTable(*entries)

    @pytest.mark.parametrize(
        "tables",
        [[1, 2, 3, 4], [_measurement(p) for p in PAIR_ORDER]],
        ids=["ints", "measurements"],
    )
    def test_experiment_tables_are_joint_tables(self, tables):
        with _raises(TableError, f"tables: expected JointTables, got {tuple(tables)!r}"):
            Experiment(tables)

    def test_each_pair_has_its_own_measurement_or_operator(self):
        data = _experiment()
        missing = {p: _measurement(p) for p in PAIR_ORDER if p is not AB}
        misfiled = {p: _measurement(AB_PRIME if p is AB else p) for p in PAIR_ORDER}
        for measurements in (missing, misfiled, {**misfiled, AB: _matrix()}):
            with _raises(ValueError, "measurements.AB: no Measurement of AB"):
                verify_model(_state(), measurements, data, 1e-9)
            # a model is refused where it is built, not at its first verify
            with _raises(ValueError, "measurements.AB: no Measurement of AB"):
                NamedModel("m", _state(), measurements, None, "vessels", 1e-9)
        operators = {p: _matrix() for p in PAIR_ORDER if p is not SettingPair.A_PRIME_B}
        for entry in (None, _measurement(SettingPair.A_PRIME_B)):
            if entry is not None:
                operators[SettingPair.A_PRIME_B] = entry
            with _raises(ValueError, "operators.A'B: not a CMatrix"):
                NamedModel("m", _state(), None, operators, "animal-acts", 0.03)

    @pytest.mark.parametrize(
        "cells",
        [((0, 0), (0, 1), (1, 0), None), ((0, 0), (0, 1), (1, 0), "11"),
         ((0, 0), (0, 1), (1, 0), 1), ((0, 0), (0, 1), (1, 0), (1,)), None],
        ids=["none-cell", "text-cell", "int-cell", "short-cell", "none"],
    )
    def test_isomorphism_cells_that_do_not_convert_or_compare(self, cells):
        with pytest.raises(ValueError, match=r"^cells must be a bijection onto \{0,1\}\^2: "):
            Isomorphism("x", cells)

    @pytest.mark.parametrize(
        "state", [_state().vector, [1, 0, 0, 0], None], ids=["cvector", "list", "none"]
    )
    def test_basis_synthesis_needs_a_state_vector(self, state):
        with _raises(ValueError, f"state: expected a StateVector, got {state!r}"):
            basis_from_probabilities(state, (0.25,) * 4)

    @pytest.mark.parametrize(
        "model,fixture",
        [(vessels_model, vessels_data), (animal_acts_model, animal_acts_data)],
        ids=["measurements", "operators"],
    )
    def test_verify_needs_an_experiment(self, model, fixture):
        model, data = model(), fixture()
        message = f"data: expected an Experiment, got {data!r}"
        with _raises(ValueError, message):
            model.verify(data)
        with _raises(ValueError, message):
            Construction(model.state, model.measurements, model.operators).verify(
                data, model.tolerance
            )
        if model.measurements is not None:
            with _raises(ValueError, message):
                verify_model(model.state, model.measurements, data, model.tolerance)


def test_isomorphism_list_input_is_stored_as_a_tuple():
    from_list = Isomorphism("x", [(0, 0), (0, 1), (1, 0), (1, 1)])
    from_tuple = Isomorphism("x", ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert type(from_list.cells) is tuple


def test_isomorphism_list_cells_are_stored_as_tuples():
    cells = ((0, 0), (1, 1), (0, 1), (1, 0))
    from_lists = Isomorphism("x", [list(cell) for cell in cells])
    from_tuples = Isomorphism("x", cells)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.cells == cells and all(type(cell) is tuple for cell in from_lists.cells)
    for name in ("_det_indices", "_pairing", "_realignment"):
        assert getattr(from_lists, name) == getattr(from_tuples, name)


def test_vector_entries_keep_their_complex_conversion():
    assert CVector(["1", "0", "0", "0"]) == CVector([1, 0, 0, 0])
    rows = [["1", 0, 0, 0], [0, "1", 0, 0], [0, 0, "1", 0], [0, 0, 0, "1+0j"]]
    assert CMatrix(rows) == _matrix()


def test_measurement_list_input_is_stored_as_tuples():
    from_lists = Measurement(AB, list(CANONICAL_BASIS), [1, -1, -1, 1])
    from_tuples = Measurement(AB, CANONICAL_BASIS, (1.0, -1.0, -1.0, 1.0))
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    for name in ("final_states", "outcomes"):
        assert type(getattr(from_lists, name)) is tuple
    assert all(type(x) is float for x in from_lists.outcomes)
    assert from_lists.operator == from_tuples.operator
