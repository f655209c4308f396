"""One boundary table: each site that takes four numbers, each
entanglement kernel's ``iso``, and two products that overflow, against
hostile input.

A row names a site and an input, and expects either acceptance, with a
value equal to the one the site gives for the clean input, or an exact
exception type and message.  A site that refuses input that is not four
numbers raises one message, which names its field and shows the repr of
what it was given, or, when that repr cannot be made (an int of more than
4300 digits), the name of its type.  The rows that accept ``Decimal``,
``Fraction``, bool, ``array('d')``, generator and dict input pin what the
sites take today; they decide no policy.
"""

import math
from array import array
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest

from bellbox.hilbert import (
    Construction,
    Measurement,
    StateVector,
    is_entangled_measurement,
    is_product_operator,
    is_product_vector,
    realign,
    schmidt_coefficients,
)
from bellbox.linalg import CANONICAL_BASIS, CMatrix, CVector, apply
from bellbox.models import basis_from_probabilities
from bellbox.tables import PAIR_ORDER, NegativeEntryError, SettingPair, TableError, normalize

OK = "accepted"
NO = "refused as not four numbers"
TOO_LARGE = "refused as not four numbers, with a repr too large to print"

#: an int whose repr raises ValueError (more than 4300 digits)
HUGE = 10**5000

E0 = CANONICAL_BASIS[0]
IDENTITY = CMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])

#: ``argument`` makes the site's argument from an input, ``call`` calls the
#: site with it, and a refusal of input that is not four numbers raises
#: ``error`` with ``prefix`` followed by the argument's repr (or, for
#: :data:`TOO_LARGE`, ``<T too large to print>`` with T its type's name).
Site = namedtuple("Site", "argument call error prefix")


def _as_first_row(row):
    return [row, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def _same(x):
    return x


_ISO = "iso: expected an Isomorphism, got "

SITES = {
    "CVector": Site(_same, CVector, ValueError, "amplitudes: expected 4 finite numbers, got "),
    "StateVector.of": Site(
        _same, StateVector.of, ValueError, "amplitudes: expected 4 finite numbers, got "
    ),
    "CMatrix-row": Site(
        _as_first_row, CMatrix, ValueError, "rows: expected 4 rows of 4 finite numbers, got "
    ),
    "CMatrix": Site(_same, CMatrix, ValueError, "rows: expected 4 rows of 4 finite numbers, got "),
    "normalize": Site(_same, normalize, TableError, "values: expected 4 probabilities, got "),
    "outcomes": Site(
        _same,
        lambda outcomes: Measurement(SettingPair.AB, CANONICAL_BASIS, outcomes),
        ValueError,
        "outcomes must be 4 finite real numbers, got ",
    ),
    "targets": Site(
        _same,
        lambda targets: basis_from_probabilities(StateVector(E0), targets),
        ValueError,
        "targets: expected 4 finite real numbers, got ",
    ),
    "is_product_vector": Site(_same, lambda iso: is_product_vector(E0, iso), ValueError, _ISO),
    "schmidt_coefficients": Site(
        _same, lambda iso: schmidt_coefficients(E0, iso), ValueError, _ISO
    ),
    "is_entangled_measurement": Site(
        _same,
        lambda iso: is_entangled_measurement(Measurement(SettingPair.AB, CANONICAL_BASIS), iso),
        ValueError,
        _ISO,
    ),
    "is_product_operator": Site(
        _same, lambda iso: is_product_operator(IDENTITY, iso), ValueError, _ISO
    ),
    "realign": Site(_same, lambda iso: realign(IDENTITY, iso), ValueError, _ISO),
    "apply": Site(_same, lambda m: apply(m, CVector([1e308, 0, 0, 0])), ValueError, None),
    "Construction-operators": Site(
        _same,
        lambda m: Construction(StateVector.of([0.5] * 4), None, dict.fromkeys(PAIR_ORDER, m)),
        ValueError,
        None,
    ),
}

#: The sites every input of :data:`GRID` goes to, in the order of its columns.
GRID_SITES = ("CVector", "StateVector.of", "CMatrix-row", "normalize", "outcomes", "targets")

#: The clean input whose value an accepted input must give, unless
#: :data:`CLEAN` names another.
CLEAN_INPUT = (1, 0, 0, 0)
CLEAN = {"negative": (-0.5, 0.5, 0.5, 0.5), "dict": (0.5, 0.375, 0.125, 0.0)}

# A generator is consumed by one call, so its row holds a function that
# makes a fresh one.
GRID = [
    # id, input, then the expectation at each of GRID_SITES
    ("str", "1000", NO, NO, NO, NO, NO, NO),
    ("bytes", b"1000", NO, NO, NO, NO, NO, NO),
    ("bytearray", bytearray(b"1000"), NO, NO, NO, NO, NO, NO),
    ("memoryview", memoryview(b"1000"), NO, NO, NO, NO, NO, NO),
    ("int", 5, NO, NO, NO, NO, NO, NO),
    ("none", None, NO, NO, NO, NO, NO, NO),
    ("none-entries", [None] * 4, NO, NO, NO, NO, NO, NO),
    ("a-entry", ["a", "0", "0", "1"], NO, NO, NO, NO, NO, NO),
    ("str-entries", ("1", "0", "0", "0"), OK, OK, OK, OK, NO, NO),
    ("bytes-entry", (b"1", 0, 0, 0), NO, NO, NO, OK, NO, NO),
    ("bytearray-entry", (bytearray(b"1"), 0, 0, 0), NO, NO, NO, OK, NO, NO),
    ("memoryview-entry", (memoryview(b"1"), 0, 0, 0), NO, NO, NO, OK, NO, NO),
    ("three", [1, 0, 0], NO, NO, NO, NO, NO, NO),
    ("five", (1, 0, 0, 0, 0), NO, NO, NO, NO, NO, NO),
    ("five-with-text", (1, 0, 0, 0, "x"), NO, NO, NO, NO, NO, NO),
    ("nan", [1, 0, 0, math.nan], NO, NO, NO,
     (TableError, "entry A2B2 = nan is not finite"), NO, NO),
    ("inf", [1, 0, 0, math.inf], NO, NO, NO,
     (TableError, "entry A2B2 = inf is not finite"), NO, NO),
    ("negative", [-0.5, 0.5, 0.5, 0.5], OK, OK, OK,
     (NegativeEntryError, "entry A1B1 = -0.5 is negative"), OK,
     (ValueError, "target probabilities must be nonnegative: (-0.5, 0.5, 0.5, 0.5)")),
    ("complex", (1 + 0j, 0, 0, 0), OK, OK, OK, NO, NO, NO),
    ("nested", ((1,), (0,), (0,), (0,)), NO, NO, NO, NO, NO, NO),
    ("signaling-nan", (Decimal("sNaN"), 0, 0, 0), NO, NO, NO, NO, NO, NO),
    ("int-overflow", (10**400, 0, 0, 0), NO, NO, NO, NO, NO, NO),
    ("int-huge", (HUGE, 0, 0, 0), *[TOO_LARGE] * 6),
    ("generator", lambda: (x for x in (1, 0, 0, 0)), OK, OK, OK, OK, OK, OK),
    ("decimal", tuple(map(Decimal, (1, 0, 0, 0))), OK, OK, OK, OK, OK, OK),
    ("fraction", tuple(map(Fraction, (1, 0, 0, 0))), OK, OK, OK, OK, OK, OK),
    ("bool", (True, False, False, False), OK, OK, OK, OK, OK, OK),
    ("array", array("d", (1, 0, 0, 0)), OK, OK, OK, OK, OK, OK),
    ("dict", dict.fromkeys((0.5, 0.375, 0.125, 0.0)), OK,
     (ValueError, "state norm 0.6373774391990981 is not 1 within 1e-09"), OK, OK, OK, OK),
]

#: the message of a product whose four amplitudes overflow
_INF_AMPLITUDES = (
    "amplitudes: expected 4 finite numbers, got [(inf+0j), (inf+0j), (inf+0j), (inf+0j)]"
)

#: one object, so that the refused rows and the message show the same repr
_MEMORYVIEW_ROW = memoryview(b"0100")

# Inputs of one site each: whole matrices, and text and counts the grid
# spells another way.
ROWS = [
    ("CMatrix", "three-rows", [[1, 0, 0, 0]] * 3, NO),
    ("CMatrix", "rows-of-three", [[1, 0, 0]] * 4, NO),
    ("CMatrix", "inf-entries", [[1, 0, 0, math.inf]] * 4, NO),
    ("CMatrix", "str-rows", ["1000", "0100", "0010", "0001"], NO),
    ("CMatrix", "bytes-row", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], b"0001"], NO),
    ("CMatrix", "bytearray-rows", [bytearray(b"1000")] * 4, NO),
    ("CMatrix", "memoryview-row", [[1, 0, 0, 0], _MEMORYVIEW_ROW] * 2, NO),
    ("CMatrix", "str", "1234", NO),
    ("CMatrix", "bytes", b"1234", NO),
    ("CMatrix", "bytearray", bytearray(b"1234"), NO),
    ("CMatrix", "memoryview", memoryview(b"1234"), NO),
    ("CMatrix", "int-rows", [1, 2, 3, 4], NO),
    ("CMatrix", "int", 5, NO),
    ("CMatrix", "none-entries", [[None] * 4] * 4, NO),
    ("CMatrix", "identity-lists", [[1 if i == j else 0 for j in range(4)] for i in range(4)],
     (OK, _as_first_row(CLEAN_INPUT))),
    ("normalize", "bytes-0001", b"\x01\0\0\0", NO),
    ("normalize", "bytearray-0100", bytearray(b"\0\x01\0\0"), NO),
    ("targets", "two", (0.5, 0.5), NO),
    ("targets", "nan-first", (math.nan, 0.5, 0.25, 0.25), NO),
    ("targets", "str-tenths", ("0.1", "0.2", "0.3", "0.4"), NO),
    ("targets", "bytes-entry-tenths", (0.1, 0.2, b"0.3", 0.4), NO),
    ("targets", "bytearray-0001", bytearray(b"\x01\x00\x00\x00"), NO),
    ("targets", "memoryview-0001", memoryview(b"\x01\x00\x00\x00"), NO),
    ("targets", "bytearray-entries", (bytearray(b"0.25"),) * 4, NO),
    ("targets", "memoryview-entry", (0.25, 0.25, memoryview(b"0.25"), 0.25), NO),
    ("targets", "fraction-overflow", (Fraction(10**400), 0, 0, 0), NO),
    ("targets", "fraction-huge", (Fraction(HUGE), 0, 0, 0), TOO_LARGE),
    # a product that overflows shows the amplitudes it computed; an operator
    # construction computes its predictions, and so overflows, when it is built
    ("apply", "overflow", CMatrix([[1e308] * 4] * 4), (ValueError, _INF_AMPLITUDES)),
    ("Construction-operators", "overflow", CMatrix([[1e308] * 4] * 4),
     (ValueError, _INF_AMPLITUDES)),
]

ROWS += [
    (kernel, input_id, iso, NO)
    for kernel in (
        "is_product_vector", "schmidt_coefficients", "is_entangled_measurement",
        "is_product_operator", "realign",
    )
    for input_id, iso in (
        ("str", "swapped"), ("none", None), ("cells", ((0, 0), (0, 1), (1, 0), (1, 1)))
    )
]


def _cases():
    for input_id, given, *expected in GRID:
        clean = CLEAN.get(input_id, CLEAN_INPUT)
        for site, expectation in zip(GRID_SITES, expected):
            if expectation == OK:
                expectation = (OK, clean)
            yield pytest.param(site, given, expectation, id=f"{site}-{input_id}")
    for site, input_id, given, expectation in ROWS:
        yield pytest.param(site, given, expectation, id=f"{site}-{input_id}")


@pytest.mark.parametrize("site,given,expected", list(_cases()))
def test_boundary(site, given, expected):
    argument, call, error, prefix = SITES[site]
    value = argument(given() if callable(given) else given)
    if expected == NO:
        expected = (error, prefix + repr(value))
    elif expected == TOO_LARGE:
        expected = (error, f"{prefix}<{type(value).__name__} too large to print>")
    if expected[0] == OK:
        assert call(value) == call(argument(expected[1]))
        return
    error, message = expected
    with pytest.raises(Exception) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message
