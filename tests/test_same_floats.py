"""The same floats on every supported Python, pinned by a committed fixture.

From Python 3.12 on, the builtin ``sum`` of floats is compensated, so a
library sum written with it would give other last bits there than on 3.10
and 3.11.  bellbox adds left to right from 0.0 instead.  This module
computes seeded ``normalize`` rescalings, CHSH values,
``basis_from_probabilities`` final states and the ``chsh_from_model`` of
synthesized and vessel models, and compares their ``float.hex``
forms with ``float_fixture.json``, which was written on Python 3.11.  It
uses the standard library only, so it runs wherever bellbox does.

Regenerate the fixture (only on purpose, and only on 3.10 or 3.11) with::

    PYTHONPATH=src python tests/test_same_floats.py --write
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from bellbox.bell import chsh
from bellbox.hilbert import StateVector, verify_model
from bellbox.models import basis_from_probabilities, vessels_alternative_model, vessels_model
from bellbox.tables import EXACT_TOL, PAIR_ORDER, Experiment, normalize

FIXTURE = Path(__file__).with_name("float_fixture.json")


def _row(rng: random.Random) -> list[float]:
    """Four weights whose sum misses 1 by up to 0.009; every other row is
    rounded to three decimals, as quoted data are."""
    raw = [rng.random() + 1e-3 for _ in range(4)]
    scale = (1.0 + rng.uniform(-0.009, 0.009)) / math.fsum(raw)
    row = [v * scale for v in raw]
    return [round(v, 3) for v in row] if rng.random() < 0.5 else row


def _unit_state(rng: random.Random) -> StateVector:
    return StateVector.of([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)], True)


def _hex_complex(z: complex) -> list[str]:
    return [z.real.hex(), z.imag.hex()]


def compute() -> dict[str, list]:
    rng = random.Random("same-floats/normalize")
    rescaled = [[v.hex() for v in normalize(_row(rng)).values] for _ in range(100)]

    rng = random.Random("same-floats/chsh")
    chsh_values = []
    for _ in range(40):
        result = chsh(Experiment([normalize(_row(rng), pair) for pair in PAIR_ORDER]))
        chsh_values.append(
            [result.reference_combination.hex(), result.max_abs_over_variants.hex()]
            + [result.expectations[pair].hex() for pair in PAIR_ORDER]
        )

    rng = random.Random("same-floats/bases")
    final_states = []
    for _ in range(20):
        state = _unit_state(rng)
        targets = normalize([rng.random() for _ in range(4)], tol=math.inf).values
        basis = basis_from_probabilities(state, targets)
        final_states.append([_hex_complex(z) for f in basis.final_states for z in f])

    # one synthesized model, then vessels and vessels-alt at one pair of phases
    rng = random.Random("same-floats/chsh_from_model")
    bell_values = []
    for _ in range(20):
        state = _unit_state(rng)
        data = Experiment(
            [normalize([rng.random() for _ in range(4)], pair, tol=math.inf) for pair in PAIR_ORDER]
        )
        measurements = {
            pair: basis_from_probabilities(state, data.table(pair).values, pair)
            for pair in PAIR_ORDER
        }
        synthesized = verify_model(state, measurements, data, EXACT_TOL)
        alpha, beta = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        bell_values.append(
            [synthesized.chsh_from_model.hex()]
            + [build(alpha, beta).verify().chsh_from_model.hex()
               for build in (vessels_model, vessels_alternative_model)]
        )
    return {
        "normalize": rescaled,
        "chsh": chsh_values,
        "basis_from_probabilities": final_states,
        "chsh_from_model": bell_values,
    }


def test_floats_match_the_fixture():
    expected = json.loads(FIXTURE.read_text())
    actual = compute()
    for key in expected:
        mismatches = [i for i, (a, e) in enumerate(zip(actual[key], expected[key])) if a != e]
        assert len(actual[key]) == len(expected[key]) and not mismatches, (key, mismatches[:5])


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        rows = [
            f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(row) for row in value) + "\n]"
            for key, value in compute().items()
        ]
        FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    else:
        ok = json.loads(FIXTURE.read_text()) == compute()
        print("fixture matches" if ok else "fixture differs")
        sys.exit(0 if ok else 1)
