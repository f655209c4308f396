"""The README's library example runs and does what its comments say, and
the public surface is the one the README and the command line use."""

import math
import re
from pathlib import Path

import bellbox
from bellbox.linalg import quadratic_form
from bellbox.tables import SettingPair

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs_as_its_comments_say():
    names = {}
    exec(compile(_library_example(), str(README), "exec"), names)
    assert names["cls"] is bellbox.ZooClass.NONLOCAL_NON_MARGINAL_BOX_2
    assert names["result"].reference_combination == 4.0
    verdict = names["verdict"]
    assert verdict.passed
    assert max(verdict.residuals.values()) <= 1e-9
    assert abs(verdict.chsh_from_model - 4.0) <= 1e-12
    state = names["model"].state.vector
    e = {p: quadratic_form(names["operators"][p], state) for p in SettingPair}
    combination = (
        e[SettingPair.A_PRIME_B_PRIME] + e[SettingPair.A_PRIME_B]
        + e[SettingPair.AB_PRIME] - e[SettingPair.AB]
    )
    bell = quadratic_form(names["bell"], state)
    assert abs(bell - combination) <= 1e-12 and abs(bell - 4.0) <= 1e-12
    assert all(abs(s - math.sqrt(0.5)) <= 1e-12 for s in names["schmidt"])
    assert max(abs(p - t) for p, t in zip(names["probs"], (0.1, 0.2, 0.3, 0.4))) <= 1e-12


def test_public_names():
    # a change to the public surface is deliberate: it changes this list
    assert sorted(bellbox.__all__) == [
        "AmbiguousClassError", "BOUNDS", "Bounds", "CANONICAL_ISO", "CMatrix", "CVector",
        "ChshResult", "Experiment", "FactorizationVerdict", "Factors", "Fixture", "Isomorphism",
        "JointTable", "MarginalLawReport", "Measurement", "ModelVerdict", "NamedModel",
        "NegativeEntryError", "NotNormalizableError", "SWAPPED_ISO", "SettingPair",
        "StateVector", "TableError", "ZooClass", "animal_acts_data", "animal_acts_model",
        "apply", "basis_from_probabilities", "bell_operator", "born_probabilities", "chsh",
        "classify", "expectation_value", "factorization_test", "get_fixture", "get_model",
        "inner", "is_entangled_measurement", "is_product_operator", "is_product_vector",
        "marginal_law_report", "marginals", "normalize", "operator_from_measurement",
        "quadratic_form", "realign", "schmidt_coefficients", "verify_model",
        "vessels_alternative_model", "vessels_data", "vessels_model",
    ]
    assert all(hasattr(bellbox, name) for name in bellbox.__all__)
