"""The mutation check's own behaviour (`tests/mutations.py`)."""
import pytest

import mutations

# a quick test that passes on the unmutated code
QUICK = ("tests/test_rates.py::TestTargetExponent::test_alpha_one",)


@pytest.mark.parametrize("m", mutations.MUTATIONS, ids=lambda m: m.name)
def test_each_source_text_is_found_once(m):
    assert (mutations.ROOT / m.file).read_text().count(m.text) == 1
    assert m.replacement != m.text and m.tests


def test_a_no_op_mutation_survives():
    text = "def target_exponent("
    status, detail = mutations.run(mutations.Mutation("no-op", "src/supnorm/rates.py", text, text, QUICK))
    assert (status, detail) == ("survived", f"passed: {QUICK[0]}")


def test_a_missing_text_is_stale():
    status, _ = mutations.run(
        mutations.Mutation("missing", "src/supnorm/rates.py", "no such source text", "", QUICK)
    )
    assert status == "stale"


def test_an_unknown_test_is_an_error():
    status, _ = mutations.run(mutations.Mutation(
        "unknown-test", "src/supnorm/rates.py", "def target_exponent(", "def target_exponent(",
        ("tests/test_rates.py::no_such_test",),
    ))
    assert status == "error"
