"""Fuzz the admitted ``agent`` and ``exchange`` inputs.

Each field's values are drawn from its table entry in ``scenario`` and kept
only when the entry's check admits them: its domain and the float edges 0,
5e-324, 1e-300, 1, 1e300 and the largest float, rates near -1, and JSON
ints up to the largest float. An input that its ``normalize_*`` admits
either has no solution, which exits 3, or gives only finite cells.
"""

import math
import sys

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from popcoin_sim import ConfigError, InvariantViolation, NoEquilibriumError, scenario

INT_MAX = int(sys.float_info.max)
EDGES = (
    0.0,
    5e-324,
    1e-300,
    1.0,
    1e300,
    sys.float_info.max,
    INT_MAX,  # a JSON int that only just fits a float
    -1.0 + 2.0**-53,  # the rate nearest -1
    -0.999999,
)
NUMBERS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=INT_MAX),
)
FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def field_values(spec):
    """Values in the domain of one ``Field``: a block, a boolean, a number or a list."""
    if spec.block:
        return block(spec.block)
    if spec.check(True) is None:
        return st.booleans()
    if any(spec.check(edge) is None for edge in EDGES):
        return NUMBERS.filter(lambda value: spec.check(value) is None)
    return st.lists(NUMBERS.filter(lambda item: spec.check([item]) is None), min_size=1, max_size=3)


def block(fields):
    """Dicts over a field table: each required key, and any optional key or none."""
    required = {spec.key: field_values(spec) for spec in fields if spec.required}
    optional = {spec.key: field_values(spec) for spec in fields if not spec.required}
    return st.fixed_dictionaries(required, optional=optional)


# The problems of an agent input are walked by code, not by their table entry.
AGENT_INPUTS = st.fixed_dictionaries(
    {"problems": st.lists(block(scenario.PROBLEM_FIELDS), min_size=1, max_size=3)},
    optional={
        spec.key: field_values(spec) for spec in scenario.AGENT_FIELDS if spec.key != "problems"
    },
)
EXCHANGE_INPUTS = block(scenario.EXCHANGE_FIELDS)


def assert_finite_cells(files):
    for name, output in files.items():
        if name.endswith(".csv"):
            _, rows = output
            for row in rows:
                assert all(math.isfinite(float(cell)) for cell in row), (name, row)


@FUZZ
@given(doc=AGENT_INPUTS)
@example(doc={"problems": [{"basic_income": INT_MAX, "earned_income": INT_MAX}]})  # an int sum
def test_admitted_agent_inputs_have_finite_rows_or_no_equilibrium(doc):
    try:
        params = scenario.normalize_agent_input(doc)
    except ConfigError:
        assume(False)
    try:
        files = scenario.STUDY_FILES["agent"](params)
    except NoEquilibriumError:
        return
    assert_finite_cells(files)


@FUZZ
@given(doc=EXCHANGE_INPUTS)
# int levels whose products no float holds: in P * Y * L0, then L_p * Y_p
@example(doc={"scenario": {"sticky_price_fiat": INT_MAX, "income_fiat": INT_MAX}})
@example(doc={"scenario": {"sticky_price_pop": 1, "liquidity_pop": INT_MAX, "income_pop": INT_MAX}})
@example(
    doc={"scenario": {"sticky_price_pop": 1e-300, "liquidity_pop": 10**200, "income_pop": 10**200}}
)
def test_admitted_exchange_inputs_have_finite_rows_or_exit_3(doc):
    try:
        params = scenario.normalize_exchange_params(doc)
    except ConfigError:
        assume(False)
    try:
        files = scenario.STUDY_FILES["exchange"](params)
    except NoEquilibriumError:
        return
    except InvariantViolation as error:
        # admitted levels such as money_supply_pop 1.1 break the overshooting
        # ordering; any other invariant failure is a broken model
        assert str(error).startswith("overshooting ordering failed"), error
        return
    assert_finite_cells(files)
