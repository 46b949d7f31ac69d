import math

from hypothesis import example, given, settings, strategies as st

from roundedcounts.tableio import format_cell, parse_cell


def old_format_cell(value: float) -> str:
    """The float branch of format_cell as it was, testing all of ".eE"."""
    text = f"{value:.17g}"
    if not any(c in text for c in ".eE") and text not in ("inf", "-inf", "nan"):
        text += ".0"
    return text


# Integral values from 1e15 to 1e18, where .17g switches from plain digits to
# an exponent, with either sign.
integral = st.integers(10**15, 10**18).map(float).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), integral,
                 st.integers(-10**6, 10**6).map(float)))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1e16)
@example(1e17)
@example(12345678901234567.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
def test_float_cells_match_the_old_marker_rule(value):
    text = format_cell(value)
    assert text == old_format_cell(value)
    back = parse_cell(text)
    assert isinstance(back, float)
    assert back == value or (math.isnan(back) and math.isnan(value))
