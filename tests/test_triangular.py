"""The triangular slices are Young densities of their quantile maps.

`families.triangular_quantile(x)` is Q_x on (0, 1): sqrt(x u) on (0, x)
and 1 - sqrt((1-x)(1-u)) on (x, 1).  Its Young density is the closed-form
slice h_x of `conftest.triangular_density`, its distribution function is
y^2/x below x and 1 - (1-y)^2/(1-x) from x on, and its moments are those
of the triangular law on [0, 1] with mode x.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscym.domain import image_slack, validate
from oscym.families import triangular_quantile
from oscym.measures import integrate_test, unvalidated_young_measure, young_density_function

from conftest import triangular_density

# the rounding slack of an image end is 1e-12, absolute below 1
# (`domain.image_slack`), so for an x within a few slacks of 0 the falling
# piece's image reaches y = 0 and adds its slope there
MODES = st.floats(1e-9, 1.0 - 1e-10)
# 2 ulp of 1.0: the rounding scale of a value computed as 1 minus another
CDF_BOUND = 2 * math.ulp(1.0)


@pytest.mark.parametrize("k", range(5, 11))
def test_the_quantile_map_near_one_validates(k):
    # the falling piece is 1 - x long, so the step of its finite difference
    # is 1e-6 (1 - x), over which values near 1 round by 1e-16: noise that
    # the inverse derivative check must allow for
    assert validate(triangular_quantile(1.0 - 10.0 ** -k)).valid


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=MODES)
def test_the_quantile_map_validates_and_its_young_density_is_the_closed_form(x):
    f = triangular_quantile(x)
    assert validate(f).valid
    g = young_density_function(f)
    # a dyadic grid over K = [0, 2] with y = x and y = 1 on it; a value
    # within rounding slack of an image end counts as on it, so the grid
    # leaves out the other values in those bands
    ys = np.r_[np.arange(1025) / 512, x]
    slack = image_slack(*f.range_K)
    off = ((np.abs(ys - x) > slack) | (ys == x)) & ((np.abs(ys - 1.0) > slack) | (ys == 1.0))
    ys = ys[off]
    assert np.array_equal(g.evaluator(ys), triangular_density(x)(ys))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=MODES, u=st.floats(0.0, 1.0))
def test_the_distribution_function_is_the_closed_form(x, u):
    g = young_density_function(triangular_quantile(x))
    below = u * x
    assert g.cdf(np.array([below]))[0] == below * below / x
    above = x + u * (1.0 - x)
    assert abs(g.cdf(np.array([above]))[0]
               - (1.0 - (1.0 - above) ** 2 / (1.0 - x))) <= CDF_BOUND


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(x=MODES)
def test_test_functions_integrate_in_x_to_the_triangular_moments(x):
    m = unvalidated_young_measure(triangular_quantile(x))
    assert abs(integrate_test(m, lambda y: y) - (1.0 + x) / 3.0) <= 1e-14
    assert abs(integrate_test(m, lambda y: y * y) - (1.0 + x + x * x) / 6.0) <= 1e-14
