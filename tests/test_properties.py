"""Seeded property tests: the fidelity sandwich on random states of every rank."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sepscope.criteria import fidelity_optimize, full_report
from sepscope.linalg import TraceClassOperator
from sepscope.realign import ccn_value
from sepscope.states import random_density_matrix

# derandomized, so every run draws the same examples, and no example database
_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def _states(draw):
    """A random d x d state, d = 1-5, of any rank from 1 to d^2."""
    d = draw(st.integers(1, 5))
    rank = draw(st.integers(1, d * d))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_density_matrix(d, d, rank=rank, rng=np.random.default_rng(seed))


@_SETTINGS
@given(_states())
def test_reported_fidelity_lies_in_its_sandwich(rho):
    report = full_report(rho, restarts=4)
    assert report.fidelity_lower <= report.fidelity_best <= report.fidelity_upper


@_SETTINGS
@given(_states())
def test_optimized_fidelity_never_exceeds_its_upper_bound(rho):
    # rounding lifts the ascent's value of a pure state just past tau/d
    assert fidelity_optimize(rho, restarts=4).value <= ccn_value(rho) / rho.dim


@_SETTINGS
@given(_states())
def test_relaxed_fidelity_never_exceeds_its_upper_bound(rho):
    # the same bound for the state read as a trace-class operator, whose
    # relaxed ascent at a pure state (pure:a=1) rounds just past tau/d
    op = TraceClassOperator(rho.dim, rho.dim, rho.mat)
    assert fidelity_optimize(op, restarts=4).value <= ccn_value(op) / rho.dim
