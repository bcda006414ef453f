"""Initial split-state specifications."""

import pytest

from conftest import load
from hyperflow.initspec import (
    InitSpecError,
    expand_init_spec,
    parse_init_spec,
    product_delta,
)
from hyperflow.lang import desugar, project_view
from hyperflow.probcore import FiniteDist, vnum, vsym
from hyperflow.semantics import Scope


def threebox_scope():
    return Scope.of_module(desugar(load("threebox_S")))


def test_point_and_uniform():
    scope = threebox_scope()
    spec = parse_init_spec("v=bot; h~uniform", scope)
    (s,) = expand_init_spec(spec, scope)
    assert s.v == (vsym("bot"),)
    assert s.delta == FiniteDist.uniform([(vnum(k),) for k in range(3)])


def test_explicit_prior():
    scope = threebox_scope()
    spec = parse_init_spec("v=b; h~{0@1/2, 2@1/2}", scope)
    (s,) = expand_init_spec(spec, scope)
    assert s.delta == FiniteDist.uniform([(vnum(0),), (vnum(2),)])


def test_point_prior_via_tilde():
    scope = threebox_scope()
    spec = parse_init_spec("v=w; h~2", scope)
    (s,) = expand_init_spec(spec, scope)
    assert s.delta == FiniteDist.point((vnum(2),))


def test_sampling_is_seeded_and_full_support():
    scope = threebox_scope()
    spec = parse_init_spec("v=bot; h~sample:5", scope)
    a = expand_init_spec(spec, scope, seed=3)
    b = expand_init_spec(spec, scope, seed=3)
    c = expand_init_spec(spec, scope, seed=4)
    assert a == b and a != c and len(a) == 5
    assert all(len(s.delta) == 3 and s.delta.is_full for s in a)


def test_every_variable_must_be_covered():
    scope = threebox_scope()
    with pytest.raises(InitSpecError):
        parse_init_spec("v=bot", scope)
    with pytest.raises(InitSpecError):
        parse_init_spec("h~uniform", scope)


@pytest.mark.parametrize("text", ["v=bot; v=w; h~uniform", "v=bot; h~uniform; h~1", "v=bot; h~1; h ~ 1"])
def test_a_variable_given_twice_is_refused(text):
    # the later clause must not silently replace the earlier one
    with pytest.raises(InitSpecError, match=r"\b[vh] is given more than once"):
        parse_init_spec(text, threebox_scope())


def test_value_outside_domain_rejected():
    scope = threebox_scope()
    with pytest.raises(InitSpecError):
        parse_init_spec("v=bot; h~7", scope)


def test_explicit_prior_must_be_full():
    scope = threebox_scope()
    with pytest.raises(InitSpecError):
        parse_init_spec("v=bot; h~{0@1/2}", scope)


def test_multi_hidden_product_prior():
    scope = Scope.of_module(desugar(project_view(load("three_judges_spec"), "A")))
    spec = parse_init_spec("a=true; b~uniform; c~{true@1/4, false@3/4}", scope)
    (s,) = expand_init_spec(spec, scope)
    assert s.v == (s.v[0],)
    assert s.delta.weight == 1 and len(s.delta) == 4


def test_product_delta_orders_components():
    d1 = FiniteDist.uniform([vnum(0), vnum(1)])
    d2 = FiniteDist.point(vnum(9))
    joint = product_delta([d1, d2])
    assert joint == FiniteDist.uniform([(vnum(0), vnum(9)), (vnum(1), vnum(9))])
