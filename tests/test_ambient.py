import re

import numpy as np
import pytest

from framelab import ambient, finite_diff
from framelab.ambient import (
    AmbientError,
    AmbientSpace,
    christoffel_jets,
    curvature_at,
    curvature_jets,
    euclidean,
    metric_at,
    sphere_chart,
)
from framelab.expr import DomainError, eval_expr
from framelab.jets import get_space, jpow_int, jstack
from framelab.submanifold import ImmersedSubmanifold


def christoffels(N, x):
    return christoffel_jets(N.metric_jets(x, 1)).val


def test_euclidean_is_flat():
    N = euclidean(3)
    x = [0.3, -1.0, 2.0]
    assert np.array_equal(metric_at(N, x), np.eye(3))
    assert np.max(np.abs(christoffels(N, x))) == 0.0
    assert np.max(np.abs(curvature_at(N, x).components)) == 0.0


def test_curvature_at_is_the_curvature_jet_of_the_metric():
    """curvature_at reads R off geometry_jets at order 2, bitwise the value
    of the metric -> Christoffel -> curvature chain, and hands out a copy
    that a caller may change without changing the next reading."""
    rng = np.random.default_rng(11)
    for N in (sphere_chart(1.3, 3), euclidean(2)):
        for _ in range(5):
            x = rng.uniform(-1, 1, N.dim)
            chain = curvature_jets(christoffel_jets(N.metric_jets(x, 2))).val
            got = curvature_at(N, x).components
            assert np.array_equal(got, chain)
            got += 1.0
            assert np.array_equal(curvature_at(N, x).components, chain)


def test_sphere_chart_metric_values():
    S = sphere_chart(1.0, 3)
    assert np.allclose(metric_at(S, [0, 0, 0]), 4 * np.eye(3), atol=1e-14)
    # at |x| = 1 the conformal factor is 1
    assert np.allclose(metric_at(S, [1.0, 0, 0]), np.eye(3), atol=1e-14)
    assert np.max(np.abs(christoffels(S, [0, 0, 0]))) < 1e-14


def test_christoffel_symmetric_lower_indices():
    S = sphere_chart(1.7, 4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        Gam = christoffels(S, x)
        assert np.max(np.abs(Gam - Gam.transpose(0, 2, 1))) < 1e-14


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0])
def test_sphere_radius_must_be_positive_and_finite(radius):
    """A NaN or infinite radius is refused before it is written into the
    metric's expression text, where it would not parse."""
    with pytest.raises(AmbientError, match="sphere radius must be positive and finite"):
        sphere_chart(radius, 3)


@pytest.mark.parametrize("radius", [1.0, 2.0, 0.5])
def test_sphere_sectional_curvature(radius):
    S = sphere_chart(radius, 3)
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.uniform(-1.2, 1.2, 3)
        G = metric_at(S, x)
        C = curvature_at(S, x)
        X = rng.standard_normal(3)
        Y = rng.standard_normal(3)
        num = C.apply(X, Y, Y) @ G @ X
        den = (X @ G @ X) * (Y @ G @ Y) - (X @ G @ Y) ** 2
        assert abs(num / den - 1 / radius**2) < 1e-8


def test_space_form_identity():
    kappa = 1 / 2.0**2
    S = sphere_chart(2.0, 3)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 3)
        G = metric_at(S, x)
        X, Y, Z = rng.standard_normal((3, 3))
        lhs = curvature_at(S, x).apply(X, Y, Z)
        rhs = kappa * ((Y @ G @ Z) * X - (X @ G @ Z) * Y)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_curvature_symmetries_and_bianchi():
    rng = np.random.default_rng(3)
    for N in (sphere_chart(1.0, 3), sphere_chart(2.0, 4), euclidean(3)):
        for _ in range(10):
            x = rng.uniform(-1, 1, N.dim)
            G = metric_at(N, x)
            R = curvature_at(N, x).components
            # lower the first index: R_{ijkl} = g_{im} R^m_{jkl}
            Rl = np.einsum("im,mjkl->ijkl", G, R)
            assert np.max(np.abs(Rl + Rl.transpose(0, 1, 3, 2))) < 1e-9  # antisym (X,Y)
            assert np.max(np.abs(Rl + Rl.transpose(1, 0, 2, 3))) < 1e-9  # antisym (Z,W)
            bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
            assert np.max(np.abs(bianchi)) < 1e-9


def test_christoffel_against_fd_of_metric():
    rng = np.random.default_rng(17)
    for N in (sphere_chart(1.0, 3), sphere_chart(0.8, 2)):
        x = rng.uniform(-1, 1, (100, N.dim))
        fd = finite_diff.christoffels(lambda X: metric_at(N, X), x, 1e-4)
        assert np.max(np.abs(christoffels(N, x) - fd)) < 1e-6


def test_non_positive_definite_rejected():
    bad = AmbientSpace(2, [["x1", "0"], ["0", "1"]])
    with pytest.raises(AmbientError, match="positive definite"):
        metric_at(bad, [-1.0, 0.0])


def test_batch_names_its_first_bad_point():
    bad = AmbientSpace(2, [["x1", "0"], ["0", "1"]])
    points = np.array([[1.0, 0.0], [2.0, 0.5], [-1.0, 3.0]])
    with pytest.raises(AmbientError, match=r"positive definite at \[-1\.0, 3\.0\]"):
        bad.metric_jets(points, 2)


@pytest.mark.parametrize("x", [[0.3, -0.2, 0.5], [[0.3, -0.2, 0.5], [1.0, 0.4, -0.7]]], ids=["point", "batch"])
@pytest.mark.parametrize("N", [sphere_chart(1.0, 3), euclidean(3)], ids=["sphere", "euclidean"])
def test_metric_jets_evaluates_each_distinct_entry_once(N, x, monkeypatch):
    """Both metrics have two distinct entries (the diagonal and 0). The
    sphere's are evaluated once each per call; euclidean(3)'s are constants,
    evaluated once when the metric is made, so a call evaluates none. Either
    metric is bitwise equal to one evaluation per entry."""
    x = np.asarray(x)
    space = get_space(3, 2)
    varjets = space.variables(x)
    rows = [jstack([eval_expr(e, varjets, space) for e in row], axis=-1) for row in N.entries]
    want = jstack(rows, axis=-2) * np.ones(x.shape[:-1] + (1, 1))
    calls = []

    def counting(*args):
        calls.append(args[0])
        return eval_expr(*args)

    monkeypatch.setattr(ambient, "eval_expr", counting)
    G = N.metric_jets(x, 2)
    assert len(calls) == (0 if N.tag == "euclidean" else 2)
    assert G.coeffs.shape == want.coeffs.shape and np.array_equal(G.coeffs, want.coeffs)


def test_a_constant_metric_is_tested_once_when_made(monkeypatch):
    """A constant metric's finiteness and positive definiteness are decided
    when it is made: a metric_jets call factors no matrix for it, while a
    metric that reads its point factors one per call."""
    flat, sphere = euclidean(3), sphere_chart(1.0, 3)
    cholesky = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda g: calls.append(g.shape) or cholesky(g))
    points = np.array([[0.3, -0.2, 0.5], [1.0, 0.4, -0.7]])
    for order in range(3):
        flat.metric_jets(points, order)
    assert calls == []
    sphere.metric_jets(points, 1)
    assert calls == [(2, 3, 3)]


def test_the_sphere_metric_shares_its_radius_term(monkeypatch):
    """sphere_chart's diagonal entry holds 1.0^2 twice; evaluated once per
    call, with x1^2, x2^2, x3^2 and the outer square: five powers."""
    N = sphere_chart(1.0, 3)
    calls = []
    monkeypatch.setattr("framelab.expr.jpow_int", lambda a, n: calls.append(n) or jpow_int(a, n))
    N.metric_jets([0.3, -0.2, 0.5], 2)
    assert len(calls) == 5


def test_non_finite_metric_rejected():
    steep = AmbientSpace(2, [["exp(x1)", "0"], ["0", "1"]])
    with pytest.raises(AmbientError, match=r"not finite at \[800\.0, 0\.0\]"):
        metric_at(steep, [800.0, 0.0])


def test_constant_metric_is_decided_when_the_metric_is_made():
    assert np.array_equal(euclidean(3).constant_metric, np.eye(3))
    assert sphere_chart(1.0, 3).constant_metric is None
    assert AmbientSpace(2, [["1", "x2-x2"], ["x2-x2", "1"]]).constant_metric is None
    grid = AmbientSpace(2, [["2*pi", "sqrt(2)"], ["sqrt(2)", "exp(1)"]])
    assert np.array_equal(grid.constant_metric, [[2 * np.pi, np.sqrt(2)], [np.sqrt(2), np.exp(1)]])


def test_constant_entry_outside_its_domain_is_refused_per_call():
    """A constant entry that cannot be evaluated leaves the metric to the
    per-call evaluation, which names the point asked for."""
    N = AmbientSpace(2, [["1/0", "0"], ["0", "1"]])
    assert N.constant_metric is None
    with pytest.raises(DomainError, match=r"division by zero at \[0\.5, 2\.0\]"):
        metric_at(N, [[0.5, 2.0], [1.0, 1.0]])


# Constant grids that no point can take, and the refusal each raises.
BAD_CONSTANT_GRIDS = {
    "overflow": ([["1e400", "0"], ["0", "1"]], "metric not finite"),
    "indefinite": ([["1", "0"], ["0", "-1"]], "metric not positive definite"),
    "not-definite": ([["1", "2"], ["2", "1"]], "metric not positive definite"),
}


@pytest.mark.parametrize("case", BAD_CONSTANT_GRIDS)
def test_constant_metric_refused_at_the_first_point(case):
    """A constant metric that is not finite or not positive definite is
    refused as any metric is, naming the first point asked for: by
    metric_at on a batch, by metric_jets at every order, and when a
    submanifold in it is made (its pivots are chosen on the metric) or
    framed."""
    grid, message = BAD_CONSTANT_GRIDS[case]
    N = AmbientSpace(2, grid)
    assert N.constant_metric is not None
    points = np.array([[0.5, -1.0], [2.0, 0.25], [-1.0, 3.0]])
    with pytest.raises(AmbientError, match=rf"^{message} at \[0\.5, -1\.0\]$"):
        metric_at(N, points)
    for order in range(4):
        with pytest.raises(AmbientError, match=rf"^{message} at \[0\.5, -1\.0\]$"):
            N.metric_jets(points, order)
    with pytest.raises(AmbientError, match=rf"^{message} at \[0\.0, 0\.0\]$"):
        ImmersedSubmanifold(1, [[-1.0, 1.0]], ["u1", "0"], N)
    # a frame reads the metric at its own points: swap in the bad metric
    # after the pivots are chosen
    M = ImmersedSubmanifold(1, [[-1.0, 1.0]], ["u1", "0"], euclidean(2))
    M.ambient = N
    with pytest.raises(AmbientError, match=rf"^{message} at \[0\.25, 0\.0\]$"):
        M.frame_data([[0.25], [0.5]])


@pytest.mark.parametrize("order", [-1, 1.5, True, "2"])
def test_metric_jets_order_must_be_an_integer_0_or_more(order):
    with pytest.raises(AmbientError, match=rf"^metric jets need an integer order 0 or more, got {re.escape(repr(order))}$"):
        euclidean(3).metric_jets([0.1, 0.2, 0.3], order)
    with pytest.raises(AmbientError, match="integer order 0 or more"):
        sphere_chart(1.0, 3).metric_jets([0.1, 0.2, 0.3], order)


def test_asymmetric_grid_rejected():
    with pytest.raises(AmbientError, match="differ"):
        AmbientSpace(2, [["1", "x1"], ["x2", "1"]])


def test_dimension_bounds():
    with pytest.raises(AmbientError):
        euclidean(1)
    with pytest.raises(AmbientError):
        euclidean(10)


@pytest.mark.parametrize("dim", [1, 10, 3.0, True, "3"])
def test_a_dimension_that_is_not_an_integer_2_to_9_is_refused(dim):
    with pytest.raises(AmbientError, match=rf"^ambient dimension must be an integer 2..9, got {re.escape(repr(dim))}$"):
        AmbientSpace(dim, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_string_entries_are_parsed_as_expressions():
    """A string entry is parsed in x1..x_d, so a grid of strings makes the
    same metric as one of their expressions."""
    from_text = AmbientSpace(3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "exp(x1)"]])
    parsed = AmbientSpace(3, from_text.entries)
    x = [0.3, -0.2, 0.5]
    assert np.array_equal(metric_at(from_text, x), metric_at(parsed, x))
    assert metric_at(from_text, x)[2, 2] == np.exp(0.3)


@pytest.mark.parametrize("bad", [1, 1.0, None])
def test_an_entry_that_is_not_an_expression_or_a_string_is_refused(bad):
    with pytest.raises(AmbientError, match=rf"^metric entry \(2,3\) is {re.escape(repr(bad))}, not an expression or a string$"):
        AmbientSpace(3, [["1", "0", "0"], ["0", "1", bad], ["0", bad, "1"]])
