"""The registry as a Tier-1 gate.

test_registry_case_holds is the Tier-1 home of every identity that
verify.REGISTRY states: each case must run, on every default builtin it
applies to, and hold at roundoff. The per-module tests keep closed-form
values, error paths, the pointwise wrappers' conversions and the routes the
registry does not take.
"""

import numpy as np
import pytest

from framelab import verify
from framelab.ambient import euclidean, sphere_chart
from framelab.omn_geometry import domain_samples
from framelab.submanifold import ImmersedSubmanifold, builtin_submanifold

# Cases whose witness on the Clifford torus stays below WITNESS_FLOOR. The
# torus is flat with constant P, so the quantities these cases need to be
# nonzero vanish there. Each is reported as a failing "vacuous" row; the
# list is exact, so both a new failure and a fixed witness change it.
VACUOUS_ON_CLIFFORD = (
    "deformed-connection-via-leibniz",
    "gil-medrano-pairing",
    "q-operator-deformed-skewness",
    "sectional-horizontal-vs-curvature",
    "sectional-mixed-vs-curvature",
    "mixed-vertical-sectional-nonnegative",
    "christoffel-jets-vs-fd",
)

# Bound on the rows of every case but the finite-difference one (largest seen: 3.6e-15).
EXACT_TOL = 1e-12

# Largest relative error accepted from fd_relative_error: 100 h^2 for the
# oracle's default central-difference step h (1e-4 for quantities of first
# derivatives of the metric, 1e-3 for curvatures). The benchmark's fd_check
# workload (perfbench/workload.py, FD_TOL) accepts the same.
FD_TOL = {
    "gamma_chart": 1e-6,
    "gamma_tilde": 1e-6,
    "nabla_vec": 1e-6,
    "nabla_prime_vec": 1e-6,
    "nabla_tilde_vec": 1e-6,
    "curvature_ambient": 1e-4,
    "curvature_prime": 1e-4,
}

# A 4-dimensional graph, so the oracles' default fields need more than 3 components.
GRAPH4 = ["u1", "u2", "u3", "u4", "0.1*u1*u1+0.2*u2*u3"]
GRAPH4_AMBIENTS = {"graph4-euclidean(5)": euclidean(5), "graph4-sphere(2)": sphere_chart(2.0, 5)}


@pytest.fixture(scope="module")
def report():
    return verify.run_suite(builtins=verify.DEFAULT_BUILTINS, samples=5)


def test_every_row_completes(report):
    crashed = [(r.case_id, r.builtin, r.point, r.error) for r in report.results if r.residual is None]
    assert crashed == []


@pytest.mark.parametrize("case", verify.REGISTRY, ids=verify.registry_ids())
def test_registry_case_holds(report, case):
    rows = [r for r in report.results if r.case_id == case.id]
    assert {r.builtin for r in rows} == {b for b in verify.DEFAULT_BUILTINS if case.applies_to(b)}
    assert [(r.builtin, r.point, r.error) for r in rows if r.error_kind == "crash"] == []
    bound = case.tolerance if case.id == "christoffel-jets-vs-fd" else EXACT_TOL
    known_vacuous = case.id in VACUOUS_ON_CLIFFORD
    over = [
        (r.builtin, r.point, r.residual)
        for r in rows
        if not (known_vacuous and r.builtin == "clifford" and r.error_kind == "vacuous")
        and not r.residual < bound
    ]
    assert over == []


def test_only_known_vacuous_witnesses_fail(report):
    assert verify.WITNESS_FLOOR == 1e-6
    failing = sorted((r.case_id, r.builtin, r.error) for r in report.results if not r.passed)
    vacuous = "vacuous check: witness magnitude below floor"
    assert failing == sorted((cid, "clifford", vacuous) for cid in VACUOUS_ON_CLIFFORD)


def test_fd_tolerances_cover_every_quantity():
    assert set(FD_TOL) == set(verify.FD_QUANTITIES)


@pytest.mark.parametrize("name", verify.DEFAULT_BUILTINS + tuple(GRAPH4_AMBIENTS))
def test_fd_oracles_agree_with_jets(name):
    if name in GRAPH4_AMBIENTS:
        M = ImmersedSubmanifold(4, [[-0.5, 0.5]] * 4, GRAPH4, GRAPH4_AMBIENTS[name])
    else:
        M = builtin_submanifold(name)
    over = []
    for u in domain_samples(M, 5, seed=0):
        for q, tol in FD_TOL.items():
            err = verify.fd_relative_error(M, q, u)
            if not err < tol:
                over.append((q, np.round(u, 6).tolist(), err))
    assert over == []


# User manifolds and their expected totally-geodesic verdicts: a raised
# plane and an equatorial great sphere are totally geodesic, a cap in the
# unit sphere is not.
USER_TOTALLY_GEODESIC = {
    "raised-plane": (["u1", "u2", "0.5"], euclidean(3), True),
    "cap": (["u1", "u2", "0.3*u1*u1+0.2*u2*u2"], sphere_chart(1.0, 3), False),
    "equator": (["u1", "u2", "0"], sphere_chart(2.0, 3), True),
}


@pytest.mark.parametrize("name", USER_TOTALLY_GEODESIC)
def test_totally_geodesic_verdict_on_user_manifolds(name):
    """The expected verdict comes from the base criterion, not from a
    builtin name, so a user manifold gets the row too."""
    comps, ambient, expected = USER_TOTALLY_GEODESIC[name]
    M = ImmersedSubmanifold(2, [[-0.5, 0.5]] * 2, comps, ambient, name=name)
    rows = verify.run_suite(builtins=M, samples=5, groups=["totally-geodesic"]).results
    assert [(r.case_id, r.passed, r.detail["expected"], r.detail["verdict"]) for r in rows] == [
        ("totally-geodesic-classification", True, expected, expected)
    ]


def test_rows_say_how_they_failed(report):
    kinds = {(r.passed, r.error_kind) for r in report.results}
    assert kinds == {(True, None), (False, "vacuous")}
    vacuous = sorted(r.case_id for r in report.results if r.error_kind == "vacuous")
    assert vacuous == sorted(VACUOUS_ON_CLIFFORD)
    assert '"error_kind": "vacuous"' in report.canonical_json()


def test_crash_and_over_tolerance_rows(monkeypatch):
    def broken(M, u, rng):
        raise TypeError("unsupported operand")

    def off(M, u, rng):
        return 1.0, 1.0, None

    cases = tuple(
        verify.IdentityCase(id=cid, group="duality-relations", statement=cid, order=1, evaluator=ev)
        for cid, ev in (("always-crashes", broken), ("always-off", off))
    )
    monkeypatch.setattr(verify, "REGISTRY", cases)
    rows = verify.run_suite(builtins="plane", samples=2).results
    assert [(r.case_id, r.passed, r.error_kind) for r in rows] == [
        ("always-crashes", False, "crash"),
        ("always-crashes", False, "crash"),
        ("always-off", False, "over_tol"),
        ("always-off", False, "over_tol"),
    ]


def test_crashed_row_names_the_exception_type(monkeypatch):
    def broken(M, u, rng):
        raise TypeError("unsupported operand")

    case = verify.IdentityCase(
        id="always-crashes", group="duality-relations", statement="raises", order=1, evaluator=broken
    )
    monkeypatch.setattr(verify, "REGISTRY", (case,))
    rows = verify.run_suite(builtins="plane", samples=2).results
    assert len(rows) == 2
    for row in rows:
        assert row.residual is None and not row.passed
        assert row.error == "TypeError: unsupported operand"
