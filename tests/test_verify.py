import numpy as np
import pytest

from framelab import verify
from framelab.omn_geometry import domain_samples
from framelab.submanifold import builtin_submanifold

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


@pytest.fixture(scope="module")
def report():
    return verify.run_suite(builtins=verify.DEFAULT_BUILTINS, samples=5)


def test_every_row_completes(report):
    crashed = [(r.case_id, r.builtin, r.point, r.error) for r in report.results if r.residual is None]
    assert crashed == []


def test_only_known_vacuous_witnesses_fail(report):
    assert verify.WITNESS_FLOOR == 1e-6
    failing = sorted((r.case_id, r.builtin, r.error) for r in report.results if not r.passed)
    vacuous = "vacuous check: witness magnitude below floor"
    assert failing == sorted((cid, "clifford", vacuous) for cid in VACUOUS_ON_CLIFFORD)


def test_fd_tolerances_cover_every_quantity():
    assert set(FD_TOL) == set(verify.FD_QUANTITIES)


@pytest.mark.parametrize("name", verify.DEFAULT_BUILTINS)
def test_fd_oracles_agree_with_jets(name):
    M = builtin_submanifold(name)
    over = []
    for u in domain_samples(M, 5, seed=0):
        for q, tol in FD_TOL.items():
            err = verify.fd_relative_error(M, q, u)
            if not err < tol:
                over.append((q, np.round(u, 6).tolist(), err))
    assert over == []


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
