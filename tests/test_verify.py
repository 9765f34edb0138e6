"""The registry as a Tier-1 gate.

test_registry_case_holds is the Tier-1 home of every identity that
verify.REGISTRY states: each case must run, on every default builtin it
applies to, and hold at roundoff; it also fails on any row that crashed.
The per-module tests keep closed-form values, error paths and the routes the
registry does not take.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from framelab import gauss_map as gm
from framelab import omn_geometry as og
from framelab import oracles, verify
from framelab.ambient import euclidean, metric_at, sphere_chart
from framelab.omn_geometry import domain_samples
from framelab.submanifold import FrameError, FramePointData, ImmersedSubmanifold, builtin_submanifold

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


@pytest.fixture(scope="module")
def frames():
    """Each default builtin's frame at the sample points of report, which
    the cases' applies and live predicates read."""
    manifolds = {name: builtin_submanifold(name) for name in verify.DEFAULT_BUILTINS}
    return {name: M.frame_data(domain_samples(M, 5, seed=0)) for name, M in manifolds.items()}


def _bound(case_id, tol):
    return tol if case_id == "christoffel-jets-vs-fd" else EXACT_TOL


@pytest.mark.parametrize("case", verify.REGISTRY, ids=verify.registry_ids())
def test_registry_case_holds(report, frames, case):
    rows = [r for r in report.results if r.case_id == case.id]
    assert {r.builtin for r in rows} == {b for b, fd in frames.items() if case.applies(fd)}
    assert [(r.builtin, r.point, r.error) for r in rows if r.error_kind == "crash"] == []
    bound = _bound(case.id, case.tolerance)
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


def test_every_case_but_one_requires_a_live_witness(frames):
    """A case that needs its witness on no default builtin could pass
    vacuously everywhere; the totally-geodesic verdict has no witness."""
    never = [c.id for c in verify.REGISTRY if not any(c.live(fd) for fd in frames.values())]
    assert never == ["totally-geodesic-classification"]


def _rows(report):
    return [(r.case_id, r.point, r.residual, r.witness, r.passed, r.error_kind) for r in report.results]


def test_user_copies_get_the_builtins_rows(report):
    """Where a case runs and where its witness must be live follow the
    geometry: copies of the default builtins under another name get the
    same rows, in the same order."""
    builtins = [builtin_submanifold(name) for name in verify.DEFAULT_BUILTINS]
    copies = [ImmersedSubmanifold(B.p, B.chart_domain, B.components, B.ambient, name="user") for B in builtins]
    assert _rows(verify.run_suite(copies, samples=5)) == _rows(report)


def test_builtin_spelling_does_not_change_the_rows():
    got = verify.run_suite("great2(0.50)", samples=5)
    assert _rows(got) == _rows(verify.run_suite("great2(0.5)", samples=5))


def test_great_spheres_get_the_cases_their_curvature_admits():
    """All sectional curvatures of O(M,N) over great2(kappa) are nonnegative
    while the hh one, kappa - 3 kappa^2 / 2, is: for kappa <= 2/3, boundary
    included. Beyond it the mixed planes still curve."""
    names = ["great2(0.1)", "great2(2/3)", "great2(0.7)"]
    rows = verify.run_suite(names, samples=5).results
    over = [(r.case_id, r.builtin) for r in rows if not (r.passed and r.residual < _bound(r.case_id, r.tol))]
    assert over == []
    space_form = [(r.builtin, r.passed) for r in rows if r.case_id == "space-form-sectional-nonnegative"]
    assert space_form == [(names[0], True), (names[1], True)]
    for cid in ("sectional-mixed-vs-curvature", "mixed-vertical-sectional-nonnegative"):
        assert max(r.witness for r in rows if r.case_id == cid and r.builtin == names[2]) >= 1e-3


# Dini's surface, K = -1/2: the vertical parts the subbundle cases lift are
# of order 1 there, so their antisymmetry holds to roundoff of that size.
DINI = ImmersedSubmanifold(
    2,
    [[-1.0, 1.0], [0.5, 1.2]],
    ["cos(u1)*sin(u2)", "sin(u1)*sin(u2)", "cos(u2)+log(tan(u2/2))+u1"],
    euclidean(3),
    name="dini",
)


def test_dini_surface_lifts_its_vertical_parts():
    """lifted bounds a vertical part's asymmetry relative to its size, so
    the cases that lift the connection's vertical parts run on Dini's
    surface and hold at every point."""
    groups = ["subbundle-second-fundamental", "condition-algebra"]
    rows = verify.run_suite(DINI, samples=25, seed=0, groups=groups).results
    assert len(rows) == 50
    assert [(r.case_id, r.point, r.error) for r in rows if not r.passed] == []
    assert max(r.residual for r in rows) < EXACT_TOL


def test_unbuildable_sample_frame_runs_every_case():
    """A point outside sqrt's domain stops the frame at the sample points, so
    every case runs, needs no witness, and crashes at every point: each row
    is evaluated on that one frame, and its error names the first sample
    point where u1 + 0.3 < 0."""
    M = ImmersedSubmanifold(2, [[-0.5, 0.5]] * 2, ["u1", "u2", "sqrt(u1+0.3)"], euclidean(3))
    rows = verify.run_suite(M, samples=5, groups=["duality-relations"]).results
    kinds = sorted((r.case_id, r.passed, r.error_kind, (r.error or "").split(":")[0]) for r in rows)
    cases = [c.id for c in verify.REGISTRY if c.group == "duality-relations"]
    assert kinds == sorted((c, False, "crash", "DomainError") for c in cases for _ in range(5))
    pts = domain_samples(M, 5, seed=0)
    first = pts[np.argmax(pts[:, 0] + 0.3 < 0)].tolist()
    assert pts[:, 0].min() + 0.3 < 0 < pts[:, 0].max() + 0.3
    _assert_every_row_crashes(rows, pts, f"DomainError: sqrt of a negative value at {first} in sub-expression at bytes 0..12")


def _assert_every_row_crashes(rows, points, error):
    """Every row is a crash row with this error, and each pointwise case
    gives one at each point."""
    assert rows and all(r.error_kind == "crash" and r.error == error for r in rows)
    pointwise = {c.id for c in verify.REGISTRY if c.pointwise}
    for cid in {r.case_id for r in rows} & pointwise:
        assert [r.point for r in rows if r.case_id == cid] == [tuple(u) for u in points]


def test_one_singular_sample_point_crashes_every_row():
    """The Jacobian of this graph-like surface loses rank where u2 = c, and c
    is the second coordinate of the third sample point: the frame at the
    sample points cannot be built, so each case crashes at every point with
    the error naming that point."""
    plane = builtin_submanifold("plane")
    pts = domain_samples(plane, 5, seed=0)
    c = repr(float(pts[2, 1]))
    M = ImmersedSubmanifold(2, plane.chart_domain, ["u1", f"(u2-{c})^3", "0"], euclidean(3))
    assert np.array_equal(domain_samples(M, 5, seed=0), pts)
    rows = verify.run_suite(M, samples=5).results
    _assert_every_row_crashes(rows, pts, f"FrameError: Jacobian rank-deficient (column 2) at {pts[2].tolist()}")


def test_point_outside_the_chart_gives_crash_rows(monkeypatch):
    """A sample point outside the chart is a frame-build error: the run goes
    on and every row reports it."""
    M = builtin_submanifold("sphere2")
    pts = domain_samples(M, 4, seed=0)
    pts[1] = [3.0, 0.1]
    monkeypatch.setattr(verify, "domain_samples", lambda M, n, seed=0: pts.copy())
    rows = verify.run_suite(M, samples=4, groups=["duality-relations", "gauss-codazzi"]).results
    _assert_every_row_crashes(rows, pts, f"FrameError: parameter point {pts[1].tolist()} outside the chart domain")


def test_raising_predicate_fails_the_run(monkeypatch):
    """Only a failed frame build turns the witness checks off; a bug in a
    case's applies or live predicate stops the run."""

    def broken(fd):
        raise KeyError("no such attribute")

    case = verify.REGISTRY[0]
    registry = (verify.IdentityCase(case.id, case.group, case.statement, case.order, case.evaluator, live=broken),)
    monkeypatch.setattr(verify, "REGISTRY", registry)
    with pytest.raises(KeyError, match="no such attribute"):
        verify.run_suite("plane", samples=2)


def _one_point_rows(report, name, bi):
    """Each pointwise case's rows on the default builtin name, evaluated again
    with each sample point as a batch of its own, with that point's generator."""
    M = builtin_submanifold(name)
    points = domain_samples(M, 5, seed=0)
    out = []
    for ci, case in enumerate(verify.REGISTRY):
        if not case.pointwise or not any(r.case_id == case.id and r.builtin == name for r in report.results):
            continue
        for pi, u in enumerate(points):
            rng = np.random.default_rng(np.random.SeedSequence([0, ci, bi, pi]))
            res, wit = case.evaluator(M, M.frame_data(points[pi : pi + 1]), [rng])
            out.append((case.id, tuple(u), float(res[0]), float(wit[0])))
    return out


@pytest.mark.parametrize("bi,name", list(enumerate(verify.DEFAULT_BUILTINS)), ids=verify.DEFAULT_BUILTINS)
def test_batched_rows_match_one_point_batches(report, bi, name):
    """A row depends on its own point and draws alone: the run's rows, from
    one evaluation over 5 points, equal evaluations of each point alone."""
    rows = {(r.case_id, r.point): r for r in report.results if r.builtin == name and r.point is not None}
    single = _one_point_rows(report, name, bi)
    assert len(single) == len(rows) > 0
    for cid, point, res, wit in single:
        row = rows[(cid, point)]
        bound = 1e-10 if cid == "christoffel-jets-vs-fd" else 1e-14
        assert abs(row.residual - res) <= bound and abs(row.witness - wit) <= bound, (cid, point)


def test_a_refused_vertical_plane_drops_only_its_point(monkeypatch):
    """mixed-vertical-sectional-nonnegative skips a vertical plane that
    omn_plane refuses at one point; the other points keep their rows."""
    cid = "mixed-vertical-sectional-nonnegative"
    rows = lambda: [(r.point, r.residual, r.witness) for r in verify.run_suite("plane3", samples=5).results if r.case_id == cid]
    before = rows()
    build = og.omn_plane

    def refuse_second_point(fd, spec1, spec2):
        # a point outside the mask carries the first point's directions; the
        # point axis is the last before the (d, d) matrix, after the rounds
        T = spec1[1]
        if (spec1[0], spec2[0]) == ("vertical", "vertical") and not np.array_equal(T[..., 1, :, :], T[..., 0, :, :]):
            raise og.OmnError("plane vectors are linearly dependent", where=np.arange(len(fd.u0)) == 1)
        return build(fd, spec1, spec2)

    monkeypatch.setattr(og, "omn_plane", refuse_second_point)
    after = rows()
    assert len(after) == 5
    assert after[:1] + after[2:] == before[:1] + before[2:]
    assert after[1] != before[1]


def test_a_run_builds_one_frame_and_one_stencil(monkeypatch):
    """On one builtin every case reads the frame at the run's n sample points,
    and the Christoffel check's central differences one frame of the n points
    and their 2np shifts; no frame of a single point is built."""
    shapes = []
    build = FramePointData.__init__

    def counting(self, sub, u0, order):
        shapes.append(u0.shape)
        build(self, sub, u0, order)

    monkeypatch.setattr(FramePointData, "__init__", counting)
    verify.run_suite("sphere2", samples=5)
    assert shapes == [(5, 2), (25, 2)]


def test_one_frame_trace_per_evaluation(monkeypatch):
    """condition-set-implications reads the residuals and the tension from
    one frame trace of the run frame, as theorem_check reads H and the
    residuals from one trace of its own: two evaluations, two traces."""
    traces = []
    trace = og.frame_trace

    def counting(fd):
        traces.append(fd.u0.shape)
        return trace(fd)

    monkeypatch.setattr(og, "frame_trace", counting)
    groups = ["condition-algebra", "theorem-equivalence"]
    report = verify.run_suite("sphere2", samples=5, groups=groups)
    cases = sorted({r.case_id for r in report.results})
    assert cases == ["condition-set-implications", "minimality-harmonicity-equivalence"]
    assert traces == [(5, 2), (5, 2)]


def test_the_proofs_identities_are_checked_by_one_case(monkeypatch):
    """The two identities m2 = h3 - S_{h2} and P(h2) = S_{m2} are checked by
    condition-set-implications alone: broken by 1.0 everywhere, they fail
    every row of that case and none of the theorem case's."""
    implication = gm.implication_residuals
    monkeypatch.setattr(gm, "implication_residuals", lambda data: tuple(r + 1.0 for r in implication(data)))
    rows = verify.run_suite("sphere2", samples=5).results
    by_case = lambda cid: [r for r in rows if r.case_id == cid]
    implications = by_case("condition-set-implications")
    theorem = by_case("minimality-harmonicity-equivalence")
    assert len(implications) == 5 and theorem
    assert all(r.error_kind == "over_tol" for r in implications)
    assert all(r.passed for r in theorem)


def test_fd_sweep_builds_stencil_frames_to_the_order_they_read(monkeypatch):
    """Every FD quantity at one point of sphere2 makes exactly 3 frame builds:
    the frame at u is the jet routes', order 3, and serves the FD routes'
    reads at u; the h = 1e-4 stencil [u; u ± h e_a] is one frame of order 2,
    and curvature_prime's whole h = 1e-3 tree, u and both levels, one frame
    of order 1."""
    built = []
    build = FramePointData.__init__

    def counting(self, sub, u0, order):
        built.append((u0.shape, order))
        build(self, sub, u0, order)

    monkeypatch.setattr(FramePointData, "__init__", counting)
    M = builtin_submanifold("sphere2")
    for q in verify.FD_QUANTITIES:
        verify.fd_relative_error(M, q, [1.1, 0.6])
    assert built == [((2,), 3), ((5, 2), 2), ((21, 2), 1)]


@pytest.mark.parametrize(
    "quantity, u, reach",
    [
        ("gamma_chart", [0.4, -1.2], "0.0001"),
        ("nabla_vec", [[1.1, 0.6], [2.7, 0.0]], "0.0001"),
        ("curvature_prime", [0.4005, 0.0], "0.002"),
    ],
)
def test_a_stencil_leaving_the_chart_is_refused_at_the_point_asked_for(quantity, u, reach):
    """Near the rim of sphere2's chart ([0.4, 2.7] x [-1.2, 1.2]) the FD route
    refuses a stencil that would leave it, naming the point it was given, the
    quantity and the stencil's reach, not a shifted point of the stencil."""
    M = builtin_submanifold("sphere2")
    at = re.escape(str(np.asarray(u, dtype=float).reshape(-1, 2)[-1].tolist()))
    message = rf"{quantity} stencil of reach {reach} about {at} leaves the chart domain"
    with pytest.raises(verify.VerifyError, match=message):
        verify.fd_relative_error(M, quantity, u)


def test_an_ambient_stencil_runs_at_the_chart_corner():
    """curvature_ambient differences only in the ambient chart, so at the
    corner of sphere2's chart it still gives a value."""
    err = verify.fd_relative_error(builtin_submanifold("sphere2"), "curvature_ambient", [0.4, -1.2])
    assert err < FD_TOL["curvature_ambient"]


def test_ambient_curvature_oracle_evaluates_the_metric_once(monkeypatch):
    """curvature_ambient's FD route lowers R's index with the metric at x0
    that its one call on the stencil tree evaluated as the tree's root: one
    metric_at call per oracle, at one point and at a batch."""
    calls = []

    def counting(N, X):
        calls.append(np.shape(X))
        return metric_at(N, X)

    monkeypatch.setattr(oracles, "metric_at", counting)
    M = builtin_submanifold("sphere2")
    for u in ([1.1, 0.6], [[1.1, 0.6], [0.8, -0.3]]):
        calls.clear()
        verify.fd_oracle(M, "curvature_ambient", u)
        assert len(calls) == 1, calls


@pytest.mark.parametrize("name", verify.DEFAULT_BUILTINS)
def test_jet_routes_on_the_order_3_frame_are_the_order_4_values(name):
    """jet_value reads every FD quantity from the frame at u built to order
    3, and gets bitwise the value the same route reads on an order-4 frame."""
    M = builtin_submanifold(name)
    for u in domain_samples(M, 5, seed=0):
        full = FramePointData(M, u, 4)
        for q, quantity in verify.FD_QUANTITIES.items():
            assert np.array_equal(verify.jet_value(M, q, u), quantity.jet_route(full)), q
        assert M.frame_data(u, 1).order == 3


def test_order_3_is_the_least_that_serves_every_jet_route():
    """On an order-2 frame exactly the routes that read Gamt.val or Rfr.val
    raise FrameError naming the order they need; on order 3 none does."""
    M = builtin_submanifold("sphere2")
    u = np.array([1.1, 0.6])
    refused = {}
    for q, quantity in verify.FD_QUANTITIES.items():
        try:
            quantity.jet_route(FramePointData(M, u, 2))
        except FrameError as exc:
            refused[q] = str(exc)
    assert sorted(refused) == ["curvature_ambient", "curvature_prime", "gamma_tilde", "nabla_tilde_vec"]
    need = r"(Gamt|Rfr) needs a frame of order 3 or more; this frame is order 2"
    assert all(re.match(need, message) for message in refused.values())
    for quantity in verify.FD_QUANTITIES.values():
        quantity.jet_route(FramePointData(M, u, 3))


@pytest.mark.parametrize("name", verify.DEFAULT_BUILTINS)
def test_fd_quantities_take_a_batch(name):
    """Both routes of every FD quantity, and its error, at a batch of 4
    points are the values at each point stacked, bit for bit."""
    M = builtin_submanifold(name)
    U = domain_samples(M, 4, seed=2)
    for q in verify.FD_QUANTITIES:
        for route in (verify.fd_oracle, verify.jet_value, verify.fd_relative_error):
            got, want = route(M, q, U), np.stack([route(M, q, u) for u in U])
            assert got.shape == want.shape and np.array_equal(got, want), (q, route.__name__)


def test_a_group_name_is_one_group():
    """A str names one group, as a str names one builtin; it is not split
    into its characters."""
    one = verify.run_suite("plane", samples=2, groups="theorem-equivalence")
    listed = verify.run_suite("plane", samples=2, groups=["theorem-equivalence"])
    assert one.canonical_json() == listed.canonical_json()
    assert one.results and {r.group for r in one.results} == {"theorem-equivalence"}
    with pytest.raises(verify.VerifyError, match=r"unknown case groups: \['theorem'\]"):
        verify.run_suite("plane", samples=2, groups="theorem")


def test_to_json_is_the_canonical_payload_with_run_facts(report):
    payload = json.loads(report.to_json())
    facts = {k: payload.pop(k) for k in ("generated_at", "runtime_seconds")}
    assert payload == json.loads(report.canonical_json())
    assert facts == {"generated_at": report.generated_at, "runtime_seconds": report.runtime_seconds}


@pytest.mark.parametrize(
    "kwargs", [{"builtins": []}, {"builtins": "plane", "groups": []}], ids=["no-builtins", "no-groups"]
)
def test_empty_run_is_refused(kwargs):
    """A run with no rows would pass on no evidence."""
    with pytest.raises(verify.VerifyError, match="no .* to check"):
        verify.run_suite(**kwargs)


def test_fd_tolerances_cover_every_quantity():
    assert set(FD_TOL) == set(verify.FD_QUANTITIES)


@pytest.mark.parametrize("route", [verify.fd_oracle, verify.jet_value, verify.fd_relative_error])
def test_unknown_fd_quantity_is_refused(route):
    with pytest.raises(verify.VerifyError, match="unknown finite-difference quantity 'gamma'"):
        route(builtin_submanifold("sphere2"), "gamma", [1.1, 0.6])


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
    def broken(M, fd, rngs):
        raise TypeError("unsupported operand")

    def off(M, fd, rngs):
        return np.ones(len(rngs)), np.ones(len(rngs))

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


def test_summary_per_case(monkeypatch):
    """Crash rows have no residual, so their case summarises to None; the
    other cases give their exact row count, largest and mean residual."""

    def broken(M, fd, rngs):
        raise TypeError("unsupported operand")

    def off(M, fd, rngs):
        return 1.0 + np.abs(fd.u0[:, 0]), np.ones(len(rngs))

    cases = tuple(
        verify.IdentityCase(id=cid, group="duality-relations", statement=cid, order=1, evaluator=ev)
        for cid, ev in (("always-crashes", broken), ("always-off", off))
    )
    monkeypatch.setattr(verify, "REGISTRY", cases)
    summary = verify.run_suite(builtins="plane", samples=3).summary()
    res = [1.0 + abs(float(u[0])) for u in domain_samples(builtin_submanifold("plane"), 3, seed=0)]
    assert len(set(res)) == 3
    group = "duality-relations"
    assert summary == {
        "always-crashes": {
            "group": group, "n": 3, "max_residual": None, "mean_residual": None, "passed": False
        },
        "always-off": {
            "group": group, "n": 3, "max_residual": max(res),
            "mean_residual": (res[0] + res[1] + res[2]) / 3, "passed": False,
        },
    }


def test_crashed_row_names_the_exception_type(monkeypatch):
    def broken(M, fd, rngs):
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


def test_point_generators_are_built_on_first_draw(monkeypatch):
    """A case's per-point generators, point pi's seeded by
    SeedSequence([seed, ci, bi, pi]), are built when it first draws: the
    cases that never draw build none, codazzi-offdiagonal-block, the one
    drawing case of its group, builds one per point, and the reports equal
    those of generators all built before the evaluator runs."""
    built = []
    make = np.random.default_rng

    def counting(seed=None):
        if isinstance(seed, np.random.SeedSequence):
            built.append(tuple(seed.entropy))
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    eager = tuple(
        dataclasses.replace(case, evaluator=lambda M, fd, rngs, ev=case.evaluator: ev(M, fd, list(rngs)))
        if case.pointwise else case
        for case in verify.REGISTRY
    )
    ci = verify.registry_ids().index("codazzi-offdiagonal-block")
    codazzi = [(0, ci, 0, pi) for pi in range(5)]
    for group, want in (("gauss-codazzi", codazzi), ("condition-algebra", []), ("jets-vs-fd", [])):
        built.clear()
        lazy = verify.run_suite("sphere2", samples=5, groups=group).canonical_json()
        assert built == want, group
        with monkeypatch.context() as m:
            m.setattr(verify, "REGISTRY", eager)
            assert verify.run_suite("sphere2", samples=5, groups=group).canonical_json() == lazy
    full = verify.run_suite(samples=5).canonical_json()
    monkeypatch.setattr(verify, "REGISTRY", eager)
    assert verify.run_suite(samples=5).canonical_json() == full
