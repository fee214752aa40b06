import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sie.errors import ClosureError, PreconditionError
from sie.flow import IntegratorConfig, Stepper, integrate
import sie.orbit as orbit_mod
from sie.orbit import (_TAU_TOL_REL, Prop1Report, UpperBoundViolation, _chord_sq_distances,
                       _newton_refine, _newton_refine_many, build_orbit,
                       certify_prop1, dist_to_orbit, nearest_chords, orbital_deviations,
                       refine_distance)
from sie.poincare import (SurfaceChart, _state_columns, _Variational, find_fixed_point,
                          zero_inputs)
from tests.conftest import RIMLESS_OMEGA_PLUS


class TestBuildOrbit:
    def test_linear_reset_geometry(self, linear_orbit):
        # the orbit is the unit timer segment on the x2 = 0 axis
        assert linear_orbit.diameter == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(linear_orbit.points[:, 1])) < 1e-9
        assert np.allclose(linear_orbit.points[0], [0.0, 0.0], atol=1e-9)
        assert np.allclose(linear_orbit.points[-1], [1.0, 0.0], atol=1e-9)

    def test_endpoints(self, rimless_sys, rimless_orbit):
        x_plus = rimless_sys.eval_delta(rimless_orbit.x_star, np.zeros(1))
        assert np.allclose(rimless_orbit.eval(0.0), x_plus, atol=1e-10)
        assert np.allclose(rimless_orbit.eval(rimless_orbit.t_star),
                           rimless_orbit.x_star, atol=1e-10)
        assert rimless_orbit.points[0][1] == pytest.approx(RIMLESS_OMEGA_PLUS, abs=1e-7)

    def test_sample_refinement_honors_ds_max(self, rimless_orbit):
        gaps = np.linalg.norm(np.diff(rimless_orbit.points, axis=0), axis=1)
        assert float(gaps.max()) <= rimless_orbit.ds_max * (1.0 + 1e-9)

    def test_energy_constant_along_orbit(self, rimless_orbit):
        E = 0.5 * rimless_orbit.points[:, 1] ** 2 + 9.81 * np.cos(rimless_orbit.points[:, 0])
        assert float(E.max() - E.min()) < 1e-8

    def test_stale_report_raises_closure_error(self, linear_sys, linear_report):
        bad = replace(linear_report, x_star=linear_report.x_star + np.array([0.0, 1e-2]))
        with pytest.raises(ClosureError):
            build_orbit(linear_sys, bad)

    def test_report_without_segment_is_a_precondition_error(self, linear_sys, linear_report):
        with pytest.raises(PreconditionError):
            build_orbit(linear_sys, replace(linear_report, segment=None))

    def test_integrates_nothing(self, linear_sys, linear_report, monkeypatch):
        made = []
        init = Stepper.__init__

        def counting_init(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Stepper, "__init__", counting_init)
        build_orbit(linear_sys, linear_report)
        assert made == []
        # the counter does see the integrations of a solve
        find_fixed_point(linear_sys, np.array([1.0, 0.7]), t_cap=10.0)
        assert made


def _reintegrated_orbit(sysd, report):
    """Reference: the orbit from one more integration of the zero-input flow,
    carried with its variational matrix as Newton's map evaluations carry
    it, from the reset image of x* over exactly [0, T*] at the map
    tolerances, in place of the segment of Newton's converged map
    evaluation."""
    u0, v0 = zero_inputs(sysd)
    var = _Variational.of(sysd)
    x0 = var.eval_delta(np.concatenate((report.x_star, np.zeros(sysd.n ** 2))), v0)
    seg = integrate(var, x0, u0, (0.0, report.t_star), IntegratorConfig(rtol=1e-12, atol=1e-14))
    return build_orbit(sysd, replace(report, segment=_state_columns(seg, sysd.n)))


@pytest.mark.parametrize("sys_name,report_name", [
    ("linear_sys", "linear_report"), ("rimless_sys", "rimless_report"), ("vdp_sys", "vdp_report")])
def test_orbit_matches_a_reintegrated_orbit(sys_name, report_name, request):
    sysd, rep = request.getfixturevalue(sys_name), request.getfixturevalue(report_name)
    orb, ref = build_orbit(sysd, rep), _reintegrated_orbit(sysd, rep)
    assert np.array_equal(orb.taus, ref.taus)
    scale = max(1.0, float(np.linalg.norm(rep.x_star)))
    assert np.max(np.abs(orb.points - ref.points)) <= 1e-12 * scale
    # the search took its last step whole and trimmed it at T*, where the
    # integration shortened it to end there; the steps before are the same
    before = orb.taus < rep.segment.ts[-1]
    assert np.array_equal(orb.points[before], ref.points[before])


def _depth_first_refine(seg, nodes, ds_max, t_star):
    """Reference refinement: split intervals recursively, depth first, with
    one scalar `FlowSegment.eval` per interval end."""
    taus = [0.0]
    points = [seg.eval(0.0)]
    stack = [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)][::-1]
    while stack:
        a, b = stack.pop()
        ya = seg.eval(a)
        yb = seg.eval(b)
        if float(np.linalg.norm(yb - ya)) > ds_max and (b - a) > 1e-13 * t_star:
            mid = 0.5 * (a + b)
            stack.append((mid, b))
            stack.append((a, mid))
        else:
            taus.append(b)
            points.append(yb)
    return np.asarray(taus), np.vstack(points)


@pytest.fixture(scope="module")
def vdp_orbit(vdp_sys, vdp_report):
    return build_orbit(vdp_sys, vdp_report)


@pytest.mark.parametrize("orbit_fixture", ["linear_orbit", "rimless_orbit", "vdp_orbit"])
def test_level_wise_refinement_matches_depth_first(orbit_fixture, request):
    orb = request.getfixturevalue(orbit_fixture)
    seg = orb.segment
    nodes = np.concatenate([seg.ts, [orb.t_star]])
    taus, points = _depth_first_refine(seg, nodes, orb.ds_max, orb.t_star)
    assert len(taus) > len(nodes)
    assert np.array_equal(orb.taus, taus)
    scale = max(1.0, float(np.max(np.abs(points))))
    assert np.max(np.abs(orb.points - points)) <= 1e-15 * scale


class TestDistToOrbit:
    def test_sample_points_have_zero_distance(self, rimless_orbit):
        rng = np.random.default_rng(3)
        for i in rng.integers(0, len(rimless_orbit.taus), size=25):
            d, taus = dist_to_orbit(rimless_orbit, rimless_orbit.points[i])
            assert d <= 1e-10
            assert any(abs(t - rimless_orbit.taus[i]) < 1e-5 for t in taus)

    def test_linear_reset_interior_point(self, linear_orbit):
        d, taus = dist_to_orbit(linear_orbit, np.array([0.5, 0.2]))
        assert d == pytest.approx(0.2, abs=1e-9)
        assert len(taus) == 1
        assert taus[0] == pytest.approx(0.5, abs=1e-6)

    def test_fixed_point_is_closure_endpoint(self, linear_orbit):
        d, taus = dist_to_orbit(linear_orbit, linear_orbit.x_star)
        assert d <= 1e-10
        assert any(abs(t - linear_orbit.t_star) < 1e-9 for t in taus)

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.2, 0.0], [[0.5, 0.2]], [0.5, math.nan],
                                   [math.inf, 0.2], ["a", "b"]],
                             ids=["shape-1", "shape-3", "shape-1x2", "nan", "inf", "text"])
    def test_malformed_point_is_refused(self, linear_orbit, x):
        with pytest.raises(PreconditionError, match="query point"):
            dist_to_orbit(linear_orbit, x)

    def test_one_lipschitz(self, rimless_orbit):
        rng = np.random.default_rng(4)
        center = rimless_orbit.x_star
        for _ in range(100):
            x = center + rng.uniform(-1.0, 1.0, size=2)
            xp = x + rng.uniform(-0.2, 0.2, size=2)
            dx, _ = dist_to_orbit(rimless_orbit, x)
            dxp, _ = dist_to_orbit(rimless_orbit, xp)
            assert abs(dx - dxp) <= float(np.linalg.norm(x - xp)) + 1e-9

    def test_refinement_never_increases_reported_distance(self, rimless_orbit):
        # the refined value sits at or below the coarse polyline minimum,
        # and above it only by the node chords' sag
        rng = np.random.default_rng(9)
        sag = _node_chord_sag(rimless_orbit)
        for _ in range(80):
            x = rimless_orbit.x_star + rng.uniform(-1.0, 1.0, size=2)
            coarse = math.sqrt(np.min(_chord_sq_distances(rimless_orbit.chords, x[None, :])))
            refined, _ = dist_to_orbit(rimless_orbit, x)
            assert refined <= coarse + sag
            assert refined >= coarse - sag

    def test_refine_matches_full_query(self, rimless_orbit):
        # one batched call over all rows, each row checked on its own
        rng = np.random.default_rng(5)
        xs = []
        for _ in range(50):
            tau = rng.uniform(0.0, rimless_orbit.t_star)
            off = 10.0 ** rng.uniform(-9.0, -2.0)
            xs.append(rimless_orbit.eval(tau) + off * rng.normal(size=2))
        xs = np.array(xs)
        chords = np.argmin(_chord_sq_distances(rimless_orbit.chords, xs), axis=1)
        fast = refine_distance(rimless_orbit, xs, chords)
        for x, d in zip(xs, fast):
            full, _ = dist_to_orbit(rimless_orbit, x)
            assert d == pytest.approx(full, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(model_name=st.sampled_from(["linear", "rimless", "vdp"]),
           points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-9.0, 3.0),
                                     st.floats(0.0, 2.0 * math.pi)),
                           min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_orbital_deviations_match_dist_to_orbit(self, linear_sys, rimless_sys, vdp_sys,
                                                    linear_orbit, rimless_orbit, vdp_orbit,
                                                    model_name, points, seed):
        # every row of the sweep's batched query is the scalar query's
        # distance bit for bit: points off the orbit from 1e-9 to 1000
        # diameters, and on-surface points drawn as certify draws them
        sysd, orb = {"linear": (linear_sys, linear_orbit), "rimless": (rimless_sys, rimless_orbit),
                     "vdp": (vdp_sys, vdp_orbit)}[model_name]
        xs = np.array([orb.eval(tau_frac * orb.t_star) + 10.0 ** log_off * orb.diameter
                       * np.array([math.cos(angle), math.sin(angle)])
                       for tau_frac, log_off, angle in points]
                      + _certify_style_samples(sysd, orb, 2, seed))
        want = [dist_to_orbit(orb, x)[0] for x in xs]
        assert orbital_deviations(orb, xs).tolist() == want

    def test_repeated_sample_counts_as_its_endpoint(self, linear_orbit):
        # a repeated step node (a crossing at a step's left edge leaves the
        # last two equal) makes a zero-length chord, which must read as its
        # endpoint, not as 0/0; the step record is repeated whole, and the
        # jets never pick the first copy, so the dense output stays the same
        seg = linear_orbit.segment
        k = int(np.searchsorted(seg.ys[:, 0], 0.5))
        orb = replace(linear_orbit, segment=replace(
            seg, ts=np.insert(seg.ts, k, seg.ts[k]), hs=np.insert(seg.hs, k, seg.hs[k]),
            ys=np.insert(seg.ys, k, seg.ys[k], axis=0), qs=np.insert(seg.qs, k, seg.qs[k], axis=0)))
        assert orb.chords.sq_lengths[k] == 1.0
        assert np.array_equal(orb.chords.points[k], orb.chords.points[k + 1])
        x = np.array([0.5, 0.2])
        assert np.all(np.isfinite(_chord_sq_distances(orb.chords, x[None, :])))
        d, taus = dist_to_orbit(orb, x)
        assert d == pytest.approx(0.2, abs=1e-9)
        assert taus[0] == pytest.approx(0.5, abs=1e-6)
        # the sweep's batched query, on a far and a near row
        x_near = orb.chords.points[k] + np.array([0.0, 1e-3])
        assert orbital_deviations(orb, np.array([x, x_near])) == pytest.approx([0.2, 1e-3],
                                                                              abs=1e-9)
        idx, dist = nearest_chords(orb.chords, np.array([orb.chords.points[k]]))
        assert dist[0] == 0.0 and idx[0] in (k - 1, k, k + 1)

    def test_nearest_chords_blocks_match_one_matrix(self, rimless_orbit):
        rng = np.random.default_rng(8)
        xs = rimless_orbit.x_star + rng.uniform(-1.0, 1.0, size=(500, 2))
        idx, dist = nearest_chords(rimless_orbit.chords, xs)
        full = np.sqrt(_chord_sq_distances(rimless_orbit.chords, xs))
        assert np.array_equal(idx, np.argmin(full, axis=1))
        assert np.array_equal(dist, np.min(full, axis=1))

    @pytest.mark.parametrize("orbit_fixture,sag_rel", [
        ("linear_orbit", 1e-15), ("rimless_orbit", 4.3e-5), ("vdp_orbit", 1.2e-5)])
    def test_node_chords_keep_the_nearest_chord_rule(self, orbit_fixture, sag_rel, request):
        # the queries start on the chords between the step nodes; the
        # nearest chord's bracket holds the nearest point while no two arcs
        # come within about twice the chord sag, so that sag, relative to
        # the diameter, is stated here, and it must lie far below the
        # closest approach of a node to a chord more than 3 steps away
        # (counted around the orbit, as an identity reset closes it)
        orb = request.getfixturevalue(orbit_fixture)
        seg = orb.segment
        assert np.array_equal(orb.chords.taus, np.append(seg.ts, seg.t1))
        assert np.array_equal(orb.chords.points, seg.ys)
        sag = _node_chord_sag(orb)
        assert sag <= sag_rel * orb.diameter
        n_chords = len(orb.chords.sq_lengths)
        apart = np.abs(np.arange(n_chords + 1)[:, None] - np.arange(n_chords))
        apart = np.minimum(apart, n_chords - apart)
        closest = math.sqrt(np.min(_chord_sq_distances(orb.chords, seg.ys)[apart > 3]))
        assert 2.0 * sag < 0.05 * closest


def _reference_certify(orbit, sysd, n_samples, radii, seed):
    """certify_prop1 written as one loop over the samples with running
    accumulators, the reference for its draw, measure and reduce passes.  It
    queries through the module, so a patched dist_to_orbit reaches it too."""
    chart = SurfaceChart.build(sysd, orbit.x_star)
    z_star = chart.project(orbit.x_star)
    rng = np.random.default_rng(seed)
    per_radius = n_samples // len(radii) + (1 if n_samples % len(radii) else 0)
    ratio_min, worst_margin = math.inf, -math.inf
    violations = used = excluded = 0
    first_violation = None
    per_radius_min = []
    for r in radii:
        r_min = math.inf
        for _ in range(per_radius):
            if used >= n_samples:
                break
            nrm = 0.0
            while nrm == 0.0:
                direction = rng.normal(size=z_star.size)
                nrm = float(np.linalg.norm(direction))
            x = chart.embed(z_star + (r / nrm) * direction)
            dx = float(np.linalg.norm(x - orbit.x_star))
            used += 1
            if dx < 1e-12:
                excluded += 1
                continue
            d, _ = orbit_mod.dist_to_orbit(orbit, x)
            margin = d - dx
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                violations += 1
                if first_violation is None:
                    first_violation = (x, margin)
            ratio = d / dx
            ratio_min = min(ratio_min, ratio)
            r_min = min(r_min, ratio)
        per_radius_min.append(r_min)
    report = Prop1Report(ratio_min=ratio_min, violations=violations,
                         upper_margin=worst_margin, n_samples=used, radii=tuple(radii),
                         seed=seed, per_radius_ratio_min=tuple(per_radius_min),
                         excluded=excluded)
    if violations:
        raise UpperBoundViolation(*first_violation, report)
    return report


_CERTIFY_CASES = dict(
    model_name=st.sampled_from(["linear", "rimless"]),
    n_samples=st.integers(1, 40),
    # 1e-14 puts samples within 1e-12 of x*, which are excluded
    radii=st.lists(st.one_of(st.just(1e-14), st.floats(1e-6, 1e3)), min_size=1, max_size=5),
    seed=st.integers(0, 2**63 - 1))


class TestCertifyPasses:
    """The draw, measure and reduce passes of certify_prop1 against the
    per-sample loop they replaced: every report field is equal."""

    @settings(max_examples=60, deadline=None)
    @given(**_CERTIFY_CASES)
    def test_report_matches_per_sample_loop(self, linear_sys, rimless_sys, linear_orbit,
                                            rimless_orbit, model_name, n_samples, radii, seed):
        sysd, orb = ((linear_sys, linear_orbit) if model_name == "linear"
                     else (rimless_sys, rimless_orbit))
        rep = certify_prop1(orb, sysd, n_samples, radii=tuple(radii), seed=seed)
        assert rep == _reference_certify(orb, sysd, n_samples, radii, seed)

    @settings(max_examples=40, deadline=None)
    @given(**_CERTIFY_CASES, picks=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
    def test_same_first_violation_as_per_sample_loop(self, linear_sys, rimless_sys,
                                                     linear_orbit, rimless_orbit, model_name,
                                                     n_samples, radii, seed, picks):
        sysd, orb = ((linear_sys, linear_orbit) if model_name == "linear"
                     else (rimless_sys, rimless_orbit))
        rep = certify_prop1(orb, sysd, n_samples, radii=tuple(radii), seed=seed)
        queries = rep.n_samples - rep.excluded
        assume(queries >= 2)
        chosen = {picks[0] % queries, (picks[0] + 1 + picks[1] % (queries - 1)) % queries}
        real = orbit_mod.dist_to_orbit

        def overshooting():
            calls = []

            def query(orbit, x):
                d, taus = real(orbit, x)
                calls.append(x)
                if len(calls) - 1 in chosen:
                    d = float(np.linalg.norm(x - orbit.x_star)) + 1e-6
                return d, taus
            return query

        raised = []
        with pytest.MonkeyPatch.context() as mp:
            for certify in (certify_prop1, _reference_certify):
                mp.setattr(orbit_mod, "dist_to_orbit", overshooting())
                with pytest.raises(UpperBoundViolation) as exc:
                    certify(orb, sysd, n_samples, radii=tuple(radii), seed=seed)
                raised.append(exc.value)
        new, ref = raised
        assert np.array_equal(new.x, ref.x)
        assert new.excess == ref.excess
        assert new.report == ref.report
        assert new.report.violations == 2


class TestCertifyProp1:
    def test_linear_reset_ratio_is_one(self, linear_sys, linear_orbit):
        # the orbit meets the surface orthogonally in these coordinates, so
        # distance to the orbit equals distance to the fixed point
        rep = certify_prop1(linear_orbit, linear_sys, 800, seed=1)
        assert rep.violations == 0
        assert rep.ratio_min == pytest.approx(1.0, abs=1e-7)
        assert rep.upper_margin <= 1e-9

    def test_rimless_ratio_positive(self, rimless_sys, rimless_orbit):
        rep = certify_prop1(rimless_orbit, rimless_sys, 1500, seed=2)
        assert rep.violations == 0
        assert 0.0 < rep.ratio_min <= 1.0
        # transversal but oblique: strictly inside (0, 1)
        assert rep.ratio_min < 0.9

    def test_far_field_ratios_approach_one(self, rimless_sys, rimless_orbit):
        rep = certify_prop1(rimless_orbit, rimless_sys, 1400, seed=3, far_field=True)
        assert rep.per_radius_ratio_min[-1] > 0.99

    def test_degenerate_samples_skipped(self, linear_sys, linear_orbit):
        rep = certify_prop1(linear_orbit, linear_sys, 50, radii=(1e-13,), seed=4)
        # all samples collapse onto the fixed point and are excluded
        assert math.isinf(rep.ratio_min)
        assert rep.violations == 0
        assert rep.excluded == rep.n_samples == 50

    def test_excluded_counts_only_degenerate_samples(self, linear_sys, linear_orbit):
        rep = certify_prop1(linear_orbit, linear_sys, 5, radii=(1e-14,), seed=4)
        assert rep.excluded == 5
        assert rep.n_samples == 5
        rep = certify_prop1(linear_orbit, linear_sys, 10, radii=(1e-14, 0.1), seed=4)
        assert rep.excluded == 5
        assert rep.n_samples == 10
        assert rep.per_radius_ratio_min[1] == pytest.approx(1.0, abs=1e-7)

    def test_empty_radii_is_a_precondition_error(self, linear_sys, linear_orbit):
        with pytest.raises(PreconditionError):
            certify_prop1(linear_orbit, linear_sys, 5, radii=())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_a_precondition_error(self, linear_sys, linear_orbit, bad):
        with pytest.raises(PreconditionError):
            certify_prop1(linear_orbit, linear_sys, 5, radii=(0.1, bad))

    @pytest.mark.parametrize("args", [{"n_samples": 2.5}, {"n_samples": math.nan},
                                      {"n_samples": 5, "seed": 1.5}])
    def test_non_integer_count_or_seed_is_a_precondition_error(self, linear_sys, linear_orbit,
                                                               args):
        with pytest.raises(PreconditionError):
            certify_prop1(linear_orbit, linear_sys, radii=(0.1,), **args)

    def test_zero_direction_is_redrawn(self, linear_sys, linear_orbit, monkeypatch):
        # a direction of norm 0 must not use up a sample slot
        real = np.random.default_rng

        class ZeroFirst:
            def __init__(self, seed):
                self.rng = real(seed)
                self.zeros = 1

            def normal(self, size):
                if self.zeros:
                    self.zeros -= 1
                    return np.zeros(size)
                return self.rng.normal(size=size)

        monkeypatch.setattr(np.random, "default_rng", ZeroFirst)
        rep = certify_prop1(linear_orbit, linear_sys, 6, radii=(0.1, 0.2), seed=4)
        assert rep.n_samples == 6
        assert rep.excluded == 0
        assert all(r == pytest.approx(1.0, abs=1e-7) for r in rep.per_radius_ratio_min)

    def test_spot_check_against_brute_force(self, rimless_sys, rimless_orbit):
        # oversample the orbit interpolant and compare point-cloud minima
        taus = np.linspace(0.0, rimless_orbit.t_star, 1_000_001)
        cloud = rimless_orbit.segment.eval_many(taus)
        from sie.poincare import SurfaceChart

        chart = SurfaceChart.build(rimless_sys, rimless_orbit.x_star)
        z_star = chart.project(rimless_orbit.x_star)
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = 10.0 ** rng.uniform(-3.0, 0.0) * rimless_orbit.diameter
            z = z_star + r * rng.choice([-1.0, 1.0], size=z_star.size)
            x = chart.embed(z)
            d, _ = dist_to_orbit(rimless_orbit, x)
            diff = cloud - x[None, :]
            d_brute = float(np.sqrt(np.min(np.einsum("ij,ij->i", diff, diff))))
            assert abs(d - d_brute) <= 1e-6


# -- references: the routines the Newton refine and the chord cache replaced --


def _parabolic_min(ts, gs):
    """Vertex of the parabola through three (t, g) samples; the middle t
    on degenerate input."""
    (t0, t1, t2), (g0, g1, g2) = ts, gs
    denom = (t1 - t0) * (g1 - g2) - (t1 - t2) * (g1 - g0)
    if denom == 0.0:
        return t1
    return t1 - 0.5 * ((t1 - t0) ** 2 * (g1 - g2) - (t1 - t2) ** 2 * (g1 - g0)) / denom


def _golden_refine(orbit, x, lo, hi):
    """Reference: golden section on [lo, hi] to the tau tolerance, then one
    parabolic polish step."""

    def g(tau):
        d = x - orbit.eval(tau)
        return float(d @ d)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    tol = _TAU_TOL_REL * max(1.0, orbit.t_star)
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    gc, gd = g(c), g(d_)
    while (b - a) > tol:
        if gc < gd:
            b, d_, gd = d_, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d_, gd
            d_ = a + invphi * (b - a)
            gd = g(d_)
    tau = 0.5 * (a + b)
    h = max(tol, 1e-9 * max(1.0, orbit.t_star))
    t0, t1, t2 = max(lo, tau - h), tau, min(hi, tau + h)
    if t0 < t1 < t2:
        g1 = g(t1)
        t_par = float(_parabolic_min((t0, t1, t2), (g(t0), g1, g(t2))))
        if t_par != t1 and lo <= t_par <= hi and g(t_par) < g1:
            tau = t_par
    return tau, math.sqrt(g(tau))


def _golden_dist(orbit, x):
    """Reference orbit distance: every run of chords within ds_max (about
    24 times the rimless chord sag) of the nearest one, a wider net than
    `dist_to_orbit`'s nearest-chord bracket, each run refined by golden
    section, plus the two orbit ends."""
    chord = np.sqrt(_chord_sq_distances(orbit.chords, x[None, :])[0])
    cand = np.flatnonzero(chord <= float(np.min(chord)) + orbit.ds_max)
    runs = []
    for i in cand:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    taus = orbit.chords.taus
    ds = [_golden_refine(orbit, x, taus[max(i0 - 1, 0)], taus[min(i1 + 2, len(taus) - 1)])[1]
          for i0, i1 in runs]
    ds += [float(np.linalg.norm(x - orbit.eval(t))) for t in (0.0, orbit.t_star)]
    return min(ds)


def _node_chord_sag(orbit):
    """The largest node-chord sag: the dense state at mid-step against the
    chord's midpoint."""
    taus, points = orbit.chords.taus, orbit.chords.points
    mid = orbit.segment.eval_many(0.5 * (taus[:-1] + taus[1:]))
    return float(np.max(np.linalg.norm(mid - 0.5 * (points[:-1] + points[1:]), axis=1)))


def _chord_sq_distances_per_call(points, xs):
    """Reference chord pass that rebuilds the chord geometry on every call."""
    p = points[:-1]
    d = points[1:] - p
    denom = np.einsum("ij,ij->i", d, d)
    denom[denom == 0.0] = 1.0
    s = (xs[:, 0, None] - p[:, 0]) * d[:, 0]
    for j in range(1, points.shape[1]):
        s += (xs[:, j, None] - p[:, j]) * d[:, j]
    s /= denom
    np.clip(s, 0.0, 1.0, out=s)
    out = np.zeros_like(s)
    for j in range(points.shape[1]):
        diff = s * d[:, j]
        diff += p[:, j]
        np.subtract(xs[:, j, None], diff, out=diff)
        diff *= diff
        out += diff
    return out


def _certify_style_samples(sys, orbit, per_radius, seed):
    """On-surface points around x* at the seven far-field radii, each
    radius spread by a random factor in [0.5, 2]."""
    chart = SurfaceChart.build(sys, orbit.x_star)
    z_star = chart.project(orbit.x_star)
    rng = np.random.default_rng(seed)
    xs = []
    for r in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0):
        for _ in range(per_radius):
            direction = rng.normal(size=z_star.size)
            scale = r * orbit.diameter * rng.uniform(0.5, 2.0) / np.linalg.norm(direction)
            xs.append(chart.embed(z_star + scale * direction))
    return xs


class TestNewtonRefine:
    @pytest.mark.parametrize("model_name", ["linear-reset", "rimless-wheel"])
    def test_matches_golden_section_reference(self, model_name, request):
        sysd = request.getfixturevalue(model_name.split("-")[0] + "_sys")
        orb = request.getfixturevalue(model_name.split("-")[0] + "_orbit")
        for x in _certify_style_samples(sysd, orb, 12, seed=21):
            d, _ = dist_to_orbit(orb, x)
            d_ref = _golden_dist(orb, x)
            assert d <= d_ref + 1e-12 * max(1.0, d_ref)
            assert abs(d - d_ref) <= 1e-12 * d_ref

    @settings(max_examples=60, deadline=None)
    @given(tau_frac=st.floats(0.0, 1.0), log_off=st.floats(-9.0, -1.0),
           angle=st.floats(0.0, 2.0 * math.pi))
    def test_near_orbit_points_match_reference(self, rimless_orbit, tau_frac, log_off, angle):
        orb = rimless_orbit
        x = orb.eval(tau_frac * orb.t_star) + 10.0 ** log_off * np.array([math.cos(angle),
                                                                        math.sin(angle)])
        d, taus = dist_to_orbit(orb, x)
        d_ref = _golden_dist(orb, x)
        assert d <= d_ref + 1e-12 * max(1.0, d_ref)
        assert abs(d - d_ref) <= 1e-12 * max(1.0, d_ref)
        # the distance is realized at a reported parameter value
        realized = min(float(np.linalg.norm(x - orb.eval(t))) for t in taus)
        assert realized <= d + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(model_name=st.sampled_from(["linear", "rimless", "vdp"]),
           points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-9.0, 1.0),
                                     st.floats(0.0, 2.0 * math.pi),
                                     st.sampled_from(["nearest", "first", "last", "step"])),
                           min_size=1, max_size=8))
    def test_batched_rows_match_scalar_newton(self, linear_orbit, rimless_orbit, vdp_orbit,
                                              model_name, points):
        # near and far points in one batch, so rows stop at different
        # iterations; "first" and "last" pin brackets touching tau = 0 and T*
        # (the end clamps), "step" one straddling the step node nearest to
        # tau_frac T*; both shapes run one set of float expressions, so they
        # agree exactly
        orb = {"linear": linear_orbit, "rimless": rimless_orbit, "vdp": vdp_orbit}[model_name]
        last = len(orb.chords.taus) - 1
        ts = orb.segment.ts
        xs, chords = [], []
        for tau_frac, log_off, angle, where in points:
            tau = tau_frac * orb.t_star
            if where == "step":
                tau = float(ts[min(max(int(np.searchsorted(ts, tau)), 1), len(ts) - 1)])
            x = orb.eval(tau) + 10.0 ** log_off * np.array([math.cos(angle), math.sin(angle)])
            xs.append(x)
            chords.append({"nearest": int(np.argmin(_chord_sq_distances(orb.chords, x[None, :]))),
                           "first": 0, "last": last - 1,
                           "step": min(int(np.searchsorted(orb.chords.taus, tau)), last - 1)}[where])
        xs, chords = np.array(xs), np.array(chords)
        j0, j1 = np.maximum(chords - 1, 0), np.minimum(chords + 2, last)
        taus, dists = _newton_refine_many(orb, xs, j0, j1)
        assert np.array_equal(refine_distance(orb, xs, chords), dists)
        for x, a, b, tau, d in zip(xs, j0, j1, taus, dists):
            assert (tau, d) == _newton_refine(orb, x, int(a), int(b))

    def test_linear_reset_minimizer_to_tau_tolerance(self, linear_orbit):
        # the timer coordinate is tau itself, so g'(tau) = 0 puts the nearest
        # parameter of an interior point at x1 + (x2 - y2) y2' (y2 ~ 1e-11)
        rng = np.random.default_rng(22)
        for _ in range(50):
            x = np.array([rng.uniform(0.05, 0.95), rng.uniform(-1.0, 1.0)])
            y, dy, _ = linear_orbit.segment._jet(x[0])
            d, taus = dist_to_orbit(linear_orbit, x)
            assert d == pytest.approx(abs(x[1] - y[1]), abs=1e-15)
            assert len(taus) == 1
            assert abs(taus[0] - (x[0] + (x[1] - y[1]) * dy[1])) <= 1e-12


@pytest.mark.parametrize("orbit_fixture", ["linear_orbit", "rimless_orbit", "vdp_orbit"])
def test_step_jet_within_one_ulp_of_eval(orbit_fixture, request):
    # the refine's float and column jets, eval and eval_many all read
    # `flow._dense`'s expression: the same bits at every time
    orb = request.getfixturevalue(orbit_fixture)
    seg = orb.segment
    rng = np.random.default_rng(25)
    taus = np.concatenate([rng.uniform(0.0, orb.t_star, 2000), seg.ts, [0.0, orb.t_star]])
    scalar = [seg._jet(float(t)) for t in taus]
    for part, many in enumerate(seg._column_jet(taus)):
        assert np.array_equal(np.column_stack(many), np.array([s[part] for s in scalar]))
    y = np.array([s[0] for s in scalar])
    assert np.array_equal(y, seg.eval_many(taus))
    assert np.array_equal(y, np.array([seg.eval(float(t)) for t in taus]))
    assert np.array_equal(y[-2:], seg.ys[[0, -1]])


class TestChordCache:
    def test_coarse_distances_bit_identical_to_per_call_geometry(self, rimless_orbit):
        rng = np.random.default_rng(23)
        xs = rimless_orbit.x_star + rng.uniform(-2.0, 2.0, size=(500, 2))
        for x in xs:
            want = np.sqrt(_chord_sq_distances_per_call(rimless_orbit.segment.ys, x[None, :])[0])
            got = np.sqrt(_chord_sq_distances(rimless_orbit.chords, x[None, :])[0])
            assert np.array_equal(got, want)

    def test_nearest_chords_bit_identical_to_per_call_geometry(self, rimless_orbit):
        rng = np.random.default_rng(24)
        xs = rimless_orbit.x_star + rng.uniform(-2.0, 2.0, size=(500, 2))
        idx, dist = nearest_chords(rimless_orbit.chords, xs)
        full = _chord_sq_distances_per_call(rimless_orbit.segment.ys, xs)
        assert np.array_equal(idx, np.argmin(full, axis=1))
        assert np.array_equal(dist, np.sqrt(np.min(full, axis=1)))
