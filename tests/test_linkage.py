import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphfin.config import RunConfig
from morphfin.errors import ConfigError, DomainError, UnreachableConfigurationError
from morphfin.linkage import (
    FinGeometry,
    LinkageGeometry,
    body_height,
    closure_residual,
    erection_fraction,
    solve_linkage,
)


def default_geometry() -> LinkageGeometry:
    return RunConfig().linkage


def parallelogram() -> LinkageGeometry:
    return LinkageGeometry(
        ground_len=2.0,
        crank_len=1.0,
        coupler_len=2.0,
        rocker_len=1.0,
        ground_pivot_a=(0.0, 0.0),
        ground_pivot_b=(2.0, 0.0),
        drive_angle_folded=0.2,
        drive_angle_erect=1.4,
    )


def oracle_rocker_tip(geom: LinkageGeometry, drive_angle: float):
    """Independent circle-circle intersection via the angle construction.

    Works in the frame of the crank tip: the rocker tip sits at the angle of
    the crank-tip -> pivot-B ray offset by the triangle angle from the law of
    cosines. The open assembly takes the positive offset.
    """
    ax, ay = geom.ground_pivot_a
    bx, by = geom.ground_pivot_b
    cx = ax + geom.crank_len * math.cos(drive_angle)
    cy = ay + geom.crank_len * math.sin(drive_angle)
    d = math.hypot(bx - cx, by - cy)
    base = math.atan2(by - cy, bx - cx)
    cos_alpha = (geom.coupler_len**2 + d * d - geom.rocker_len**2) / (
        2.0 * geom.coupler_len * d
    )
    alpha = math.acos(max(-1.0, min(1.0, cos_alpha)))
    return (
        cx + geom.coupler_len * math.cos(base + alpha),
        cy + geom.coupler_len * math.sin(base + alpha),
    )


class TestSolveLinkage:
    def test_parallelogram_at_ninety_degrees(self):
        state = solve_linkage(parallelogram(), math.pi / 2)
        a, c, p, b = state.joint_positions
        assert c == pytest.approx((0.0, 1.0), abs=1e-12)
        assert p == pytest.approx((2.0, 1.0), abs=1e-12)
        # coupler parallel to ground
        assert p[1] - c[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_circle_intersection_oracle(self):
        geom = LinkageGeometry(
            ground_len=0.06,
            crank_len=0.02,
            coupler_len=0.05,
            rocker_len=0.04,
            ground_pivot_a=(0.0, 0.0),
            ground_pivot_b=(0.06, 0.0),
            drive_angle_folded=0.2,
            drive_angle_erect=2.0,
        )
        drive = math.radians(60.0)
        state = solve_linkage(geom, drive)
        expected = oracle_rocker_tip(geom, drive)
        assert state.joint_positions[2] == pytest.approx(expected, abs=1e-9)

    def test_unreachable_configuration(self):
        geom = LinkageGeometry(
            ground_len=10.0,
            crank_len=1.0,
            coupler_len=1.0,
            rocker_len=1.0,
            ground_pivot_a=(0.0, 0.0),
            ground_pivot_b=(10.0, 0.0),
            drive_angle_folded=0.0,
            drive_angle_erect=1.0,
        )
        with pytest.raises(UnreachableConfigurationError) as exc:
            solve_linkage(geom, 0.0)
        assert exc.value.drive_angle == 0.0

    def test_closure_over_1000_sampled_angles(self):
        geom = default_geometry()
        lo, hi = geom.drive_angle_folded, geom.drive_angle_erect
        for i in range(1000):
            angle = lo + (hi - lo) * i / 999.0
            state = solve_linkage(geom, angle)
            assert closure_residual(geom, state) <= 1e-9

    def test_branch_continuity(self):
        geom = default_geometry()
        increment = math.radians(0.1)
        longest = max(
            geom.ground_len, geom.crank_len, geom.coupler_len, geom.rocker_len
        )
        prev = solve_linkage(geom, geom.drive_angle_folded).joint_positions[2]
        angle = geom.drive_angle_folded
        while angle < geom.drive_angle_erect:
            angle += increment
            cur = solve_linkage(geom, min(angle, geom.drive_angle_erect)).joint_positions[2]
            jump = math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            assert jump <= 10.0 * increment * longest
            prev = cur


def crank_turns_fully(geom: LinkageGeometry, samples: int) -> bool:
    """Whether the loop closes at `samples` crank angles over one full turn."""
    for i in range(samples):
        try:
            solve_linkage(geom, 2.0 * math.pi * i / samples)
        except UnreachableConfigurationError:
            return False
    return True


class TestGrashof:
    def test_default_is_crank_rocker(self):
        # a Grashof crank-rocker: the crank turns fully with the loop closed
        assert crank_turns_fully(default_geometry(), 1000)

    @given(st.floats(-0.01, 0.01), st.floats(-0.01, 0.01),
           st.floats(-0.01, 0.01), st.floats(-0.01, 0.01))
    @settings(max_examples=50)
    def test_stable_under_one_percent_perturbation(self, dg, dc, dco, dr):
        base = default_geometry()
        perturbed = LinkageGeometry(
            ground_len=base.ground_len * (1 + dg),
            crank_len=base.crank_len * (1 + dc),
            coupler_len=base.coupler_len * (1 + dco),
            rocker_len=base.rocker_len * (1 + dr),
            ground_pivot_a=base.ground_pivot_a,
            ground_pivot_b=(base.ground_len * (1 + dg), 0.0),
            drive_angle_folded=base.drive_angle_folded,
            drive_angle_erect=base.drive_angle_erect,
        )
        assert crank_turns_fully(perturbed, 100)


class TestErectionFraction:
    def test_endpoints(self):
        geom = default_geometry()
        assert erection_fraction(geom, geom.drive_angle_folded) == pytest.approx(0.0, abs=1e-12)
        assert erection_fraction(geom, geom.drive_angle_erect) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_geometry_midpoint(self):
        # parallelogram: rocker angle tracks drive angle exactly, so the
        # fraction is linear; verified against a dense sweep
        geom = parallelogram()
        mid = 0.5 * (geom.drive_angle_folded + geom.drive_angle_erect)
        dense = [
            erection_fraction(geom, geom.drive_angle_folded
                              + (geom.drive_angle_erect - geom.drive_angle_folded) * i / 400)
            for i in range(401)
        ]
        assert dense[200] == pytest.approx(erection_fraction(geom, mid), abs=1e-12)
        assert erection_fraction(geom, mid) == pytest.approx(0.5, abs=0.05)

    def test_monotone_over_sweep(self):
        geom = default_geometry()
        lo, hi = geom.drive_angle_folded, geom.drive_angle_erect
        values = [erection_fraction(geom, lo + (hi - lo) * i / 2000) for i in range(2001)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_reads_zero_through_the_rocker_dip(self):
        # the default rocker swings back past folded for the first 10.8 deg
        # of drive; the clamp holds the fraction at 0 there, then it rises
        geom = default_geometry()
        assert erection_fraction(geom, 0.616) == erection_fraction(geom, 0.712) == 0.0
        assert erection_fraction(geom, 0.7125) > 0.0

    def test_out_of_range_clamps(self):
        geom = default_geometry()
        lo, hi = geom.drive_angle_folded, geom.drive_angle_erect
        assert erection_fraction(geom, lo - 0.1) == erection_fraction(geom, lo) == 0.0
        assert erection_fraction(geom, hi + 0.1) == erection_fraction(geom, hi) == 1.0


class TestFinGeometry:
    FIN = FinGeometry(height_erect=0.201, height_folded=0.128,
                      lateral_area_max=0.012, lateral_area_min=0.0)

    def test_body_height_endpoints(self):
        assert body_height(self.FIN, 1.0) == pytest.approx(0.201)
        assert body_height(self.FIN, 0.0) == pytest.approx(0.128)
        assert body_height(self.FIN, 0.5) == pytest.approx(0.1645)

    def test_body_height_domain(self):
        with pytest.raises(DomainError):
            body_height(self.FIN, 1.2)

    def test_invariants(self):
        with pytest.raises(ConfigError):
            FinGeometry(0.1, 0.2, 0.01, 0.0).validate()

