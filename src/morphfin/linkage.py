"""Planar four-bar linkage kinematics for the morphing dorsal fin.

Joint layout: ground pivot A carries the crank (driven through the magnetic
coupling), ground pivot B carries the rocker, and the coupler closes the loop
between the crank tip and the rocker tip. Fin erection is read off the rocker
angle, normalized between the folded and erect drive angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError, UnreachableConfigurationError

Point = tuple[float, float]

CLOSURE_TOL = 1e-9  # m


@dataclass(frozen=True)
class LinkageGeometry:
    """Link lengths (m), ground pivots (m) and endpoint drive angles (rad)."""

    ground_len: float = 0.06
    crank_len: float = 0.025
    coupler_len: float = 0.06
    rocker_len: float = 0.05
    ground_pivot_a: Point = (0.0, 0.0)
    ground_pivot_b: Point = (0.06, 0.0)
    drive_angle_folded: float = 0.5236
    drive_angle_erect: float = 2.5307
    max_drive_torque: float = 0.5  # magnetic coupling limit, N*m; not read by the dynamics

    def validate(self) -> None:
        for name in ("ground_len", "crank_len", "coupler_len", "rocker_len"):
            if not (getattr(self, name) > 0.0):
                raise ConfigError("link lengths must be > 0", f"linkage.{name}")
        ax, ay = self.ground_pivot_a
        bx, by = self.ground_pivot_b
        if abs(math.hypot(bx - ax, by - ay) - self.ground_len) > 1e-9:
            raise ConfigError(
                "distance between ground pivots must equal ground_len",
                "linkage.ground_pivot_b",
            )
        if self.drive_angle_folded == self.drive_angle_erect:
            raise ConfigError(
                "folded and erect drive angles must differ",
                "linkage.drive_angle_erect",
            )
        if not (self.max_drive_torque > 0.0):
            raise ConfigError("max_drive_torque must be > 0", "linkage.max_drive_torque")


@dataclass(frozen=True)
class LinkageState:
    drive_angle: float
    joint_positions: tuple[Point, Point, Point, Point]  # A, crank tip, rocker tip, B
    erection_fraction: float


@dataclass(frozen=True)
class FinGeometry:
    """Erect/folded envelope of the dorsal fin (m, m^2); the dynamics read neither area."""

    height_erect: float = 0.201
    height_folded: float = 0.128
    lateral_area_max: float = 0.012
    lateral_area_min: float = 0.0

    def validate(self) -> None:
        if not (self.height_erect > self.height_folded):
            raise ConfigError("height_erect must exceed height_folded", "fin.height_erect")
        if not (self.lateral_area_max >= self.lateral_area_min >= 0.0):
            raise ConfigError(
                "lateral areas must satisfy max >= min >= 0", "fin.lateral_area_max"
            )


def _rocker_tip(geom: LinkageGeometry, drive_angle: float) -> tuple[Point, Point]:
    """Crank tip and rocker tip via circle-circle intersection of the coupler dyad."""
    ax, ay = geom.ground_pivot_a
    bx, by = geom.ground_pivot_b
    cx = ax + geom.crank_len * math.cos(drive_angle)
    cy = ay + geom.crank_len * math.sin(drive_angle)
    dx, dy = bx - cx, by - cy
    d = math.hypot(dx, dy)
    r1, r2 = geom.coupler_len, geom.rocker_len
    if d > r1 + r2 or d < abs(r1 - r2) or d == 0.0:
        raise UnreachableConfigurationError(drive_angle)
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h_sq = r1 * r1 - a * a
    h = math.sqrt(h_sq) if h_sq > 0.0 else 0.0
    mx, my = cx + a * dx / d, cy + a * dy / d
    # open assembly: rocker tip on the left of the crank-tip -> pivot-B ray
    px = mx + h * (-dy) / d
    py = my + h * dx / d
    return (cx, cy), (px, py)


def _rocker_angle(geom: LinkageGeometry, drive_angle: float) -> float:
    (_, _), (px, py) = _rocker_tip(geom, drive_angle)
    bx, by = geom.ground_pivot_b
    return math.atan2(py - by, px - bx)


def solve_linkage(geom: LinkageGeometry, drive_angle: float) -> LinkageState:
    """Position solution of the four-bar loop at one drive angle, in its open assembly.

    Raises UnreachableConfigurationError when the coupler-rocker dyad cannot
    span the crank tip to the second ground pivot.
    """
    geom.validate()
    c, p = _rocker_tip(geom, drive_angle)
    a = geom.ground_pivot_a
    b = geom.ground_pivot_b
    state = LinkageState(
        drive_angle=drive_angle,
        joint_positions=(a, c, p, b),
        erection_fraction=erection_fraction(geom, drive_angle),
    )
    residual = closure_residual(geom, state)
    if residual > CLOSURE_TOL:
        raise UnreachableConfigurationError(drive_angle)
    return state


def closure_residual(geom: LinkageGeometry, state: LinkageState) -> float:
    """Largest link-length mismatch of a solved state, in meters."""
    a, c, p, b = state.joint_positions
    lengths = (geom.ground_len, geom.crank_len, geom.coupler_len, geom.rocker_len)
    pairs = ((a, b), (a, c), (c, p), (p, b))
    return max(
        abs(math.hypot(q[0] - r[0], q[1] - r[1]) - length)
        for (q, r), length in zip(pairs, lengths)
    )


def erection_fraction(geom: LinkageGeometry, drive_angle: float) -> float:
    """Normalized fin deployment: 0 at the folded drive angle, 1 at the erect one.

    Drive angles outside the folded-erect range clamp to its nearer end, and
    so does a rocker angle short of folded: the default rocker first swings
    0.26 deg away from erect, so the fraction reads 0 up to a drive angle of
    0.7123 rad, 10.8 deg past folded, and is non-decreasing after that.
    """
    lo = min(geom.drive_angle_folded, geom.drive_angle_erect)
    hi = max(geom.drive_angle_folded, geom.drive_angle_erect)
    angle = min(max(drive_angle, lo), hi)
    r_folded = _rocker_angle(geom, geom.drive_angle_folded)
    r_erect = _rocker_angle(geom, geom.drive_angle_erect)
    if r_folded == r_erect:
        raise DomainError("degenerate geometry: rocker does not move between endpoints")
    frac = (_rocker_angle(geom, angle) - r_folded) / (r_erect - r_folded)
    return min(max(frac, 0.0), 1.0)


def body_height(fin: FinGeometry, e: float) -> float:
    """Total body height (m) at erection fraction e."""
    if not (0.0 <= e <= 1.0):
        raise DomainError(f"erection fraction must be in [0, 1], got {e}")
    return fin.height_folded + e * (fin.height_erect - fin.height_folded)
