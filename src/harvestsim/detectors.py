"""Detector parameter objects, validation, and timing/causal classification.

All quantities are in natural units (c = hbar = 1), so lengths and times
share units and the detector gap sets the inverse time scale.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "SwitchingWindow",
    "DetectorParams",
    "Scenario",
    "CausalClass",
    "Disjoint",
    "Overlapping",
    "TimingRegime",
    "classify_timing",
    "classify_causal",
    "light_contact_interval",
]


@dataclass(frozen=True)
class SwitchingWindow:
    """Rectangular switching window: coupling on at t_on, off at t_off."""

    t_on: float
    t_off: float

    def __post_init__(self):
        if not (math.isfinite(self.t_on) and math.isfinite(self.t_off)):
            raise ValueError("SwitchingWindow: endpoints must be finite")
        if not self.t_off > self.t_on:
            raise ValueError(
                f"SwitchingWindow: t_off ({self.t_off}) must exceed t_on ({self.t_on})"
            )

    @property
    def duration(self) -> float:
        return self.t_off - self.t_on

    def shifted(self, dt: float) -> "SwitchingWindow":
        return SwitchingWindow(self.t_on + dt, self.t_off + dt)


@dataclass(frozen=True)
class DetectorParams:
    """One detector: coupling strength, energy gap, Gaussian smearing width, window."""

    coupling: float
    gap: float
    smearing: float
    window: SwitchingWindow

    def __post_init__(self):
        if not (self.gap > 0.0 and math.isfinite(self.gap)):
            raise ValueError("DetectorParams: gap must be positive")
        if not (self.smearing > 0.0 and math.isfinite(self.smearing)):
            raise ValueError("DetectorParams: smearing must be positive")
        if not (self.coupling >= 0.0 and math.isfinite(self.coupling)):
            raise ValueError("DetectorParams: coupling must be >= 0")
        if self.coupling / self.gap > 0.1:
            warnings.warn(
                f"coupling/gap = {self.coupling / self.gap:.3g} > 0.1; "
                "second-order perturbation theory may be unreliable",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Scenario:
    """A detector pair, their mean separation, and the positioning uncertainty.

    The pair terms are derived for one smearing width shared by both
    detectors; gaps, couplings and windows may differ.
    """

    det_a: DetectorParams
    det_b: DetectorParams
    separation: float
    position_uncertainty: float = 0.0

    def __post_init__(self):
        if not (self.separation > 0.0 and math.isfinite(self.separation)):
            raise ValueError("Scenario: separation must be positive")
        if not (self.position_uncertainty >= 0.0 and math.isfinite(self.position_uncertainty)):
            raise ValueError("Scenario: position_uncertainty must be >= 0")
        sig = self.det_a.smearing
        if self.det_b.smearing != sig:
            raise ValueError("Scenario: both detectors must have the same smearing width")
        if self.separation < 5.0 * sig:
            warnings.warn(
                f"separation {self.separation:.3g} < 5*smearing {sig:.3g}; "
                "detector overlap is no longer negligible",
                stacklevel=2,
            )


class CausalClass(Enum):
    PURELY_SPACELIKE = "purely-spacelike"
    PARTIALLY_LIGHT_CONNECTED = "partially-light-connected"
    FULLY_LIGHT_CONNECTED = "fully-light-connected"
    PURELY_TIMELIKE = "purely-timelike"


@dataclass(frozen=True)
class Disjoint:
    first: str   # "A" or "B"
    gap: float   # >= 0; zero for touching windows


@dataclass(frozen=True)
class Overlapping:
    start: float
    end: float


TimingRegime = Disjoint | Overlapping


def classify_timing(wa: SwitchingWindow, wb: SwitchingWindow) -> TimingRegime:
    """Disjoint (touching counts as disjoint) or Overlapping window pair."""
    if wa.t_off <= wb.t_on:
        return Disjoint(first="A", gap=wb.t_on - wa.t_off)
    if wb.t_off <= wa.t_on:
        return Disjoint(first="B", gap=wa.t_on - wb.t_off)
    return Overlapping(start=max(wa.t_on, wb.t_on), end=min(wa.t_off, wb.t_off))


def _intersects(win: SwitchingWindow, lo: float, hi: float) -> bool:
    # closed intervals: boundary contact counts as light connection
    return win.t_on <= hi and win.t_off >= lo


def _contained(win: SwitchingWindow, lo: float, hi: float) -> bool:
    return lo <= win.t_on and win.t_off <= hi


def classify_causal(s: Scenario) -> CausalClass:
    """Causal relation of the two switching periods at separation ``separation``.

    Light emitted during one detector's window reaches the other during
    the window shifted by the light-crossing time; the relation of each
    window to the partner's arrival interval fixes the class.
    """
    r = s.separation
    wa, wb = s.det_a.window, s.det_b.window
    arr_ab = (wa.t_on + r, wa.t_off + r)   # light from A arriving at B
    arr_ba = (wb.t_on + r, wb.t_off + r)   # light from B arriving at A
    if _contained(wb, *arr_ab) or _contained(wa, *arr_ba):
        return CausalClass.FULLY_LIGHT_CONNECTED
    if _intersects(wb, *arr_ab) or _intersects(wa, *arr_ba):
        return CausalClass.PARTIALLY_LIGHT_CONNECTED
    if wb.t_on > arr_ab[1] or wa.t_on > arr_ba[1]:
        return CausalClass.PURELY_TIMELIKE
    return CausalClass.PURELY_SPACELIKE


def light_contact_interval(wa: SwitchingWindow, wb: SwitchingWindow) -> tuple[float, float]:
    """Separation range over which the windows are at least partially light connected.

    Requires the later window to be wb (wb.t_on >= wa.t_on).
    """
    if wb.t_on < wa.t_on:
        raise ValueError("light_contact_interval: wb must not start before wa")
    return (max(0.0, wb.t_on - wa.t_off), wb.t_off - wa.t_on)
