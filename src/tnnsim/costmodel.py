"""Cost model for the comparator-bank front end of the encoder.

A bank of ``n`` comparators samples ``n`` pixels of a buffered image per
clock, so an image of ``p`` pixels takes ``ceil(p / n)`` cycles. The model
prices that dataflow:

* area grows linearly with comparator count,
* dynamic energy is charged per comparator per cycle at the nominal clock
  period, which makes it independent of the actual clock frequency,
* leakage energy accrues over wall-clock time, so it shrinks as the clock
  speeds up,
* when the count does not divide the pixel total, the ragged final cycle
  still clocks every comparator and the idle slots burn full energy.

A consequence worth knowing: for any comparator count that exactly divides
the pixel count, ``count * cycles`` is the same number, so per-image energy
is identical across all divisor-sized banks at a given frequency. Non
divisor counts waste slots and always cost strictly more.

Every price comes from one fixed comparator cell, synthesized at a 1 GHz
nominal clock: 1.33 area units per comparator, 546.3058 nW dynamic power at
that clock, 35.7914 nW leakage and a 0.04 ns critical path, so clocks above
25 GHz are rejected. The cell is not configurable; only the bank's width,
clock and image size are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Sequence, TextIO


class TimingViolationError(ValueError):
    """Clock period shorter than the comparator critical path."""


@dataclass(frozen=True)
class ComparatorBankConfig:
    comparator_count: int
    clock_frequency: float
    pixels_per_image: int

    def __post_init__(self):
        if self.comparator_count < 1:
            raise ValueError(f"comparator_count must be >= 1, got {self.comparator_count}")
        if not 0 < self.clock_frequency < math.inf:
            raise ValueError(
                f"clock_frequency must be positive and finite, got {self.clock_frequency}"
            )
        if self.pixels_per_image < 1:
            raise ValueError(f"pixels_per_image must be >= 1, got {self.pixels_per_image}")


# The comparator cell, synthesized at a 1 GHz nominal clock.
AREA_PER_COMPARATOR = 1.33
DYNAMIC_POWER_AT_NOMINAL = 546.3058e-9
LEAKAGE_POWER = 35.7914e-9
NOMINAL_CLOCK_PERIOD = 1e-9
CRITICAL_PATH = 0.04e-9


@dataclass(frozen=True)
class CostReport:
    cycles: int
    processing_time: float
    area: float
    dynamic_energy: float
    leakage_energy: float
    total_energy: float
    edp: float
    wasted_comparator_cycles: int


def cost_report(cfg: ComparatorBankConfig) -> CostReport:
    """Price one image through the bank.

    Raises ``TimingViolationError`` when the requested clock period is
    shorter than the comparator critical path.
    """
    period = 1.0 / cfg.clock_frequency
    if period < CRITICAL_PATH:
        raise TimingViolationError(
            f"clock period {period:.3e} s below critical path {CRITICAL_PATH:.3e} s"
        )
    cycles = -(-cfg.pixels_per_image // cfg.comparator_count)
    # Comparator-cycle slots as an exact integer first, so divisor-sized
    # banks produce bitwise identical energies.
    slots = cfg.comparator_count * cycles
    processing_time = cycles * period
    dynamic_energy = slots * DYNAMIC_POWER_AT_NOMINAL * NOMINAL_CLOCK_PERIOD
    leakage_energy = slots * LEAKAGE_POWER * period
    total_energy = dynamic_energy + leakage_energy
    return CostReport(
        cycles=cycles,
        processing_time=processing_time,
        area=cfg.comparator_count * AREA_PER_COMPARATOR,
        dynamic_energy=dynamic_energy,
        leakage_energy=leakage_energy,
        total_energy=total_energy,
        edp=total_energy * processing_time,
        wasted_comparator_cycles=slots - cfg.pixels_per_image,
    )


# Each sweep axis: the config field it sets and that field's type.
_AXES = {
    "comparator_count": ("comparator_count", int),
    "frequency": ("clock_frequency", float),
    "image_size": ("pixels_per_image", int),
}
SWEEP_AXES = tuple(_AXES)


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row: the swept value plus its report, or the error text."""

    value: float
    report: Optional[CostReport]
    error: Optional[str]


def sweep(axis: str, values: Sequence[float], base: ComparatorBankConfig) -> list[SweepPoint]:
    """Evaluate the cost model along one axis, keeping input order.

    Every value must be positive and finite, and whole on the count axes
    (``comparator_count``, ``image_size``), or ``ValueError`` names it
    before any point is priced. Config or timing errors at a point are
    captured in that row instead of aborting the rest of the sweep.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    field, cast = _AXES[axis]
    if len(values) == 0:
        raise ValueError("sweep needs at least one value")
    for v in values:
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"sweep values must be positive and finite, got {v}")
        if cast is int and v != int(v):
            raise ValueError(f"{axis} values must be whole numbers, got {v}")
    points = []
    for v in values:
        try:
            report = cost_report(replace(base, **{field: cast(v)}))
            points.append(SweepPoint(value=v, report=report, error=None))
        except ValueError as exc:
            points.append(SweepPoint(value=v, report=None, error=str(exc)))
    return points


REPORT_FIELDS = tuple(f.name for f in fields(CostReport))


def write_sweep_csv(points: Iterable[SweepPoint], stream: TextIO) -> None:
    """Emit one row per sweep point, columns exactly the report fields.

    Rows whose point errored are left empty; order matches the input
    values, so the caller can line rows back up with them.
    """
    stream.write(",".join(REPORT_FIELDS) + "\n")
    for pt in points:
        if pt.report is None:
            stream.write("," * (len(REPORT_FIELDS) - 1) + "\n")
            continue
        cells = []
        for name in REPORT_FIELDS:
            val = getattr(pt.report, name)
            cells.append(str(val) if isinstance(val, int) else repr(float(val)))
        stream.write(",".join(cells) + "\n")

