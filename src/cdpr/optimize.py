"""Design-parameter sweeps: pulley span, counterbalance tension, routing
variant comparison, and counterweight sizing."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import PlanarCaseGeometry, RobotGeometry, ScanRegion, Variant, expand_planar
from .workspace import CoverageReport, coverage, scan

__all__ = ["SweepResult", "WpSweepOutcome", "CounterweightSizing",
           "sweep_wp", "sweep_t5", "compare_configs", "counterweight"]


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    values: tuple            # strictly increasing
    areas: tuple             # m^2, aligned with values
    coverages: tuple         # CoverageReport per sample

    def __post_init__(self):
        if not self.values:
            raise ConfigurationError("sweep needs at least one parameter value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigurationError("sweep values must be strictly increasing")

    @property
    def argmax_value(self) -> float:
        return self.values[int(np.argmax(self.areas))]

    @property
    def argmax_area(self) -> float:
        return float(max(self.areas))

    def csv_rows(self, extra: dict | None = None) -> list[str]:
        """One CSV row per sample, led by the values of `extra`."""
        lead = [str(v) for v in (extra or {}).values()]
        return [",".join([*lead, self.parameter, f"{v:.6g}", f"{a:.6g}",
                          f"{c.covered_fraction:.6g}"])
                for v, a, c in zip(self.values, self.areas, self.coverages)]

    def to_csv(self, path, extra: dict | None = None) -> None:
        write_sweeps_csv(path, [(extra or {}, self)])


def write_sweeps_csv(path, parts) -> None:
    """Write sweeps as one CSV. `parts` is a list of (extra, SweepResult):
    each `extra` dict names the leading columns (the same keys for every
    part) and gives their values for that sweep's rows."""
    header = ",".join([*parts[0][0], "param", "value", "area_m2", "covered_fraction"])
    lines = [header, *(row for extra, res in parts for row in res.csv_rows(extra))]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class WpSweepOutcome:
    per_t5: dict             # t5 -> SweepResult over wp
    aggregate_argmax_wp: float   # wp maximizing total area across the t5 set


@dataclass(frozen=True)
class CounterweightSizing:
    force_N: float
    mass_kg: float


def _prepare(values) -> tuple:
    values = tuple(sorted(set(float(v) for v in values)))
    if not values:
        raise ConfigurationError("parameter value list is empty")
    return values


def _sample(geom: RobotGeometry, region: ScanRegion, t5: float, jobs: int):
    grid = scan(geom, region, t5, jobs=jobs)
    return grid.area_m2, coverage(grid, region)


def sweep_wp(template: PlanarCaseGeometry, wp_values, t5_values,
             region: ScanRegion | None = None, variant: Variant = Variant.A,
             jobs: int = 1) -> WpSweepOutcome:
    """Workspace area versus pulley span, one sweep per counterbalance
    tension. The aggregate argmax is the span maximizing summed area over
    the tension set."""
    wp_values = _prepare(wp_values)
    t5_values = _prepare(t5_values)
    region = region or template.scan
    if region is None:
        raise ConfigurationError("no scan region given and the geometry carries none")
    if any(wp > template.w / 2 for wp in wp_values):
        raise ConfigurationError("pulley span exceeds half the frame width")
    per_t5 = {}
    totals = np.zeros(len(wp_values))
    for t5 in t5_values:
        areas, covs = [], []
        for wp in wp_values:
            area, cov = _sample(expand_planar(template.with_wp(wp), variant),
                                region, t5, jobs)
            areas.append(area)
            covs.append(cov)
        totals += np.asarray(areas)
        per_t5[t5] = SweepResult("wp", wp_values, tuple(areas), tuple(covs))
    return WpSweepOutcome(per_t5=per_t5,
                          aggregate_argmax_wp=wp_values[int(np.argmax(totals))])


def sweep_t5(geom: RobotGeometry, t5_values, region: ScanRegion | None = None,
             jobs: int = 1) -> SweepResult:
    """Workspace area versus counterbalance tension at fixed geometry."""
    t5_values = _prepare(t5_values)
    region = region or geom.scan
    if region is None:
        raise ConfigurationError("no scan region given and the geometry carries none")
    areas, covs = [], []
    for t5 in t5_values:
        area, cov = _sample(geom, region, t5, jobs)
        areas.append(area)
        covs.append(cov)
    return SweepResult("t5", t5_values, tuple(areas), tuple(covs))


def compare_configs(template: PlanarCaseGeometry, variants, wp: float,
                    t5_values, region: ScanRegion | None = None,
                    jobs: int = 1) -> dict:
    """Counterbalance-tension sweeps for each routing variant at a fixed
    pulley span. Returns {variant: SweepResult}; rank by peak area."""
    variants = [Variant(v) for v in variants]
    if not variants:
        raise ConfigurationError("variant list is empty")
    template = template.with_wp(wp)
    return {v: sweep_t5(expand_planar(template, v), t5_values, region, jobs)
            for v in variants}


def counterweight(t5: float, cb_cable_count: int,
                  gravity: float = 9.81) -> CounterweightSizing:
    """Counterweight sizing from the shared cable tension: the load is the
    cable count times the tension. Reported both as force and as the
    equivalent suspended mass."""
    if t5 < 0:
        raise ConfigurationError("tension must be >= 0")
    if cb_cable_count < 1:
        raise ConfigurationError("cable count must be >= 1")
    force = cb_cable_count * t5
    return CounterweightSizing(force_N=force, mass_kg=force / gravity)
