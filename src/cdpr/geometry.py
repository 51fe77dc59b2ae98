"""Robot geometry data model: planar case parameterization, the general
cable-driven robot description it expands into, and file I/O.

The planar case has four driven cables running from the frame corners to the
platform top edge, plus a counterbalance: cables from platform-mounted points
over high fixed pulleys at +/- w_p, both loaded with the same tension by a
shared counterweight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, GeometryError, GeometryParseError

__all__ = [
    "Variant",
    "ScanRegion",
    "ElasticParams",
    "PlatformPose",
    "PlanarCaseGeometry",
    "RobotGeometry",
    "expand_planar",
    "load_geometry",
    "save_geometry",
    "table1_preset_path",
    "load_table1_preset",
]

_DATA_DIR = Path(__file__).parent / "data"


class Variant(str, Enum):
    """Counterbalance cable routing variants.

    A: both counterbalance cables attach at the platform top center and run
       to high pulleys at -w_p and +w_p.
    B: mirrored attachments at +/- w_bp on the platform top, same-side pulleys.
    C: like B but attachments on the platform bottom edge.
    D: like B but both cables reroute over a single central fixed pulley.
    """

    A = "A"
    B = "B"
    C = "C"
    D = "D"


@dataclass(frozen=True)
class ScanRegion:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    step: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise GeometryError("x_min", "x_min must be < x_max")
        if not self.y_min < self.y_max:
            raise GeometryError("y_min", "y_min must be < y_max")
        if not self.step > 0:
            raise GeometryError("step", "step must be > 0")

    @property
    def nx(self) -> int:
        return _cell_count(self.x_max - self.x_min, self.step)

    @property
    def ny(self) -> int:
        return _cell_count(self.y_max - self.y_min, self.step)

    def x_values(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.nx)

    def y_values(self) -> np.ndarray:
        return self.y_min + self.step * np.arange(self.ny)

    @property
    def area_m2(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, other: "ScanRegion", tol: float = 1e-9) -> bool:
        return (
            self.x_min <= other.x_min + tol
            and self.x_max >= other.x_max - tol
            and self.y_min <= other.y_min + tol
            and self.y_max >= other.y_max - tol
        )


def _cell_count(span: float, step: float) -> int:
    """Samples from the lower bound at multiples of step, the upper bound
    included: a quotient that rounding puts just below a whole number (0.3 /
    0.1 = 2.9999999999999996) still counts that last sample."""
    q = span / step
    return int(np.floor(q + 1e-9 * q)) + 1


@dataclass(frozen=True)
class ElasticParams:
    """Axial stiffness EA and unstretched-length windows, one entry per cable
    (driven cables first, then counterbalance cables)."""

    ea: np.ndarray
    l0_min: np.ndarray
    l0_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ea", _freeze(np.asarray(self.ea, float)))
        object.__setattr__(self, "l0_min", _freeze(np.asarray(self.l0_min, float)))
        object.__setattr__(self, "l0_max", _freeze(np.asarray(self.l0_max, float)))
        if not (self.ea.shape == self.l0_min.shape == self.l0_max.shape):
            raise GeometryError("elastic", "EA and l0 bound arrays must share a length")
        if np.any(self.ea <= 0):
            raise GeometryError("elastic.EA_N", "EA must be > 0 for every cable")
        if np.any(self.l0_min < 0):
            raise GeometryError("elastic.l0_min_m", "l0_min must be >= 0")
        if np.any(self.l0_min > self.l0_max):
            raise GeometryError("elastic.l0_max_m", "requires l0_min <= l0_max")


@dataclass(frozen=True)
class PlatformPose:
    """Platform position. Orientation is fixed at zero rotation."""

    position: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.position, float)
        if p.shape != (3,):
            raise GeometryError("position", "must be a 3-vector")
        object.__setattr__(self, "position", _freeze(p))

    @classmethod
    def planar(cls, x: float, y: float) -> "PlatformPose":
        return cls(np.array([x, y, 0.0]))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RobotGeometry:
    """General cable robot description: n driven cables from frame anchors to
    platform attachments, m counterbalance cables from platform points to
    fixed pulleys. All position vectors are 3D, expressed in the frame at the
    frame center (anchors, pulleys) or the platform center (attachments)."""

    anchors: np.ndarray            # (n, 3)
    attachments: np.ndarray        # (n, 3)
    cb_pulleys_fixed: np.ndarray   # (m, 3)
    cb_pulleys_platform: np.ndarray  # (m, 3)
    platform_mass: float
    gravity: float
    tension_min: np.ndarray        # (n + m,)
    tension_max: np.ndarray        # (n + m,)
    cb_cable_count: int = 2
    platform_inertia: np.ndarray = field(
        default_factory=lambda: np.eye(3)
    )  # used only by the dynamics residual
    elastic: ElasticParams | None = None
    scan: ScanRegion | None = None

    def __post_init__(self):
        for name in ("anchors", "attachments", "cb_pulleys_fixed",
                     "cb_pulleys_platform", "tension_min", "tension_max",
                     "platform_inertia"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        n, m = self.n, self.m
        if n < 1:
            raise GeometryError("anchors", "need at least one driven cable")
        if self.attachments.shape != (n, 3):
            raise GeometryError("attachments", f"expected shape ({n}, 3)")
        if self.cb_pulleys_platform.shape != (m, 3):
            raise GeometryError("cb_pulleys_platform", f"expected shape ({m}, 3)")
        if self.tension_min.shape != (n + m,) or self.tension_max.shape != (n + m,):
            raise GeometryError("tension_min", f"bound vectors must have length {n + m}")
        if np.any(self.tension_min < 0):
            raise GeometryError("tension_min", "lower bounds must be >= 0")
        if np.any(self.tension_min > self.tension_max):
            raise GeometryError("tension_max", "requires tension_min <= tension_max")
        if not self.platform_mass > 0:
            raise GeometryError("platform_mass", "must be > 0")
        if not self.gravity > 0:
            raise GeometryError("gravity", "must be > 0")
        if self.cb_cable_count < 0:
            raise GeometryError("cb_cable_count", "must be >= 0")
        if self.platform_inertia.shape != (3, 3):
            raise GeometryError("platform_inertia", "must be a 3x3 matrix")
        if self.elastic is not None and self.elastic.ea.shape != (n + m,):
            raise GeometryError("elastic", f"per-cable arrays must have length {n + m}")

    @property
    def n(self) -> int:
        return self.anchors.shape[0]

    @property
    def m(self) -> int:
        return self.cb_pulleys_fixed.shape[0]

    @property
    def cb_tension_min(self) -> float:
        """Lower bound shared by the counterbalance cables (0 when m = 0)."""
        return float(self.tension_min[self.n]) if self.m else 0.0

    @property
    def cb_tension_max(self) -> float:
        return float(self.tension_max[self.n]) if self.m else np.inf

    def with_scan(self, scan: ScanRegion) -> "RobotGeometry":
        return replace(self, scan=scan)


@dataclass(frozen=True)
class PlanarCaseGeometry:
    """Scalar dimensioning of the planar four-cable case.

    Frame w x h; platform w_b wide with upper/lower attachment offsets h_1 and
    h_bu; counterbalance pulleys at (+/- w_p, h_p); platform counterbalance
    points at height h_bp (offset w_bp for the mirrored variants).
    """

    w: float
    h: float
    w_b: float
    w_p: float
    h_p: float
    h_bp: float
    w_bp: float
    h_1: float
    h_bu: float
    mass_kg: float = 300.0
    gravity_mps2: float = 9.81
    tension_min_N: tuple = (0.0, 0.0, 0.0, 0.0, 0.0)
    tension_max_N: tuple = (16000.0, 16000.0, 12000.0, 12000.0, 16000.0)
    cb_cable_count: int = 2
    elastic: ElasticParams | None = None
    scan: ScanRegion | None = None

    def __post_init__(self):
        for name in ("w", "h", "w_b", "w_p", "h_p", "h_bp", "w_bp", "h_1", "h_bu"):
            if not getattr(self, name) > 0:
                raise GeometryError(name, "length must be > 0")
        if self.w_b >= self.w:
            raise GeometryError("w_b", "platform wider than frame")
        if self.h_1 + self.h_bu > self.h:
            raise GeometryError("h_1", "platform taller than frame (h_1 + h_bu > h)")
        if len(self.tension_min_N) != 5 or len(self.tension_max_N) != 5:
            raise GeometryError("tension_min_N", "planar case uses 5 tension bounds")
        object.__setattr__(self, "tension_min_N", tuple(float(v) for v in self.tension_min_N))
        object.__setattr__(self, "tension_max_N", tuple(float(v) for v in self.tension_max_N))
        if any(v < 0 for v in self.tension_min_N):
            raise GeometryError("tension_min_N", "lower bounds must be >= 0")
        if any(lo > hi for lo, hi in zip(self.tension_min_N, self.tension_max_N)):
            raise GeometryError("tension_max_N", "requires tension_min <= tension_max")
        if not self.mass_kg > 0:
            raise GeometryError("mass_kg", "must be > 0")
        if not self.gravity_mps2 > 0:
            raise GeometryError("gravity_mps2", "must be > 0")

    def with_wp(self, w_p: float) -> "PlanarCaseGeometry":
        return replace(self, w_p=w_p)


def expand_planar(geom: PlanarCaseGeometry, variant: Variant = Variant.A) -> RobotGeometry:
    """Expand the scalar planar case into an explicit RobotGeometry.

    Driven cables run from the four frame corners to the platform top edge:
    the upper pair to (-/+ w_b/2, h_1), the lower pair crossing up to
    (+/- w_b/2, h_bu). The counterbalance routing depends on the variant.
    """
    variant = Variant(variant)
    g = geom
    anchors = np.array([
        [-g.w / 2, g.h / 2, 0.0],
        [g.w / 2, g.h / 2, 0.0],
        [g.w / 2, -g.h / 2, 0.0],
        [-g.w / 2, -g.h / 2, 0.0],
    ])
    attachments = np.array([
        [-g.w_b / 2, g.h_1, 0.0],
        [g.w_b / 2, g.h_1, 0.0],
        [g.w_b / 2, g.h_bu, 0.0],
        [-g.w_b / 2, g.h_bu, 0.0],
    ])
    side_pulleys = np.array([[-g.w_p, g.h_p, 0.0], [g.w_p, g.h_p, 0.0]])
    if variant is Variant.A:
        cb_platform = np.array([[0.0, g.h_bp, 0.0], [0.0, g.h_bp, 0.0]])
        cb_fixed = side_pulleys
    elif variant is Variant.B:
        cb_platform = np.array([[-g.w_bp, g.h_bp, 0.0], [g.w_bp, g.h_bp, 0.0]])
        cb_fixed = side_pulleys
    elif variant is Variant.C:
        cb_platform = np.array([[-g.w_bp, -g.h_bp, 0.0], [g.w_bp, -g.h_bp, 0.0]])
        cb_fixed = side_pulleys
    else:  # D: both cables reroute over a single central fixed pulley
        cb_platform = np.array([[-g.w_bp, g.h_bp, 0.0], [g.w_bp, g.h_bp, 0.0]])
        cb_fixed = np.array([[0.0, g.h_p, 0.0], [0.0, g.h_p, 0.0]])

    m = cb_fixed.shape[0]
    tension_min = np.array(list(g.tension_min_N[:4]) + [g.tension_min_N[4]] * m)
    tension_max = np.array(list(g.tension_max_N[:4]) + [g.tension_max_N[4]] * m)
    return RobotGeometry(
        anchors=anchors,
        attachments=attachments,
        cb_pulleys_fixed=cb_fixed,
        cb_pulleys_platform=cb_platform,
        platform_mass=g.mass_kg,
        gravity=g.gravity_mps2,
        tension_min=tension_min,
        tension_max=tension_max,
        cb_cable_count=g.cb_cable_count,
        elastic=g.elastic,
        scan=g.scan,
    )


# ---------------------------------------------------------------------------
# File I/O. Schema: JSON object with "kind" = "planar_case" | "general".

def _parse_scan(obj) -> ScanRegion:
    try:
        return ScanRegion(
            x_min=float(obj["x_min"]),
            x_max=float(obj["x_max"]),
            y_min=float(obj["y_min"]),
            y_max=float(obj["y_max"]),
            step=float(obj["step"]),
        )
    except KeyError as e:
        raise GeometryParseError(f"scan: missing key {e.args[0]!r}") from e


def _parse_elastic(obj) -> ElasticParams:
    try:
        return ElasticParams(
            ea=np.asarray(obj["EA_N"], float),
            l0_min=np.asarray(obj["l0_min_m"], float),
            l0_max=np.asarray(obj["l0_max_m"], float),
        )
    except KeyError as e:
        raise GeometryParseError(f"elastic: missing key {e.args[0]!r}") from e


def load_geometry(path) -> PlanarCaseGeometry | RobotGeometry:
    """Load a geometry file. Returns PlanarCaseGeometry for kind
    "planar_case" and RobotGeometry for kind "general". Raises
    GeometryParseError on malformed files, GeometryError on invariant
    violations (naming the field)."""
    path = Path(path)
    text = path.read_text()
    if not text.strip():
        raise GeometryParseError(f"{path}: empty file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GeometryParseError(f"{path}:{e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict) or "kind" not in doc:
        raise GeometryParseError(f"{path}: missing top-level 'kind'")
    kind = doc["kind"]
    scan = _parse_scan(doc["scan"]) if "scan" in doc else None
    elastic = _parse_elastic(doc["elastic"]) if "elastic" in doc else None
    try:
        if kind == "planar_case":
            lengths = doc["lengths_m"]
            return PlanarCaseGeometry(
                w=float(lengths["w"]),
                h=float(lengths["h"]),
                w_b=float(lengths["w_b"]),
                w_p=float(lengths["w_p"]),
                h_p=float(lengths["h_p"]),
                h_bp=float(lengths["h_bp"]),
                w_bp=float(lengths["w_bp"]),
                h_1=float(lengths["h_1"]),
                h_bu=float(lengths["h_bu"]),
                mass_kg=float(doc["mass_kg"]),
                gravity_mps2=float(doc["gravity_mps2"]),
                tension_min_N=tuple(float(v) for v in doc["tension_min_N"]),
                tension_max_N=tuple(float(v) for v in doc["tension_max_N"]),
                cb_cable_count=int(doc.get("cb_cable_count", 2)),
                elastic=elastic,
                scan=scan,
            )
        if kind == "general":
            return RobotGeometry(
                anchors=np.asarray(doc["anchors_m"], float),
                attachments=np.asarray(doc["attachments_m"], float),
                cb_pulleys_fixed=np.asarray(doc.get("cb_pulleys_fixed_m", []), float).reshape(-1, 3),
                cb_pulleys_platform=np.asarray(doc.get("cb_pulleys_platform_m", []), float).reshape(-1, 3),
                platform_mass=float(doc["mass_kg"]),
                gravity=float(doc["gravity_mps2"]),
                tension_min=np.asarray(doc["tension_min_N"], float),
                tension_max=np.asarray(doc["tension_max_N"], float),
                cb_cable_count=int(doc.get("cb_cable_count", 2)),
                platform_inertia=np.asarray(doc.get("inertia_kgm2", np.eye(3).tolist()), float),
                elastic=elastic,
                scan=scan,
            )
    except KeyError as e:
        raise GeometryParseError(f"{path}: missing key {e.args[0]!r}") from e
    raise GeometryParseError(f"{path}: unknown kind {kind!r}")


def save_geometry(geom: PlanarCaseGeometry | RobotGeometry, path) -> None:
    """Write a geometry file that round-trips exactly through load_geometry
    (Python float JSON serialization preserves every bit)."""
    doc: dict = {}
    if isinstance(geom, PlanarCaseGeometry):
        doc["kind"] = "planar_case"
        doc["lengths_m"] = {k: getattr(geom, k) for k in
                            ("w", "h", "w_b", "w_p", "h_p", "h_bp", "w_bp", "h_1", "h_bu")}
        doc["mass_kg"] = geom.mass_kg
        doc["gravity_mps2"] = geom.gravity_mps2
        doc["tension_min_N"] = list(geom.tension_min_N)
        doc["tension_max_N"] = list(geom.tension_max_N)
        doc["cb_cable_count"] = geom.cb_cable_count
    elif isinstance(geom, RobotGeometry):
        doc["kind"] = "general"
        doc["anchors_m"] = geom.anchors.tolist()
        doc["attachments_m"] = geom.attachments.tolist()
        doc["cb_pulleys_fixed_m"] = geom.cb_pulleys_fixed.tolist()
        doc["cb_pulleys_platform_m"] = geom.cb_pulleys_platform.tolist()
        doc["mass_kg"] = geom.platform_mass
        doc["gravity_mps2"] = geom.gravity
        doc["tension_min_N"] = geom.tension_min.tolist()
        doc["tension_max_N"] = geom.tension_max.tolist()
        doc["cb_cable_count"] = geom.cb_cable_count
        doc["inertia_kgm2"] = geom.platform_inertia.tolist()
    else:
        raise ConfigurationError(f"cannot serialize {type(geom).__name__}")
    if geom.elastic is not None:
        doc["elastic"] = {
            "EA_N": geom.elastic.ea.tolist(),
            "l0_min_m": geom.elastic.l0_min.tolist(),
            "l0_max_m": geom.elastic.l0_max.tolist(),
        }
    if geom.scan is not None:
        doc["scan"] = {k: getattr(geom.scan, k) for k in
                       ("x_min", "x_max", "y_min", "y_max", "step")}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def table1_preset_path() -> Path:
    return _DATA_DIR / "table1_configA.json"


def load_table1_preset() -> PlanarCaseGeometry:
    geom = load_geometry(table1_preset_path())
    assert isinstance(geom, PlanarCaseGeometry)
    return geom
