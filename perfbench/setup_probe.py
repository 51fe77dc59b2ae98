"""Set-up probe, run in a fresh interpreter by run.py: import the package,
load the workload's geometry and make a first warm-up call, then print the
elapsed seconds and the imported package path as JSON.

Usage: python3 setup_probe.py WORKLOAD [ELASTIC_GEOMETRY_JSON]
(with the checkout's src directory on PYTHONPATH)
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import cdpr  # noqa: E402

workload = sys.argv[1]
geom = cdpr.expand_planar(cdpr.load_table1_preset(), cdpr.Variant.A)
if workload == "pose-queries":
    pose = cdpr.PlatformPose.planar(0.0, 0.0)
    cdpr.cost_rigid(geom, pose, 3000.0)
    cdpr.nullspace_oracle(geom, pose, 3000.0)
else:
    import cdpr.cli  # noqa: F401  (the grid workloads drive the CLI)
    mode = "rigid"
    if workload == "map-export":
        geom = cdpr.expand_planar(cdpr.load_geometry(sys.argv[2]), cdpr.Variant.A)
        mode = "elastic"
    r = geom.scan
    coarse = cdpr.ScanRegion(r.x_min, r.x_max, r.y_min, r.y_max, 0.5)
    cdpr.scan(geom, coarse, 3000.0, mode)
print(json.dumps({"setup_s": time.perf_counter() - t0, "package": cdpr.__file__}))
