"""Where does the timing channel peak?

Sweeps the arrival-to-service ratio, tabulates the achievable rate against
the universal converse bound, and refines the peak. Writes the curve to
bound_curves.csv under $TIMINGQ_OUTDIR when that is set (as the CLI does
with relative --out paths), else in the current directory, and prints the
headline numbers.
"""

import math
import os
from pathlib import Path

import numpy as np

from timingq import Exponential, maximize_rate, per_service_time, sweep, universal_bound

grid = np.linspace(0.05, 10.0, 120)
curve = sweep(grid, mu=1.0, include_cas=False)

out = Path(os.environ.get("TIMINGQ_OUTDIR") or ".") / "bound_curves.csv"
out.parent.mkdir(parents=True, exist_ok=True)
out.write_text(curve.to_csv({"mu": 1.0, "grid": "0.05:10:120"}))

peak = maximize_rate(1.0)
svc = Exponential(1.0)
universal = per_service_time(universal_bound(svc), svc)

print(f"normalized rate curve written to {out}")
print(f"peak rate   : {peak.value:.4f} nats per mean service time "
      f"at rho = {peak.rho_star:.4f}")
print(f"universal   : {universal:.4f} (= 1/e, independent of the arrival rate)")
print(f"ratio       : {peak.value / universal:.4f} "
      f"(the bufferless queue gives up under 10%)")

# the two bounds pinch together at light load
for rho in (0.05, 0.1, 0.2):
    row = np.searchsorted(grid, rho)
    r, u = curve.rate_R_norm[row], curve.universal_norm[row]
    print(f"rho={grid[row]:.3f}: rate {r:.5f} vs universal {u:.5f} "
          f"(gap {100 * (u - r) / u:.1f}%)")

assert abs(peak.value - 0.3340) < 5e-4
assert abs(universal - math.exp(-1)) < 1e-12
