"""Host-speed probe: a fixed piece of pure-Python work, timed around each call.

The host's cores are shared with other tenants, and kinflow's calls, which
are dominated by interpreter work (per-step loops over small numpy arrays),
run up to 2.5x slower for seconds to minutes at a time while the host is
busy.  The probe is slowed by the same contention, so a call's time divided
by the probe's time around it moves with kinflow and far less with the host.
Times are reported as ``PROBE_S * call / probe``: seconds at the speed at
which the probe takes ``PROBE_S``.  The probe does not touch kinflow, so any
change in kinflow's time shows in full.
"""

import time

# about the probe's time on an idle core of the 2-vCPU host the README
# describes; it fixes the scale of the reported seconds, nothing else
PROBE_S = 0.005


def probe() -> float:
    """Seconds taken by 60 000 iterations of integer arithmetic in Python."""
    start = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    return time.perf_counter() - start


def normalized(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the probes just before and
    just after."""
    return PROBE_S * seconds / (0.5 * (before + after))
