"""The reference probe: a fixed pure-Python loop whose duration tracks the
host's current speed.

It does dict updates and integer arithmetic, the kind of work convcode's
inner loops do, and imports nothing but `time`, so a fresh interpreter can
run it without loading any module that `convcode` would then find already
imported.  A time measured next to probes converts to reference seconds:
seconds on a host where the probe takes REF_PROBE_S.
"""

import time

PROBE_LOOPS = 12000
REF_PROBE_S = 0.004


def probe() -> float:
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        key = (i * 7919) % 4096
        table[key] = table.get(key, 0) + i
        acc ^= (key * 31) % 257
    return time.perf_counter() - start
