"""Profiling: discover FDs and CFDs from data, then use them for cleaning.

The tutorial lists profiling — discovering dependencies from sample data —
as a core data-quality activity.  This example discovers constraints from
a clean sample of the customer relation, shows a few of them, and then
uses the *discovered* CFDs (not the hand-written ones) to detect errors in
a dirtied copy of the data.

Run with::

    python examples/discovery_profiling.py
"""

from repro.constraints.cfd import merge_cfds
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import CFDDetector
from repro.discovery.cfd_discovery import CFDDiscovery
from repro.discovery.fd_discovery import discover_fds

SAMPLE_SIZE = 600
NOISE_RATE = 0.03


def main() -> None:
    generator = CustomerGenerator(seed=77)
    sample = generator.generate(SAMPLE_SIZE)

    # 1. discover classical FDs (levelwise, stripped partitions)
    fds = discover_fds(sample, max_lhs_size=2)
    print(f"discovered {len(fds)} minimal FDs with at most 2 LHS attributes, e.g.:")
    for fd in fds[:6]:
        print(f"  {fd}")

    # 2. discover CFDs: constant patterns via CFDMiner-style itemsets,
    #    variable CFDs via conditional refinement
    discovery = CFDDiscovery(sample, min_support=10, max_lhs_size=2)
    constant_cfds = discovery.discover_constant_cfds()
    variable_cfds = discovery.discover_variable_cfds()
    print(f"\ndiscovered {len(constant_cfds)} constant CFDs and "
          f"{len(variable_cfds)} variable CFDs (support >= 10), e.g.:")
    for cfd in (constant_cfds[:3] + variable_cfds[:3]):
        print(f"  {cfd}")

    # 3. use the discovered variable CFDs to find errors in a dirtied copy
    noise = inject_noise(sample, rate=NOISE_RATE, attributes=["street", "city"], seed=5)
    # (merged tableaux: one grouping pass per embedded FD)
    report = CFDDetector(noise.dirty, merge_cfds(variable_cfds)).detect()
    caught = report.violating_tids()
    dirty_tids = {tid for tid, _ in noise.error_cells}
    coverage = len(caught & dirty_tids) / len(dirty_tids) if dirty_tids else 1.0
    print(f"\ninjected errors into {len(dirty_tids)} tuples; the discovered CFDs flag "
          f"{len(caught)} tuples, covering {coverage:.0%} of the dirtied ones")


if __name__ == "__main__":
    main()
