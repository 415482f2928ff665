"""Pin the simulated substrate's exact modeled schedule.

The determinism tests elsewhere only check that two runs agree and that
makespans order sensibly; a refactor that moved one variant to another
virtual worker, or priced a merge differently, would pass them.  This
module records the modeled schedule of a small SW1 grid on the ``sim``
substrate -- ``serial`` plus ``simulated`` at ``T = 3`` in variant,
shard (``regions=2``) and hybrid (``shard_threshold=0``) lowering --
and compares every value with exact equality:

* per variant: ``start``, ``finish``, ``thread_id``, ``response_time``
  and a digest of the label array;
* per run: the batch makespan.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import Session, VariantSet
from repro.data.registry import load_dataset

VSET = VariantSet.from_product([0.15, 0.25, 0.35], [4, 8])

RUNS = {
    "serial": {"executor": "serial"},
    "variant": {"executor": "simulated", "n_threads": 3},
    "shard": {"executor": "simulated", "n_threads": 3, "regions": 2},
    "hybrid": {"executor": "simulated", "n_threads": 3, "shard_threshold": 0},
}

#: run -> (makespan, {(eps, minpts): (start, finish, thread_id,
#: response_time, label digest)}), all on the work-unit clock.
PINNED = {
    'serial': (
        1747979.4399999997,
        {
            (0.15, 4): (706373.8999999999, 1111050.88, 0, 404676.98, '152ca673220c5681'),
            (0.15, 8): (0.0, 706373.8999999999, 0, 706373.8999999999, '2825d1d18b93fa14'),
            (0.25, 4): (1681553.5899999999, 1724245.2599999998, 0, 42691.67, '2d88b9865fceb548'),
            (0.25, 8): (1111050.88, 1681553.5899999999, 0, 570502.71, 'd3fb9b6272c872f4'),
            (0.35, 4): (1740170.2299999997, 1747979.4399999997, 0, 7809.21, '15e2bc6488865eb0'),
            (0.35, 8): (1724245.2599999998, 1740170.2299999997, 0, 15924.97, '29d783373e2b092a'),
        },
    ),
    'variant': (
        1575587.0624999998,
        {
            (0.15, 4): (0.0, 728408.3999999999, 1, 728408.3999999999, '1816fcac2ae9ff43'),
            (0.15, 8): (0.0, 728408.3999999999, 0, 728408.3999999999, '2825d1d18b93fa14'),
            (0.25, 4): (728408.3999999999, 773615.2374999999, 0, 45206.837499999994, '2d88b9865fceb548'),
            (0.25, 8): (0.0, 878278.6, 2, 878278.6, '22232db521231e82'),
            (0.35, 4): (773615.2374999999, 782709.7499999999, 0, 9094.5125, '15e2bc6488865eb0'),
            (0.35, 8): (728408.3999999999, 1575587.0624999998, 1, 847178.6624999999, '29d783373e2b092a'),
        },
    ),
    'shard': (
        700184.65,
        {
            (0.15, 4): (72528.15, 130135.95, 2, 57607.8, '1816fcac2ae9ff43'),
            (0.15, 8): (0.0, 72528.15, 2, 72528.15, '2825d1d18b93fa14'),
            (0.25, 4): (238167.8, 345554.55, 2, 107386.75, '54356abd7579648e'),
            (0.25, 8): (130135.95, 238167.8, 2, 108031.84999999999, '22232db521231e82'),
            (0.35, 4): (522945.2, 700184.65, 2, 177239.45, 'df641d344baa4f1a'),
            (0.35, 8): (345554.55, 522945.2, 2, 177390.65000000002, '6a23dbac8393ca91'),
        },
    ),
    'hybrid': (
        1314525.5124999997,
        {
            (0.15, 4): (49463.850000000006, 467346.85, 0, 417883.0, '152ca673220c5681'),
            (0.15, 8): (0.0, 49463.850000000006, 2, 49463.850000000006, '2825d1d18b93fa14'),
            (0.25, 4): (49463.850000000006, 636462.6625, 2, 586998.8125, '2d88b9865fceb548'),
            (0.25, 8): (49463.850000000006, 636462.6625, 1, 586998.8125, 'd3fb9b6272c872f4'),
            (0.35, 4): (636462.6625, 645557.1749999999, 1, 9094.5125, '15e2bc6488865eb0'),
            (0.35, 8): (467346.85, 1314525.5124999997, 0, 847178.6624999999, '29d783373e2b092a'),
        },
    ),

}


def _digest(labels: np.ndarray) -> str:
    raw = np.ascontiguousarray(labels, dtype="<i8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


@pytest.fixture(scope="module")
def session():
    with Session(load_dataset("SW1", 0.002).points, dataset="SW1") as s:
        yield s


@pytest.mark.parametrize("run", sorted(RUNS))
def test_modeled_schedule_is_pinned(session, run):
    batch = session.run(VSET, **RUNS[run])
    makespan, rows = PINNED[run]
    got = {
        r.variant.as_tuple(): (
            r.start,
            r.finish,
            r.thread_id,
            r.response_time,
            _digest(batch.results[r.variant].labels),
        )
        for r in batch.record.records
    }
    assert got == rows
    assert batch.record.makespan == makespan
