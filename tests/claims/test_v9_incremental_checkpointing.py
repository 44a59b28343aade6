"""V9: delta checkpoints store fewer bytes than full ones.

Under ``checkpoint_mode="pruned+delta"`` a rank's checkpoint after its
first stores only the entries that changed. ``total_bytes()`` prices
the same (liveness-pruned) history stored as full checkpoints, and
``total_bytes(incremental=True)`` what was actually stored, so the pair
isolates the delta encoder. On the four small-state workloads the
saving is 0.8–4.7 %. In ``full`` mode the two figures are equal, so the
strict inequality below is what makes this a measurement.
"""

from dataclasses import replace

import pytest

from repro.bench.workloads import standard_workloads

#: workload -> (full-content bytes, stored bytes), 8 steps.
STORED_BYTES = {
    "jacobi": (6412, 6108),
    "ring_pipeline": (8150, 8068),
    "master_worker": (6997, 6937),
    "stencil_1d": (7441, 7385),
}


@pytest.mark.parametrize(
    "spec", standard_workloads(steps=8)[:4], ids=lambda spec: spec.label
)
def test_delta_checkpoints_store_fewer_bytes(spec):
    storage = replace(
        spec, checkpoint_mode="pruned+delta"
    ).build().run().storage
    full, stored = storage.total_bytes(), storage.total_bytes(incremental=True)
    assert stored < full
    assert (full, stored) == STORED_BYTES[spec.label]
