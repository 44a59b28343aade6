"""The delta format's reconstruction oracle.

A run never decodes a delta record: storage keeps each checkpoint
object beside its stored bytes, and restores from the object. This
oracle rebuilds the ``full`` record from a parent's full record and a
``delta`` record, which is how the tests show that a delta carries
everything the full record does.
"""

from repro.errors import StorageError


def apply_delta(parent_record: tuple, delta: tuple) -> tuple:
    """Reconstruct a ``full`` record from its parent's full record.

    The output is byte-identical (under ``encode_record``) to
    ``checkpoint_record`` of the original checkpoint: environment
    updates keep the parent's slot order and appends extend it, exactly
    as forward execution would have.
    """
    if parent_record[0] != "full" or delta[0] != "delta":
        raise StorageError("apply_delta needs a full parent and a delta child")
    (
        _kind, rank, number, parent_number, env_changes, frames,
        checkpoint_count, input_changes, pending_recv, clock_changes,
        time, cursor_changes, stmt_label, tag,
    ) = delta
    if parent_record[2] != parent_number or parent_record[1] != rank:
        raise StorageError(
            "delta does not chain to this parent",
            rank=rank, number=number,
        )
    env = dict(parent_record[3])
    for name, value in env_changes:
        env[name] = value
    inputs = dict(parent_record[6])
    for key, value in input_changes:
        inputs[key] = value
    clock = list(parent_record[8])
    for index, value in clock_changes:
        clock[index] = value
    cursors = dict(parent_record[10])
    for key, value in cursor_changes:
        cursors[key] = value
    return (
        "full",
        rank,
        number,
        tuple(env.items()),
        frames,
        checkpoint_count,
        tuple(sorted(inputs.items())),
        pending_recv,
        tuple(clock),
        time,
        tuple(sorted(cursors.items())),
        stmt_label,
        tag,
    )
