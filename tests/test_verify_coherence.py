"""Tests for the coherence invariant checker (:mod:`repro.verify.coherence`).

Real executions must sweep clean; each protocol invariant is then proven live
by tampering the directory into the state it forbids and asserting the
corresponding finding code.  The sanitizer variants must raise
:class:`~repro.errors.VerificationError` on the same seeds.
"""

import pytest

from repro import Runtime, RuntimeOptions
from repro.blas.tiled import build_gemm
from repro.errors import VerificationError
from repro.memory.coherence import CoherenceDirectory, ReplicaState
from repro.memory.matrix import Matrix
from repro.memory.tile import TileKey
from repro.topology.dgx1 import make_dgx1
from repro.topology.link import HOST
from repro.verify.coherence import CoherenceSanitizer, check_directory, check_tile

KEY = TileKey(0, 0, 0)


def codes(findings):
    return {f.code for f in findings}


# Tampering helpers: they write the directory's bitmasks through the id API
# (``lookup``/``flights_map`` plus the ``_valid``/``_mod``/``_gen`` lists),
# bypassing the protocol on purpose to seed states it forbids.


def force_state(directory, loc, state, key=KEY):
    """Mark the replica at ``loc`` valid in ``state``, no questions asked."""
    tid = directory.lookup(key)
    bit = 1 << (loc + 1)
    directory._valid[tid] |= bit  # noqa: SLF001 — tests tamper on purpose
    if state is ReplicaState.MODIFIED:
        directory._mod[tid] |= bit
    else:
        directory._mod[tid] &= ~bit


def flight_to(directory, dst, key=KEY):
    """The live in-flight record of ``key`` towards ``dst``."""
    return directory.flights_map(directory.lookup(key))[dst]


def shift_generation(directory, delta, key=KEY):
    """Move the tile generation without touching its flights."""
    directory._gen[directory.lookup(key)] += delta


# ----------------------------------------------------------------- clean runs


def test_fresh_directory_is_clean():
    d = CoherenceDirectory()
    assert check_tile(d, KEY) == []
    assert check_directory(d) == []


def test_legal_protocol_sequence_is_clean():
    d = CoherenceDirectory()
    d.begin_transfer(KEY, 0, completes_at=1.0, source=HOST)
    assert check_tile(d, KEY) == []
    d.complete_transfer(KEY, 0)
    d.write(KEY, 0)  # unique MODIFIED owner
    assert check_tile(d, KEY) == []
    d.begin_transfer(KEY, 1, completes_at=2.0, source=0)  # d2d forward
    assert check_tile(d, KEY) == []


def test_executed_run_directory_sweeps_clean():
    platform = make_dgx1(2)
    rt = Runtime(platform, RuntimeOptions(verify_coherence=True))
    mats = [Matrix.meta(64, 64, name=x) for x in "ABC"]
    parts = [rt.partition(m, 32) for m in mats]
    for t in build_gemm(1.0, parts[0], parts[1], 0.5, parts[2]):
        rt.submit(t)
    rt.memory_coherent_async(mats[2], 32)
    rt.sync()
    assert rt.sanitizer is not None and rt.sanitizer.checks > 0
    assert check_directory(rt.directory, platform) == []


def test_sanitizer_disabled_by_default():
    rt = Runtime(make_dgx1(2))
    assert rt.sanitizer is None and rt.transfer.sanitizer is None


# ----------------------------------------------------- seeded violations


def test_double_modified_detected():
    d = CoherenceDirectory()
    d.write(KEY, 0)
    force_state(d, 1, ReplicaState.MODIFIED)  # second owner: impossible
    assert codes(check_tile(d, KEY)) == {"C001"}


def test_host_valid_while_device_modified_detected():
    d = CoherenceDirectory()
    d.write(KEY, 0)
    force_state(d, HOST, ReplicaState.SHARED)  # stale host marked valid
    assert codes(check_tile(d, KEY)) == {"C002"}


def test_flight_generation_drift_detected():
    d = CoherenceDirectory()
    d.begin_transfer(KEY, 0, completes_at=1.0, source=HOST)
    flight_to(d, 0).generation += 1  # flight from the future
    assert codes(check_tile(d, KEY)) == {"C003"}
    flight_to(d, 0).generation -= 1
    shift_generation(d, 1)  # write that forgot to clear the flight
    assert codes(check_tile(d, KEY)) == {"C003"}


def test_flight_source_without_replica_detected():
    d = CoherenceDirectory()
    d.begin_transfer(KEY, 1, completes_at=1.0, source=3)  # 3 holds nothing
    assert codes(check_tile(d, KEY)) == {"C004"}


def test_flight_source_chained_on_inbound_flight_is_legal():
    d = CoherenceDirectory()
    d.begin_transfer(KEY, 0, completes_at=1.0, source=HOST)
    d.begin_transfer(KEY, 1, completes_at=2.0, source=0)  # optimistic chain
    assert check_tile(d, KEY) == []


def test_writeback_of_discarded_replica_is_legal():
    d = CoherenceDirectory()
    d.write(KEY, 0)
    d.begin_transfer(KEY, HOST, completes_at=1.0, source=0)  # write-back
    d.discard(KEY, 0)  # dirty victim evicted; bytes live in the wire
    assert check_tile(d, KEY) == []


def test_flight_to_already_valid_destination_detected():
    d = CoherenceDirectory()
    d.begin_transfer(KEY, 0, completes_at=1.0, source=HOST)
    force_state(d, 0, ReplicaState.SHARED)  # validated without landing
    assert codes(check_tile(d, KEY)) == {"C005"}


def test_unknown_locations_detected_with_platform():
    platform = make_dgx1(2)
    d = CoherenceDirectory()
    d.write(KEY, 7)  # no such device on a 2-GPU platform
    assert codes(check_tile(d, KEY, platform)) == {"C006"}
    assert check_tile(d, KEY) == []  # without a platform the rule is off


def test_non_finite_completion_time_detected():
    d = CoherenceDirectory()
    d.begin_transfer(KEY, 0, completes_at=float("nan"), source=HOST)
    assert "C007" in codes(check_tile(d, KEY))


# ------------------------------------------------------------------ sanitizer


def test_sanitizer_raises_on_seeded_double_modified():
    d = CoherenceDirectory()
    d.write(KEY, 0)
    force_state(d, 1, ReplicaState.MODIFIED)
    sanitizer = CoherenceSanitizer(d)
    with pytest.raises(VerificationError) as exc:
        sanitizer.check_tile(KEY)
    assert any(f.code == "C001" for f in exc.value.findings)
    with pytest.raises(VerificationError):
        sanitizer.check_all()
    assert sanitizer.checks == 2


def test_sanitized_run_catches_post_hoc_tampering():
    platform = make_dgx1(2)
    rt = Runtime(platform, RuntimeOptions(verify_coherence=True))
    part = rt.partition(Matrix.meta(64, 64, name="A"), 32)
    rt.transfer.ensure_resident(part[(0, 0)], 0)
    rt.sync()
    rt.sanitizer.check_all()  # clean
    force_state(rt.directory, 1, ReplicaState.MODIFIED, key=part[(0, 0)].key)
    with pytest.raises(VerificationError):
        rt.sanitizer.check_all()
