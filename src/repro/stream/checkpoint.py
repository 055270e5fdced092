"""Checkpoint/resume for streaming tracking sessions.

A checkpoint captures *everything* Algorithm 4.1 needs to continue
bit-for-bit after a process kill: the per-user sample sets (positions,
weights, ``t_last``), the tracker configuration, the sniffer geometry,
and — crucially — the exact numpy bit-generator state, so the random
draws of the resumed prediction phases reproduce the uninterrupted
run. Step history and latency reservoirs are intentionally *not*
checkpointed: they are observability artifacts, not tracker state.

The on-disk format is a single ``.npz`` (same family as
:mod:`repro.util.persistence`) with JSON side-channels for the
structured bits (config, RNG state, counters).

Durability contract: :func:`save_checkpoint` writes to a unique temp
file, flushes and fsyncs it, then publishes with ``os.replace`` — a
kill, torn write, or fsync failure at *any* instant leaves either the
previous checkpoint or the new one, never a hybrid. :func:`load_
checkpoint` turns every corrupt/truncated-file failure mode into a
typed :class:`~repro.errors.ConfigurationError` naming the path. Both
behaviors are exercised by the ``checkpoint.partial_write`` /
``checkpoint.fsync`` fault points (:mod:`repro.faults`), and writes
optionally run under a bounded :class:`~repro.faults.RetryPolicy`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import zipfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, FaultInjected
from repro.faults.plan import should_fire
from repro.faults.retry import call_with_retry
from repro.smc.samples import UserSamples
from repro.smc.tracker import SequentialMonteCarloTracker, TrackerConfig
from repro.stream.metrics import StreamMetrics
from repro.stream.session import TrackingSession, TruthProvider
from repro.util.persistence import (
    field_from_arrays,
    field_to_arrays,
    require_format,
    require_keys,
)

_PathLike = Union[str, Path]

#: Bumped on any incompatible layout change; loaders refuse mismatches.
CHECKPOINT_FORMAT = 1


def checkpoint_path(checkpoint_dir: _PathLike, session_id: str) -> str:
    """Where a service keeps one session's checkpoint in ``checkpoint_dir``.

    ``<checkpoint_dir>/<session_id>.ckpt.npz``: the file a service's
    drain writes, a fleet worker rewrites before each tracking reply,
    and a fleet router resumes a dead worker's session from.
    """
    return str(Path(checkpoint_dir) / f"{session_id}.ckpt.npz")

_REQUIRED_KEYS = (
    "format",
    "session_id",
    "field_kind",
    "field_params",
    "sniffer_positions",
    "config_json",
    "rng_state_json",
    "t_last",
    "counters_json",
)


def _atomic_write(path: Path, arrays: dict) -> None:
    """Write ``arrays`` as ``.npz`` at ``path`` with all-or-nothing effect.

    Unique temp name (pid- and thread-suffixed: two writers of the same
    checkpoint never clobber each other's temp), flush + fsync before
    publish, and the temp unlinked on any failure. The
    ``checkpoint.partial_write`` fault truncates the payload mid-write;
    ``checkpoint.fsync`` fails the durability barrier — both leave
    ``path`` untouched.
    """
    tmp = path.with_suffix(
        path.suffix + f".{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with tmp.open("wb") as handle:
            if should_fire("checkpoint.partial_write") is not None:
                import io

                buffer = io.BytesIO()
                np.savez_compressed(buffer, **arrays)
                handle.write(buffer.getvalue()[: buffer.tell() // 2])
                handle.flush()
                raise FaultInjected(
                    f"checkpoint.partial_write: torn write of {tmp}"
                )
            np.savez_compressed(handle, **arrays)
            handle.flush()
            if should_fire("checkpoint.fsync") is not None:
                raise OSError(f"checkpoint.fsync: injected fsync failure {tmp}")
            os.fsync(handle.fileno())
        os.replace(tmp, path)  # atomic: a kill mid-write never corrupts
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def save_checkpoint(
    session: TrackingSession, path: _PathLike, retry_policy=None
) -> Path:
    """Serialize a session (tracker state + stream cursor) to ``.npz``.

    ``retry_policy`` (a :class:`~repro.faults.RetryPolicy`) re-attempts
    the atomic write on transient I/O failures; the write is idempotent
    (same arrays, fresh temp file), so a retry that succeeds produces a
    checkpoint bitwise-identical to an undisturbed one.
    """
    tracker = session.tracker
    field_kind, field_params = field_to_arrays(tracker.field)
    rng_state = json.dumps(tracker._rng.bit_generator.state, default=int)
    config = json.dumps(dataclasses.asdict(tracker.config))
    counters = json.dumps(
        {
            "windows_consumed": session.windows_consumed,
            "last_time": session.last_time,
            "windows_processed": session.metrics.windows_processed,
            "windows_skipped": dict(session.metrics.windows_skipped),
        }
    )
    arrays = {
        "format": np.array([CHECKPOINT_FORMAT]),
        "session_id": np.array(session.session_id),
        "field_kind": np.array(field_kind),
        "field_params": field_params,
        "sniffer_positions": tracker.model.node_positions,
        "config_json": np.array(config),
        "rng_state_json": np.array(rng_state),
        "t_last": np.array([s.t_last for s in tracker.samples]),
        "counters_json": np.array(counters),
        # Additive key (not in _REQUIRED_KEYS): older checkpoints
        # without it load with zeroed miss counters.
        "miss_counts": np.asarray(tracker.miss_counts, dtype=np.int64),
    }
    for user, samples in enumerate(tracker.samples):
        arrays[f"positions_{user}"] = samples.positions
        arrays[f"weights_{user}"] = samples.weights
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if retry_policy is None:
        _atomic_write(path, arrays)
    else:
        call_with_retry(
            lambda: _atomic_write(path, arrays),
            retry_policy,
            label=f"checkpoint write {path}",
        )
    return path


def load_checkpoint(
    path: _PathLike,
    truth: Optional[TruthProvider] = None,
    fingerprint_map=None,
) -> TrackingSession:
    """Rebuild a session from :func:`save_checkpoint` output.

    The returned session's tracker continues deterministically: same
    samples, same weights, same RNG stream position. ``truth`` (not
    serializable) must be re-attached by the caller when error
    accounting should continue; likewise ``fingerprint_map`` (shared,
    read-only — never serialized into checkpoints) is re-attached here
    and validated against the checkpointed deployment, so resuming
    with a map built for different sniffers fails loudly with
    :class:`~repro.errors.ConfigurationError` instead of reseeding
    users onto wrong signatures.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            require_keys(data, _REQUIRED_KEYS, path)
            require_format(data, CHECKPOINT_FORMAT, path, kind="checkpoint")
            session_id = str(data["session_id"])
            field = field_from_arrays(
                str(data["field_kind"]), data["field_params"]
            )
            sniffer_positions = data["sniffer_positions"]
            config = TrackerConfig(**json.loads(str(data["config_json"])))
            rng_state = json.loads(str(data["rng_state_json"]))
            t_last = data["t_last"]
            counters = json.loads(str(data["counters_json"]))
            user_count = t_last.shape[0]
            miss_counts = (
                np.asarray(data["miss_counts"], dtype=np.int64)
                if "miss_counts" in data
                else np.zeros(user_count, dtype=np.int64)
            )
            require_keys(
                data,
                [f"positions_{u}" for u in range(user_count)]
                + [f"weights_{u}" for u in range(user_count)],
                path,
            )
            sample_sets = []
            for user in range(user_count):
                samples = UserSamples(
                    positions=data[f"positions_{user}"],
                    weights=data[f"weights_{user}"],
                    t_last=float(t_last[user]),
                )
                # __post_init__ renormalizes; restore the exact stored
                # weights so resumed estimates stay bitwise identical.
                samples.weights = np.asarray(
                    data[f"weights_{user}"], dtype=float
                )
                sample_sets.append(samples)
    except ConfigurationError:
        raise  # already typed (missing keys, format mismatch, bad field)
    except FileNotFoundError:
        raise  # absent is a distinct condition, not a corrupt file
    except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError,
            TypeError) as exc:
        # Torn writes, truncated zips, garbage JSON, wrong-shape arrays:
        # one typed error naming the file, never a raw parser traceback.
        raise ConfigurationError(
            f"{path}: corrupt or truncated checkpoint "
            f"({type(exc).__name__}: {exc})"
        ) from exc

    # Construct with a throwaway RNG: __init__ draws the uniform prior,
    # which would advance the restored stream. The real generator (and
    # the checkpointed samples) are installed right after.
    tracker = SequentialMonteCarloTracker(
        field,
        sniffer_positions,
        user_count=user_count,
        config=config,
        rng=0,
    )
    tracker._rng = _generator_from_state(rng_state)
    tracker.samples = sample_sets
    tracker.miss_counts = miss_counts
    if miss_counts.shape != (user_count,):
        raise ConfigurationError(
            f"{path}: miss_counts {miss_counts.shape} does not match "
            f"user count {user_count}"
        )
    if fingerprint_map is not None:
        tracker.attach_map(fingerprint_map)
    # Unknown counters are ignored: older checkpoints also carry a
    # queue-drop count that sessions no longer keep.
    metrics = StreamMetrics()
    metrics.windows_processed = int(counters["windows_processed"])
    metrics.windows_skipped.update(counters["windows_skipped"])
    session = TrackingSession(
        session_id, tracker, truth=truth, metrics=metrics
    )
    session.windows_consumed = int(counters["windows_consumed"])
    last_time = counters["last_time"]
    session.last_time = None if last_time is None else float(last_time)
    return session


def _generator_from_state(state: dict) -> np.random.Generator:
    """Reconstruct a Generator positioned exactly at a saved state."""
    name = state.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise ConfigurationError(
            f"checkpoint uses unknown bit generator {name!r}"
        )
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)
