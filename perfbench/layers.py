"""The traced run: per-layer times and counts, taken from this process.

Nothing here runs during the untraced runs that give the end-to-end
metrics.  The traced pipeline is an ordinary ``EbbiotPipeline`` whose
stage objects have their public entry points (``ebbi_builder.build``,
``region_proposer.propose``, ``roe.filter_proposals``, ``tracker.step``)
wrapped with a timer, so ``process_frame_events`` runs its normal code and
the time it spends outside the four stages is its ``unattributed`` share.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, Sequence

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.ebbi import events_to_binary_frame
from repro.core.median_filter import binary_median_filter
from repro.core.pipeline import EbbiotPipeline
from repro.datasets.recorded import DatasetManifest
from repro.evaluation.precision_recall import evaluate_recording
from repro.serving.framer import OnlineFramer
from repro.serving.protocol import (
    decode_message,
    encode_message,
    frame_message,
    packet_from_events_message,
)

from inputs import FRAME_US

_clock = time.perf_counter

#: IoU of the per-layer precision/recall figures (the paper's Fig. 4 knee).
EVALUATION_IOU = 0.3


class StageTimer:
    """Accumulates seconds and counts per stage of wrapped calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def wrap(self, owner, attribute: str, stage: str, count=None) -> None:
        original = getattr(owner, attribute)

        def timed(*args, **kwargs):
            started = _clock()
            result = original(*args, **kwargs)
            self.seconds[stage] += _clock() - started
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attribute, timed)


def traced_pipeline(config: EbbiotConfig, timer: StageTimer) -> EbbiotPipeline:
    pipeline = EbbiotPipeline(config)

    def count_build(counts, args, ebbi):
        counts["frame_bytes"] += ebbi.raw.nbytes + ebbi.filtered.nbytes

    def count_rpn(counts, args, proposals):
        counts["proposals"] += len(proposals)

    def count_roe(counts, args, kept):
        counts["roe_in"] += len(args[0])
        counts["roe_kept"] += len(kept)

    def count_tracker(counts, args, tracks):
        counts["tracks"] += len(tracks)

    timer.wrap(pipeline.ebbi_builder, "build", "build", count_build)
    timer.wrap(pipeline.region_proposer, "propose", "rpn", count_rpn)
    timer.wrap(pipeline.roe, "filter_proposals", "roe", count_roe)
    timer.wrap(pipeline.tracker, "step", "tracker", count_tracker)
    return pipeline


def windows_of(events: np.ndarray, num_windows: int):
    edges = FRAME_US * np.arange(num_windows + 1, dtype=np.int64)
    bounds = np.searchsorted(events["t"], edges, side="left")
    return [
        (events[bounds[k] : bounds[k + 1]], int(edges[k]), int(edges[k + 1]))
        for k in range(num_windows)
    ]


def load_dataset(directory) -> tuple:
    """``DatasetManifest.load`` + ``load_entry`` for every recording, timed."""
    started = _clock()
    manifest = DatasetManifest.load(directory)
    loaded = [manifest.load_entry(entry) for entry in manifest.recordings]
    return _clock() - started, loaded


def core_pass(recordings, configs: Sequence[EbbiotConfig]) -> tuple:
    """Plain and traced pipelines over every window of every recording.

    Returns the per-layer metrics, the traced tracks per recording (as
    ``TrackObservation`` lists) and whether traced output equalled plain.
    """
    timer = StageTimer()
    plain_s = traced_s = accumulate_s = median_s = 0.0
    frames = 0
    same = True
    tracks_by_recording = {}
    for recording, config in zip(recordings, configs):
        windows = windows_of(recording.events, recording.num_windows)
        plain = EbbiotPipeline(config)
        traced = traced_pipeline(config, timer)
        observations = []
        for k, (events, t_start, t_end) in enumerate(windows):
            started = _clock()
            expected = plain.process_frame_events(events, t_start, t_end, k)
            plain_s += _clock() - started
            started = _clock()
            frame = traced.process_frame_events(events, t_start, t_end, k)
            traced_s += _clock() - started
            same = same and frame.tracks == expected.tracks
            observations.extend(frame.tracks)
            started = _clock()
            raw = events_to_binary_frame(events, config.width, config.height)
            accumulate_s += _clock() - started
            started = _clock()
            binary_median_filter(raw, config.median_patch_size)
            median_s += _clock() - started
        frames += len(windows)
        tracks_by_recording[recording.name] = observations
    stage_s = sum(timer.seconds.values())
    per_frame_us = 1e6 / frames
    counts = timer.counts
    metrics = {
        "core.ebbi.build_us_per_frame": timer.seconds["build"] * per_frame_us,
        "core.ebbi.accumulate_us_per_frame": accumulate_s * per_frame_us,
        "core.median_filter.us_per_frame": median_s * per_frame_us,
        "core.ebbi.frame_bytes": counts["frame_bytes"] / frames,
        "core.histogram_rpn.us_per_frame": timer.seconds["rpn"] * per_frame_us,
        "core.histogram_rpn.proposals_per_frame": counts["proposals"] / frames,
        "core.roe.us_per_frame": timer.seconds["roe"] * per_frame_us,
        "core.roe.kept_per_proposal": counts["roe_kept"] / max(counts["roe_in"], 1),
        "core.overlap_tracker.us_per_frame": timer.seconds["tracker"] * per_frame_us,
        "core.overlap_tracker.tracks_per_frame": counts["tracks"] / frames,
        "core.pipeline.us_per_frame": traced_s * per_frame_us,
        "core.pipeline.unattributed_us_per_frame": (traced_s - stage_s) * per_frame_us,
        "core.pipeline.trace_overhead": traced_s / plain_s,
    }
    identity = {
        "wall_s": traced_s,
        "stages_s": dict(timer.seconds),
        "unattributed_s": traced_s - stage_s,
    }
    return metrics, identity, tracks_by_recording, same


def serving_pass(recordings, reorder_slack_us: int) -> tuple:
    """The server's per-batch path, in this process, over the same lines.

    decode (``decode_message`` + ``packet_from_events_message``) ->
    ``OnlineFramer.append`` -> ``process_frame_events`` -> ``frame_message``
    + ``encode_message``, with the loop's own time as ``unattributed``.
    """
    seconds = defaultdict(float)
    events = wire_bytes = batches = windows = 0
    started_all = _clock()
    for recording in recordings:
        framer = OnlineFramer(frame_duration_us=FRAME_US, reorder_slack_us=reorder_slack_us)
        pipeline = EbbiotPipeline(EbbiotConfig())
        sensor_id = recording.name

        def emit(closed) -> None:
            nonlocal windows
            for window in closed:
                started = _clock()
                frame = pipeline.process_frame_events(
                    window.events, window.t_start_us, window.t_end_us, window.frame_index
                )
                middle = _clock()
                encode_message(frame_message(sensor_id, frame))
                seconds["pipeline"] += middle - started
                seconds["encode"] += _clock() - middle
                windows += 1

        for line in recording.lines:
            started = _clock()
            packet = packet_from_events_message(decode_message(line))
            middle = _clock()
            closed = framer.append(packet)
            seconds["decode"] += middle - started
            seconds["framer"] += _clock() - middle
            emit(closed)
            events += len(packet)
            wire_bytes += len(line)
            batches += 1
        emit(framer.flush())
    wall = _clock() - started_all
    metrics = {
        "serving.protocol.decode_s_per_mevent": seconds["decode"] / events * 1e6,
        "serving.protocol.wire_bytes_per_event": wire_bytes / events,
        "serving.protocol.frame_encode_us_per_frame": seconds["encode"] / windows * 1e6,
        "serving.framer.append_us_per_batch": seconds["framer"] / batches * 1e6,
    }
    per_window_ms = sum(seconds.values()) / windows * 1e3
    identity = {
        "wall_s": wall,
        "stages_s": dict(seconds),
        "unattributed_s": wall - sum(seconds.values()),
    }
    return metrics, identity, per_window_ms


def evaluation_metrics(recordings, tracks_by_recording) -> Dict[str, float]:
    """Pooled precision and recall with the program's own evaluation module."""
    hits = boxes = truths = 0
    for recording in recordings:
        result = evaluate_recording(
            tracks_by_recording[recording.name],
            recording.ground_truth,
            iou_thresholds=(EVALUATION_IOU,),
            name=recording.name,
        ).by_threshold[EVALUATION_IOU]
        hits += result.true_positives
        boxes += result.total_tracker_boxes
        truths += result.total_ground_truth_boxes
    return {
        "evaluation.track_precision": hits / max(boxes, 1),
        "evaluation.track_recall": hits / max(truths, 1),
    }


def histogram_quantile(samples: Dict, name: str, q: float) -> float:
    """Prometheus-style quantile of a histogram summed over its label sets."""
    buckets: Dict[float, float] = defaultdict(float)
    for (metric, labels), value in samples.items():
        if metric == f"{name}_bucket":
            buckets[float(dict(labels)["le"])] += value
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total == 0:
        return 0.0
    rank = q * total
    lower_bound = lower_count = 0.0
    for bound in bounds:
        count = buckets[bound]
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            return lower_bound + (bound - lower_bound) * (rank - lower_count) / (
                count - lower_count
            )
        lower_bound, lower_count = bound, count
    return bounds[-1]
