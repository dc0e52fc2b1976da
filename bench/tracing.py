"""Spans around radrep's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function at the name its caller
looks up (``radrep.pipeline`` imports most layer functions by name,
``firstorder_features`` reaches ``discretize_roi`` through
``radrep.features`` and ``apply_filter`` reaches the filters through
``radrep.preprocess``) and restores the originals on exit. Each call
becomes a :class:`Span` (name, start, end, parent, thread) held in
memory; :func:`layer_metrics` turns a finished span list into the
per-layer metrics, where a layer's time is its self time: span duration
minus the part of it that child spans cover.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import radrep.features
import radrep.pipeline
import radrep.preprocess
import radrep.volume_io

ROOT_SPANS = ("pipeline.extract_run", "pipeline.analyze_run",
              "pipeline.plotdata_run")


@dataclass
class Span:
    name: str
    parent: "Span | None"
    thread: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _filter_voxels(args, kwargs, result):
    grids = result.values() if isinstance(result, dict) else (result,)
    return {"voxels": sum(g.values.size for g in grids)}


def _levels_voxels(levels):
    return {"grid_voxels": levels.size,
            "roi_voxels": int((levels > 0).sum())}


def _discretized(args, kwargs, result):
    return _levels_voxels(result.levels)


def _texture_input(args, kwargs, result):
    return _levels_voxels(args[0].levels)


def _iccs(args, kwargs, result):
    return {"iccs": len(result.rows)}


# (module or class, attribute, span name, counter)
TRACED = (
    (radrep.pipeline, "extract_run", "pipeline.extract_run", None),
    (radrep.pipeline, "analyze_run", "pipeline.analyze_run", None),
    (radrep.pipeline, "plotdata_run", "pipeline.plotdata_run", None),
    (radrep.pipeline, "read_feature_csv", "pipeline.read_csv", _file_bytes),
    (radrep.pipeline, "read_volume", "volume_io.read", _file_bytes),
    (radrep.pipeline, "read_mask", "volume_io.read", _file_bytes),
    (radrep.volume_io.VolumeGrid, "payload_hash", "volume_io.hash", None),
    (radrep.volume_io.RoiMask, "payload_hash", "volume_io.hash", None),
    (radrep.pipeline, "normalize", "preprocess.normalize", None),
    (radrep.pipeline, "filter_wavelet", "preprocess.wavelet", _filter_voxels),
    (radrep.preprocess, "filter_wavelet", "preprocess.wavelet", _filter_voxels),
    (radrep.preprocess, "filter_log", "preprocess.log", _filter_voxels),
    (radrep.preprocess, "filter_pointwise", "preprocess.pointwise",
     _filter_voxels),
    (radrep.pipeline, "discretize_roi", "discretize", _discretized),
    (radrep.features, "discretize_roi", "discretize", _discretized),
    (radrep.pipeline, "build_glcm", "texture_matrices.glcm", _texture_input),
    (radrep.pipeline, "build_glrlm", "texture_matrices.glrlm", _texture_input),
    (radrep.pipeline, "build_glszm", "texture_matrices.glszm", _texture_input),
    (radrep.pipeline, "firstorder_features", "features.firstorder", None),
    (radrep.pipeline, "shape_features", "features.shape", None),
    (radrep.pipeline, "glcm_features", "features.texture", None),
    (radrep.pipeline, "glrlm_features", "features.texture", None),
    (radrep.pipeline, "glszm_features", "features.texture", None),
    (radrep.pipeline, "build_table", "repeatability.build_table", _iccs),
    *((radrep.pipeline, name, "repeatability.reports", None)
      for name in ("binwidth_spread", "kde", "rank_distribution",
                   "top_k_per_class", "filter_frequency", "config_delta")),
)


class Tracer:
    """Records spans while installed (use as a context manager).

    A span's parent is the innermost open span on its thread; spans that
    start on a worker thread with nothing open there hang under the open
    root span (the command), which caused them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counter in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str, counter):
        is_root = name in ROOT_SPANS

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(name, stack[-1] if stack else self._root,
                        threading.get_ident())
            stack.append(span)
            if is_root:
                outer_root, self._root = self._root, span
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = outer_root
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def to_records(self) -> list[dict]:
        """Spans as JSON-ready dicts; ``parent`` is an index into the list."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [{
            "name": s.name, "start": s.start, "end": s.end, "thread": s.thread,
            "parent": None if s.parent is None else index[id(s.parent)],
            "counts": s.counts,
        } for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(records: list[dict]) -> list[float]:
    """Per span: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for r in records:
        if r["parent"] is not None:
            parent = records[r["parent"]]
            children[r["parent"]].append((max(r["start"], parent["start"]),
                                          min(r["end"], parent["end"])))
    return [r["end"] - r["start"] - _covered(children[i])
            for i, r in enumerate(records)]


def layer_metrics(records: list[dict], jobs: int, cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``cells`` is the number of (row, filter, mode, bin width) cells the
    command extracts (0 for analysis); ``jobs`` its worker count.
    """
    selfs = self_times(records)
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    wall = busy = 0.0
    for r, own in zip(records, selfs):
        time_s[r["name"]] += own
        calls[r["name"]] += 1
        for key, value in r["counts"].items():
            counts[f"{r['name']}.{key}"] += value
        if r["parent"] is None:
            wall += r["end"] - r["start"]
        else:
            busy += own

    def ratio(a, b):
        return a / b if b else 0.0

    filters = ("preprocess.log", "preprocess.wavelet", "preprocess.pointwise")
    textures = ("texture_matrices.glcm", "texture_matrices.glrlm",
                "texture_matrices.glszm")
    return {
        "volume_io.read.s": time_s["volume_io.read"],
        "volume_io.read.calls": calls["volume_io.read"],
        "volume_io.read.bytes": counts["volume_io.read.bytes"],
        "volume_io.hash.s": time_s["volume_io.hash"],
        "volume_io.hash.calls": calls["volume_io.hash"],
        "preprocess.normalize.s": time_s["preprocess.normalize"],
        "preprocess.log.s": time_s["preprocess.log"],
        "preprocess.wavelet.s": time_s["preprocess.wavelet"],
        "preprocess.pointwise.s": time_s["preprocess.pointwise"],
        "preprocess.filter.calls": sum(calls[f] for f in filters),
        "preprocess.filter.voxels": sum(counts[f"{f}.voxels"] for f in filters),
        "discretize.s": time_s["discretize"],
        "discretize.calls": calls["discretize"],
        "discretize.calls_per_cell": ratio(calls["discretize"], cells),
        "discretize.grid_voxels": counts["discretize.grid_voxels"],
        "discretize.roi_fraction": ratio(counts["discretize.roi_voxels"],
                                         counts["discretize.grid_voxels"]),
        "texture_matrices.glcm.s": time_s["texture_matrices.glcm"],
        "texture_matrices.glrlm.s": time_s["texture_matrices.glrlm"],
        "texture_matrices.glszm.s": time_s["texture_matrices.glszm"],
        "texture_matrices.calls": sum(calls[t] for t in textures),
        "texture_matrices.grid_voxels":
            sum(counts[f"{t}.grid_voxels"] for t in textures),
        "texture_matrices.roi_fraction": ratio(
            sum(counts[f"{t}.roi_voxels"] for t in textures),
            sum(counts[f"{t}.grid_voxels"] for t in textures)),
        "features.firstorder.s": time_s["features.firstorder"],
        "features.shape.s": time_s["features.shape"],
        "features.shape.calls": calls["features.shape"],
        "features.texture.s": time_s["features.texture"],
        "pipeline.self.s": sum(time_s[name] for name in ROOT_SPANS),
        "pipeline.read_csv.s": time_s["pipeline.read_csv"],
        "pipeline.read_csv.bytes": counts["pipeline.read_csv.bytes"],
        "pipeline.busy_frac": ratio(busy, wall * jobs),
        "repeatability.build_table.s": time_s["repeatability.build_table"],
        "repeatability.build_table.calls": calls["repeatability.build_table"],
        "repeatability.iccs": counts["repeatability.build_table.iccs"],
        "repeatability.reports.s": time_s["repeatability.reports"],
    }
