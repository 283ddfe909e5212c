"""Validation of ``BENCHMARK.json`` and of the metric sets a run emits."""

import json
import os
import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
MAX_BYTES = 64 * 1024
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25


class SpecError(ValueError):
    """The benchmark definition breaks one of its rules."""


def _check_name(name, seen, where):
    if not isinstance(name, str) or not NAME.fullmatch(name):
        raise SpecError(f"{where}: bad name {name!r} (want "
                        f"[A-Za-z0-9][A-Za-z0-9_.-]{{0,63}})")
    if name in seen:
        raise SpecError(f"{where}: name {name!r} used twice")
    seen.add(name)


def _check_metric(metric, keys, seen, where):
    if not isinstance(metric, dict) or set(metric) != keys:
        raise SpecError(f"{where}: want exactly the keys {sorted(keys)}")
    _check_name(metric["name"], seen, where)
    unit = metric["unit"]
    if not isinstance(unit, str) or not UNIT.fullmatch(unit):
        raise SpecError(f"{where}: bad unit {unit!r}")
    if metric["better"] not in ("lower", "higher"):
        raise SpecError(f"{where}: better must be 'lower' or 'higher'")


def validate(doc):
    """Raise :class:`SpecError` unless ``doc`` is a valid definition."""
    if not isinstance(doc, dict) or set(doc) != TOP_KEYS:
        raise SpecError(f"want exactly the keys {sorted(TOP_KEYS)}")
    command = doc["command"]
    if not isinstance(command, list) or not 1 <= len(command) <= 32 or \
            not all(isinstance(a, str) and len(a) <= 200 for a in command):
        raise SpecError("command: 1 to 32 strings of at most 200 characters")
    for arg in command:
        if arg.startswith("/") or ".." in arg.split("/"):
            raise SpecError(f"command: {arg!r} leaves the repository")
    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise SpecError("paths: 1 to 16 directories")
    for path in paths:
        if not isinstance(path, str) or not PATH.fullmatch(path) or \
                path.startswith("/") or ".." in path.split("/"):
            raise SpecError(f"paths: bad path {path!r}")
    seconds = doc["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or \
            not 1 <= seconds <= 60:
        raise SpecError("run_seconds: a whole number from 1 to 60")
    seen = set()
    workloads = doc["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        raise SpecError("workloads: 2 to 8 entries")
    for index, workload in enumerate(workloads):
        where = f"workloads[{index}]"
        if not isinstance(workload, dict) or set(workload) != {"name", "why"}:
            raise SpecError(f"{where}: want exactly the keys name, why")
        _check_name(workload["name"], seen, where)
        why = workload["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or \
                "\n" in why:
            raise SpecError(f"{where}: why must be one line of at most "
                            f"200 characters")
    end_to_end = doc["end_to_end"]
    if not isinstance(end_to_end, list) or \
            not 1 <= len(end_to_end) <= MAX_END_TO_END:
        raise SpecError(f"end_to_end: 1 to {MAX_END_TO_END} metrics")
    for index, metric in enumerate(end_to_end):
        where = f"end_to_end[{index}]"
        _check_metric(metric, {"name", "unit", "better", "bound"}, seen,
                      where)
        bound = metric["bound"]
        if not isinstance(bound, (int, float)) or isinstance(bound, bool) \
                or not 0 < bound <= MAX_BOUND:
            raise SpecError(f"{where}: bound must be in (0, {MAX_BOUND}]")
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end: needs setup_s in s, better lower")
    per_layer = doc["per_layer"]
    if not isinstance(per_layer, list) or \
            not 1 <= len(per_layer) <= MAX_PER_LAYER:
        raise SpecError(f"per_layer: 1 to {MAX_PER_LAYER} metrics")
    for index, metric in enumerate(per_layer):
        _check_metric(metric, {"name", "unit", "better"}, seen,
                      f"per_layer[{index}]")
    return doc


def load(path):
    """Read and validate ``BENCHMARK.json``."""
    if os.path.getsize(path) > MAX_BYTES:
        raise SpecError(f"{path} is larger than {MAX_BYTES} bytes")
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: {exc}") from None
    return validate(doc)


def check_emitted(metrics, declared):
    """The emitted metrics must be exactly the declared ones, in units."""
    names = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise SpecError(f"emitted metrics differ: missing {missing}, "
                        f"undeclared {extra}")
    for name, entry in metrics.items():
        if entry["unit"] != names[name]:
            raise SpecError(f"{name}: emitted unit {entry['unit']!r}, "
                            f"declared {names[name]!r}")
