"""Machine-readable benchmark artifacts — ``BENCH_<name>.json`` at repo root.

Every standalone benchmark driver (``bench_profile.py``, ``bench_batch.py``,
``bench_overlay.py``) funnels its results through
:func:`emit_bench_json`, so every artifact shares one schema:

.. code-block:: json

    {
      "benchmark": "profile",
      "schema_version": 1,
      "python": "3.11.7",
      "scale": "small",
      "quick": false,
      "meta": {"...": "free-form driver context"},
      "results": [
        {"name": "profile_sweep", "seconds": 0.0299, "...": "..."}
      ]
    }

Each entry of ``results`` must carry a ``name`` plus at least one numeric
metric; :func:`validate_payload` enforces this (and CI's smoke mode re-reads
the emitted file through it).
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

#: Repo root — the benchmark artifacts live next to README.md.
REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEMA_VERSION = 1

#: The tracked benchmark trajectory: every driver that emits a
#: ``BENCH_<name>.json`` artifact at the repo root registers its name here,
#: so ``python benchmarks/emit_json.py`` (no arguments) validates the whole
#: set and CI catches a driver that silently stopped emitting.
KNOWN_BENCHMARKS = (
    "profile",
    "batch",
    "overlay",
)

_REQUIRED_TOP_KEYS = ("benchmark", "schema_version", "python", "results")


class BenchSchemaError(ValueError):
    """The payload does not match the BENCH_*.json schema."""


def validate_payload(payload: Mapping[str, Any]) -> None:
    """Raise :class:`BenchSchemaError` unless ``payload`` is a valid artifact."""
    for key in _REQUIRED_TOP_KEYS:
        if key not in payload:
            raise BenchSchemaError(f"missing top-level key {key!r}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"schema_version {payload['schema_version']!r} != {SCHEMA_VERSION}"
        )
    results = payload["results"]
    if not isinstance(results, list) or not results:
        raise BenchSchemaError("results must be a non-empty list")
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            raise BenchSchemaError(f"results[{i}] is not an object")
        name = row.get("name")
        if not isinstance(name, str) or not name:
            raise BenchSchemaError(f"results[{i}] has no non-empty 'name'")
        metrics = [
            k
            for k, v in row.items()
            if k != "name" and isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        if not metrics:
            raise BenchSchemaError(
                f"results[{i}] ({name!r}) carries no numeric metric"
            )


def emit_bench_json(
    name: str,
    results: Sequence[Mapping[str, Any]],
    *,
    scale: str | None = None,
    quick: bool = False,
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Validate and write ``BENCH_<name>.json`` at the repo root; return its path."""
    payload: dict[str, Any] = {
        "benchmark": name,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "quick": quick,
        "results": [dict(row) for row in results],
    }
    if scale is not None:
        payload["scale"] = scale
    if meta:
        payload["meta"] = dict(meta)
    validate_payload(payload)
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def check_file(path: Path) -> None:
    """Re-read an emitted artifact and validate it (CI smoke assertion)."""
    validate_payload(json.loads(path.read_text()))


def trajectory(root: Path = REPO_ROOT) -> dict[str, dict]:
    """Load every known ``BENCH_*.json`` present at ``root``, validated.

    Returns ``{benchmark_name: payload}`` for the artifacts that exist —
    the tracked benchmark trajectory in one structure.
    """
    found: dict[str, dict] = {}
    for name in KNOWN_BENCHMARKS:
        path = root / f"BENCH_{name}.json"
        if path.exists():
            payload = json.loads(path.read_text())
            validate_payload(payload)
            found[name] = payload
    return found


def main(argv: list[str]) -> int:
    if argv:
        for arg in argv:
            check_file(Path(arg))
            print(f"{arg}: ok")
        return 0
    found = trajectory()
    for name, payload in found.items():
        print(
            f"BENCH_{name}.json: ok "
            f"({len(payload['results'])} results, "
            f"quick={payload.get('quick', False)})"
        )
    missing = [n for n in KNOWN_BENCHMARKS if n not in found]
    if missing:
        print(f"missing artifacts: {', '.join(sorted(missing))}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
