"""JSON document schemas and CSV emission.

Capacity document::

    {"n": 2, "labels": ["a", "b"], "table": {"0": 0.0, "1": 0.3, "2": 0.5, "3": 1.0}}

Table keys are either decimal bitmask strings (bit i = element i) or
comma-joined label sets ("" for the empty set); every subset must be
present.  Mass-function documents carry a dense ``"mass"`` array of length
2^n indexed by bitmask.  Scenario documents::

    {"w": 1.0, "X": [4, -2], "mu_file": "mu.json", "nu_file": "nu.json", "utility": "exp:1"}

Numbers in emitted CSV are formatted with 17 significant digits and JSON
floats use shortest round-trip form; both reparse to the identical float.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .capacity import Capacity, GroundSet, MassFunction
from .errors import SchemaError


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; round-trips to the same float."""
    return format(float(x), ".17g")


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _is_number(v: Any) -> bool:
    """True for JSON numbers; ``true``/``false`` load as bool, an int subclass, and are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_ground(doc: dict, what: str) -> GroundSet:
    _require(isinstance(doc, dict), f"{what}: document must be a JSON object")
    _require("n" in doc, f"{what}: missing 'n'")
    n = doc["n"]
    _require(_is_number(n) and isinstance(n, int) and n >= 1, f"{what}: 'n' must be a positive integer")
    labels = doc.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list) and all(isinstance(s, str) for s in labels),
            f"{what}: 'labels' must be a list of strings",
        )
        labels = tuple(labels)
    try:
        return GroundSet(n, labels)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _mask_from_key(key: str, size: int, index: dict[str, int] | None, what: str) -> int:
    if key == "":
        return 0
    if key.isdigit():
        try:
            mask = int(key, 10)
        except ValueError:
            raise SchemaError(f"{what}: bad subset key {key!r}")
        if mask >= size:
            raise SchemaError(f"{what}: subset key {key!r} out of range")
        return mask
    if index is None:
        raise SchemaError(f"{what}: label-set key {key!r} but no labels declared")
    mask = 0
    for part in key.split(","):
        part = part.strip()
        if part not in index:
            raise SchemaError(f"{what}: unknown label {part!r} in key {key!r}")
        mask |= 1 << index[part]
    return mask


def capacity_from_dict(doc: dict, what: str = "capacity") -> Capacity:
    ground = _parse_ground(doc, what)
    _require("table" in doc and isinstance(doc["table"], dict), f"{what}: missing 'table' object")
    index = None if ground.labels is None else {lab: i for i, lab in enumerate(ground.labels)}
    table = [None] * ground.size
    # 2^n entries: raise directly, not via _require, to build messages only on failure
    for key, val in doc["table"].items():
        if not _is_number(val):
            raise SchemaError(f"{what}: value for key {key!r} is not a number")
        mask = _mask_from_key(str(key), ground.size, index, what)
        if table[mask] is not None:
            raise SchemaError(f"{what}: subset {key!r} given twice")
        table[mask] = float(val)
    missing = [m for m, v in enumerate(table) if v is None]
    _require(not missing, f"{what}: missing entries for subsets {missing[:5]} (omitted entries are disallowed)")
    return Capacity(ground, tuple(table))


def capacity_to_dict(c: Capacity) -> dict:
    doc: dict[str, Any] = {"n": c.ground.n}
    if c.ground.labels is not None:
        doc["labels"] = list(c.ground.labels)
    doc["table"] = {str(mask): c.table[mask] for mask in c.ground.subsets()}
    return doc


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc


def load_capacity(path: str | Path) -> Capacity:
    path = Path(path)
    return capacity_from_dict(_read_json(path), what=str(path))


def save_capacity(c: Capacity, path: str | Path):
    Path(path).write_text(json.dumps(capacity_to_dict(c), indent=2, sort_keys=True) + "\n")


def mass_from_dict(doc: dict, what: str = "mass function") -> MassFunction:
    ground = _parse_ground(doc, what)
    _require("mass" in doc and isinstance(doc["mass"], list), f"{what}: missing 'mass' array")
    mass = doc["mass"]
    _require(len(mass) == ground.size, f"{what}: 'mass' must have 2^n = {ground.size} entries")
    _require(all(_is_number(v) for v in mass), f"{what}: masses must be numbers")
    try:
        return MassFunction(ground, tuple(float(v) for v in mass))
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def load_mass_function(path: str | Path) -> MassFunction:
    path = Path(path)
    return mass_from_dict(_read_json(path), what=str(path))


def load_values_array(text_or_path: str) -> list[float]:
    """Accept an inline JSON array or a path to a file holding one."""
    s = text_or_path.strip()
    if not s.startswith("["):
        p = Path(s)
        if not p.exists():
            raise SchemaError(f"{s!r} is neither a JSON array nor an existing file")
        s = p.read_text()
    try:
        arr = json.loads(s)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON array: {exc}") from exc
    _require(isinstance(arr, list) and all(_is_number(v) for v in arr),
             "expected a JSON array of numbers")
    return [float(v) for v in arr]


def load_scenario_doc(path: str | Path) -> dict:
    path = Path(path)
    doc = _read_json(path)
    _require(isinstance(doc, dict), f"{path}: scenario must be a JSON object")
    for key in ("w", "X", "mu_file", "nu_file", "utility"):
        _require(key in doc, f"{path}: missing {key!r}")
    _require(_is_number(doc["w"]), f"{path}: 'w' must be a number")
    _require(
        isinstance(doc["X"], list) and all(_is_number(v) for v in doc["X"]),
        f"{path}: 'X' must be an array of numbers",
    )
    doc["_dir"] = path.parent
    return doc


def write_csv(path: str | Path, header: str, rows) -> None:
    """Write ``header`` and one line per row of ``fmt17`` values, each line as it is formatted."""
    with open(path, "w") as out:
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(fmt17(v) for v in row) + "\n")
