"""JSON document schemas and CSV emission.

Capacity document::

    {"n": 2, "labels": ["a", "b"], "table": {"0": 0.0, "1": 0.3, "2": 0.5, "3": 1.0}}

Table keys are either decimal bitmask strings (bit i = element i) or
comma-joined label sets ("" for the empty set); every subset must be
present.  The table may instead be dense, ``"table": [0.0, 0.3, 0.5, 1.0]``,
one number per bitmask.  ``load_capacity`` first tries the file as text: an
ASCII document without backslashes whose one ``"table"`` object holds only
``"digits": number`` entries is read about a megabyte at a time, its keys
parsed in numpy and its values by one ``json.loads`` of the chunk with the
keys blanked out, with no 2^n-key dict.  Any other document is parsed as it
stands, and a keyed table in it is read entry by entry, which is where every
schema error is raised.  Files are decoded as UTF-8.  The writer always
emits the keyed form.  An integer too large for a float is refused by
entry.
Scenario documents::

    {"w": 1.0, "X": [4, -2], "mu_file": "mu.json", "nu_file": "nu.json", "utility": "exp:1"}

Numbers in emitted CSV are formatted with 17 significant digits and JSON
floats use shortest round-trip form; both reparse to the identical float.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

import numpy as np

from .capacity import Capacity, GroundSet
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


def _float(v: int | float, entry: str) -> float:
    """``float(v)`` of a JSON number; an integer beyond the float range is refused as ``entry``."""
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(f"{entry} is too large for a float") from None


def _floats(values: list, entry: str) -> list[float]:
    """``float`` of every JSON number in ``values`` at C speed; an integer beyond the float range
    is refused as ``entry`` and its index."""
    try:
        return list(map(float, values))
    except OverflowError:
        return [_float(v, f"{entry} {i}") for i, v in enumerate(values)]


def _keyed_loop(entries: dict, ground: GroundSet, what: str) -> list[float]:
    """Read a keyed table entry by entry; raises the first schema violation met in key order."""
    index = None if ground.labels is None else {lab: i for i, lab in enumerate(ground.labels)}
    table = [None] * ground.size
    # 2^n entries: raise directly, not via _require, to build messages only on failure
    for key, val in entries.items():
        if not _is_number(val):
            raise SchemaError(f"{what}: value for key {key!r} is not a number")
        mask = _mask_from_key(str(key), ground.size, index, what)
        if table[mask] is not None:
            raise SchemaError(f"{what}: subset {key!r} given twice")
        try:
            table[mask] = float(val)
        except OverflowError:
            raise SchemaError(f"{what}: value for key {key!r} is too large for a float") from None
    missing = [m for m, v in enumerate(table) if v is None]
    _require(not missing, f"{what}: missing entries for subsets {missing[:5]} (omitted entries are disallowed)")
    return table


def _dense_table(values: list, size: int, what: str) -> list[float]:
    _require(len(values) == size, f"{what}: 'table' must have 2^n = {size} entries")
    bad = next((i for i, v in enumerate(values) if not _is_number(v)), None)
    _require(bad is None, f"{what}: table entry {bad} is not a number")
    return _floats(values, f"{what}: table entry")


def capacity_from_dict(doc: dict, what: str = "capacity") -> Capacity:
    """Read a capacity document whose table is keyed by subset or dense by bitmask."""
    ground = _parse_ground(doc, what)
    entries = doc.get("table")
    if isinstance(entries, list):
        return Capacity(ground, _dense_table(entries, ground.size, what))
    _require(isinstance(entries, dict), f"{what}: missing 'table' object or array")
    return Capacity(ground, _keyed_loop(entries, ground, what))


def capacity_to_dict(c: Capacity) -> dict:
    doc: dict[str, Any] = {"n": c.ground.n}
    if c.ground.labels is not None:
        doc["labels"] = list(c.ground.labels)
    doc["table"] = {str(mask): v for mask, v in enumerate(c.table)}
    return doc


def _read_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: malformed JSON: {exc}") from exc


_TABLE_OBJECT = re.compile(rb'"table"[ \t\n\r]*:[ \t\n\r]*\{')
_NUMBER_OR_SPACE = b"0123456789+-.eE \t\n\r"
# the bytes JSON takes as whitespace
_SPACE = np.zeros(256, bool)
_SPACE[list(b" \t\n\r")] = True
# the widest key _key_masks reads: 10^18 - 1 fits an int64
_KEY_DIGITS = 18
# the longest whitespace run _past_space steps over, one numpy pass a byte
_SPACE_RUN = 64
# Bytes of table body checked and parsed at a time; a chunk ends at the first comma past it.
_CHUNK_BYTES = 1 << 20


def _key_masks(buf: np.ndarray, quotes: np.ndarray) -> np.ndarray | None:
    """The decimal numbers between the quotes at ``quotes[0::2]`` and ``quotes[1::2]`` in the
    bytes ``buf``, as int64, or None unless each is 1 to ``_KEY_DIGITS`` digits with no
    leading zero (``"0"`` itself is a key).

    One gather per digit position reads that digit of every key; a key that has ended
    reads its closing quote there and keeps its value.
    """
    opens, closes = quotes[::2] + 1, quotes[1::2]
    widths = closes - opens
    if widths.min() < 1 or widths.max() > _KEY_DIGITS:
        return None
    if ((buf[opens] == ord("0")) & (widths > 1)).any():
        return None
    masks = np.zeros(len(opens), np.int64)
    for j in range(int(widths.max())):
        digits = buf[np.minimum(opens + j, closes)] - np.uint8(ord("0"))  # a non-digit wraps above 9
        inside = widths > j
        if (inside & (digits > 9)).any():
            return None
        masks = np.where(inside, masks * 10 + digits, masks)
    return masks


def _past_space(buf: np.ndarray, at: np.ndarray) -> np.ndarray | None:
    """Each position in ``at`` moved past the JSON whitespace that starts there, or None if a
    run is longer than ``_SPACE_RUN`` bytes; ``buf`` must end in a byte that is not whitespace."""
    at = at.copy()
    todo = np.flatnonzero(_SPACE[buf[at]])
    for _ in range(_SPACE_RUN):
        if not todo.size:
            break
        at[todo] += 1
        todo = todo[_SPACE[buf[at[todo]]]]
    return None if todo.size else at


def _flat_keyed_capacity(path: Path) -> Capacity | None:
    """Read the capacity document at ``path`` with its keyed table parsed chunk by chunk,
    the keys in numpy and only the values by ``json.loads``, or None unless the document
    is plain enough for that and holds one entry per subset.  A bad ``n`` or ``labels``
    raises the ``SchemaError`` that ``capacity_from_dict`` raises.

    Plain is an ASCII document without backslashes, so that every quote delimits a
    string and ``"table"`` is the key itself, with one top-level ``"table"`` object
    whose body holds only number characters, JSON whitespace, quotes, colons and
    commas.  The rest of the document is parsed once with ``[]`` for the table.  The
    body is cut at commas into chunks of about ``_CHUNK_BYTES``, and each chunk is
    copied once, between two spaces, and read in these passes:

    1. One byte pass checks that its quotes and separators run ``"":,`` repeated,
       ending in ``"":`` (any other character survives the deletion and fails this).
       So the quotes pair up, one pair per key, and commas stand only between entries:
       no entry is cut.
    2. One numpy pass finds the quotes, and ``_key_masks`` reads every key as 1 to 18
       digits with no leading zero, one gather per digit position.
    3. ``_past_space`` finds the colon after each key and the first byte after the
       colon; a comma or the chunk's end there is an entry without a value, which a
       number elsewhere in the entry could stand in for.  Whitespace runs longer than
       ``_SPACE_RUN`` decline.
    4. The spaces become brackets and the quotes, key digits and colons spaces,
       leaving ``[value, ...]``.  ``json.loads`` of it checks the grammar of every
       number, and refuses a number left before a key or its colon, which makes two
       numbers in one entry, and a colon that did not follow its key.
    5. The values go straight into a float64 array, which converts an integer as
       ``float()`` does and raises the same ``OverflowError``.
    """
    data = path.read_bytes()
    found = _TABLE_OBJECT.search(data) if data.isascii() and b"\\" not in data else None
    if found is None:
        return None
    start = found.end()
    end = data.find(b"}", start)
    if end < 0 or data.count(b'"table"', 0, start) != 1 or data.find(b'"table"', end) >= 0:
        return None
    try:
        doc = json.loads((data[: start - 1] + b"[]" + data[end + 1 :]).decode("ascii"))
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or doc.get("table") != []:  # the object was not the top-level table
        return None
    entries = data.count(b",", start, end) + 1
    masks, values = np.empty(entries, np.int64), np.empty(entries)
    body, pos = memoryview(data), 0
    while start <= end:
        cut = data.find(b",", start + _CHUNK_BYTES, end)
        stop = end if cut < 0 else cut
        text = bytearray(b" ") * (stop - start + 2)
        text[1:-1] = body[start:stop]
        start = stop + 1
        skeleton = text.translate(None, _NUMBER_OR_SPACE)
        keys = len(skeleton) // 4 + 1
        if skeleton != b'"":,' * (keys - 1) + b'"":':
            return None
        text[0], text[-1] = ord("["), ord("]")
        buf = np.frombuffer(text, np.uint8)  # a view: text is blanked through it
        quotes = np.flatnonzero(buf == ord('"'))
        keyed = _key_masks(buf, quotes)
        if keyed is None:
            return None
        colons = _past_space(buf, quotes[1::2] + 1)  # or a number, which leaves the colon to json
        starts = None if colons is None else _past_space(buf, colons + 1)
        if starts is None or np.isin(buf[starts], list(b",]")).any():  # an entry without a value
            return None
        widest = int((quotes[1::2] - quotes[::2]).max())
        for j in range(widest + 1):  # each quoted key, quotes included
            buf[np.minimum(quotes[::2] + j, quotes[1::2])] = ord(" ")
        buf[colons] = ord(" ")
        try:
            vals = json.loads(text)
        except json.JSONDecodeError:
            return None
        if len(vals) != keys:
            return None
        masks[pos : pos + keys] = keyed
        try:
            values[pos : pos + keys] = vals  # ints and floats: the body holds no other JSON value
        except OverflowError:  # an integer value beyond the float range
            return None
        pos += keys
    del data, found, body
    ground = _parse_ground(doc, str(path))
    size = ground.size
    if entries != size or masks.max() >= size or np.bincount(masks, minlength=size).max() != 1:
        return None
    table = np.empty(size)
    table[masks] = values
    del masks, values
    return Capacity(ground, table)


def load_capacity(path: str | Path) -> Capacity:
    """Read a capacity document; a plain keyed one through ``_flat_keyed_capacity``.

    Any other document, or one that path declines, is read again by ``_read_json``
    and ``capacity_from_dict``, which raise every schema error.
    """
    path = Path(path)
    cap = _flat_keyed_capacity(path)
    return capacity_from_dict(_read_json(path), what=str(path)) if cap is None else cap


def save_capacity(c: Capacity, path: str | Path):
    """Write the bytes of ``json.dumps(capacity_to_dict(c), indent=2, sort_keys=True)`` and a
    newline, without that call's pure-Python encoder: keys in string order, so "10" before
    "2", and labels through ``json.dumps``."""
    table, lines = c.table, ["{"]
    if c.ground.labels is not None:
        labels = ",\n".join(f"    {json.dumps(s)}" for s in c.ground.labels)
        lines.append(f'  "labels": [\n{labels}\n  ],')
    entries = ",\n".join([f'    "{m}": {table[m]!r}' for m in sorted(c.ground.subsets(), key=str)])
    lines += [f'  "n": {c.ground.n},', '  "table": {', entries, "  }", "}", ""]
    Path(path).write_text("\n".join(lines))


def load_values_array(text_or_path: str) -> list[float]:
    """Accept an inline JSON array or a path to a file holding one."""
    s, where = text_or_path.strip(), ""
    if not s.startswith("["):
        p = Path(s)
        if not p.exists():
            raise SchemaError(f"{s!r} is neither a JSON array nor an existing file")
        where = f"{p}: "
        try:
            s = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{where}malformed JSON array: {exc}") from exc
    try:
        arr = json.loads(s)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}malformed JSON array: {exc}") from exc
    _require(isinstance(arr, list) and all(map(_is_number, arr)), "expected a JSON array of numbers")
    return _floats(arr, "array entry")


def load_scenario_doc(path: str | Path) -> dict:
    path = Path(path)
    doc = _read_json(path)
    _require(isinstance(doc, dict), f"{path}: scenario must be a JSON object")
    for key in ("w", "X", "mu_file", "nu_file", "utility"):
        _require(key in doc, f"{path}: missing {key!r}")
    _require(_is_number(doc["w"]), f"{path}: 'w' must be a number")
    _require(
        isinstance(doc["X"], list) and all(map(_is_number, doc["X"])),
        f"{path}: 'X' must be an array of numbers",
    )
    doc["w"] = _float(doc["w"], f"{path}: 'w'")
    doc["X"] = _floats(doc["X"], f"{path}: 'X' entry")
    doc["_dir"] = path.parent
    return doc


def write_csv(path: str | Path, header: str, rows) -> None:
    """Write ``header`` and one line per row of ``fmt17`` values, each line as it is formatted."""
    with open(path, "w") as out:
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(fmt17(v) for v in row) + "\n")
