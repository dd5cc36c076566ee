"""Compact int-interned wire codec for the shared worker pool.

``ProcessPoolExecutor`` tasks used to carry a whole
:class:`~repro.graph.database.Database` (dict-of-frozensets) or
:class:`~repro.core.perfect.PerfectTyping` (frozensets of frozen
dataclasses) per task, re-pickled for every shard and every sweep
block.  This module replaces that with a flat binary payload built
once per pool:

* every object id / label / type name is **interned** into one string
  table and referenced by ``uint32`` index thereafter;
* edges are flat ``(src, dst, label)`` index triples in one
  ``array('I')`` — no per-edge objects, no hashing on decode beyond
  the database's own inserts;
* rule bodies are **packed uint64 masks** over an exported
  :class:`~repro.core.linkspace.LinkSpace` bit table
  (:func:`~repro.core.linkspace.pack_masks` layout, the same word
  layout as :mod:`repro.core.matrixspace`), so the hypercube points
  cross the process boundary as the flat ints they already are in the
  kernels instead of round-tripping through ``FrozenSet[TypedLink]``;
* atomic values ride as one JSON array when they are all JSON-safe,
  falling back to one pickle blob otherwise (values must round-trip
  exactly — the decoded database is the sequential oracle's input).

Layout notes: every section is length-prefixed (``struct`` little-
endian), strings are UTF-8 with an offset table, and encoding is
deterministic — objects and edges are emitted in sorted order — so
equal inputs produce equal bytes (the pool's segment content is
reproducible, which the codec tests pin).

The decoders accept any buffer (``bytes`` or a ``memoryview`` over a
``multiprocessing.shared_memory`` segment); mask rows are read through
``memoryview.cast('Q')`` so attaching a typing does not copy the body
matrix.
"""

from __future__ import annotations

import json
import pickle
import struct
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.linkspace import LinkSpace, pack_masks, unpack_masks
from repro.core.perfect import PerfectTyping
from repro.core.typing_program import TypeRule, TypingProgram
from repro.exceptions import ReproError
from repro.graph.database import Database, ObjectId

#: Payload magic + codec version (bump on any layout change).
MAGIC = b"RPW1"

#: ``array`` typecode with a 4-byte item (``'I'`` everywhere we run,
#: but guarded so an LP32/ILP64 platform fails loudly, not subtly).
_U32 = "I"
if array(_U32).itemsize != 4:  # pragma: no cover - platform guard
    raise ReproError("no 4-byte array typecode on this platform")

_HDR = struct.Struct("<4sI")
_LEN = struct.Struct("<Q")
_VALUES_JSON = 0
_VALUES_PICKLE = 1


class _StringTable:
    """Interns strings to dense ``uint32`` indexes (first come first)."""

    __slots__ = ("_index", "strings")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.strings: List[str] = []

    def intern(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.strings)
            self._index[value] = index
            self.strings.append(value)
        return index


class _Writer:
    """Accumulates length-prefixed little-endian sections."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(_LEN.pack(value))

    def blob(self, data: bytes) -> None:
        self.u64(len(data))
        self._parts.append(data)

    def u32_array(self, values: array) -> None:
        self.blob(values.tobytes())

    def strings(self, table: Sequence[str]) -> None:
        encoded = [value.encode("utf-8") for value in table]
        offsets = array(_U32, [0])
        total = 0
        for item in encoded:
            total += len(item)
            offsets.append(total)
        self.u32(len(encoded))
        self.u32_array(offsets)
        self.blob(b"".join(encoded))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Reads the :class:`_Writer` layout off any buffer, copy-light."""

    __slots__ = ("_view", "_pos")

    def __init__(self, buffer) -> None:
        self._view = memoryview(buffer)
        self._pos = 0

    def u32(self) -> int:
        (value,) = struct.unpack_from("<I", self._view, self._pos)
        self._pos += 4
        return value

    def u64(self) -> int:
        (value,) = _LEN.unpack_from(self._view, self._pos)
        self._pos += 8
        return value

    def blob(self) -> memoryview:
        length = self.u64()
        view = self._view[self._pos:self._pos + length]
        self._pos += length
        return view

    def u32_array(self) -> array:
        values = array(_U32)
        values.frombytes(bytes(self.blob()))
        return values

    def strings(self) -> Tuple[str, ...]:
        count = self.u32()
        offsets = self.u32_array()
        blob = bytes(self.blob())
        return tuple(
            blob[offsets[i]:offsets[i + 1]].decode("utf-8")
            for i in range(count)
        )


def _check_magic(reader: _Reader, kind: int) -> None:
    magic = bytes(reader.blob())
    if magic != MAGIC:
        raise ReproError(f"bad wire payload magic {magic!r}")
    found = reader.u32()
    if found != kind:
        raise ReproError(
            f"wire payload kind mismatch: expected {kind}, got {found}"
        )


def _start(kind: int) -> _Writer:
    writer = _Writer()
    writer.blob(MAGIC)
    writer.u32(kind)
    return writer


_KIND_DATABASE = 1
_KIND_TYPING = 2
_KIND_SHARDS = 3
_KIND_PROGRAM = 4

# ---------------------------------------------------------------------------
# Database
# ---------------------------------------------------------------------------


def encode_database(
    db: Database, table: Optional[_StringTable] = None
) -> bytes:
    """Serialize ``db``; deterministic for equal databases.

    A caller-provided ``table`` lets companion sections (the shard
    partition) reference the same interned ids.
    """
    table = table if table is not None else _StringTable()
    atomic_ids = array(_U32)
    values: List = []
    for obj in sorted(db.atomic_objects()):
        atomic_ids.append(table.intern(obj))
        values.append(db.value(obj))
    complex_ids = array(_U32)
    for obj in sorted(db.complex_objects()):
        complex_ids.append(table.intern(obj))
    edges = array(_U32)
    for obj in sorted(db.complex_objects()):
        out = sorted(
            (edge.label, edge.dst) for edge in db.out_edges(obj)
        )
        src_id = table.intern(obj)
        for label, dst in out:
            edges.append(src_id)
            edges.append(table.intern(dst))
            edges.append(table.intern(label))
    if len(edges) != 3 * db.num_links:
        raise ReproError(
            "database edges are not all complex-sourced; "
            "the wire codec cannot represent this database"
        )
    if _json_safe(values):
        values_kind = _VALUES_JSON
        values_blob = json.dumps(values, separators=(",", ":")).encode()
    else:
        values_kind = _VALUES_PICKLE
        values_blob = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)

    writer = _start(_KIND_DATABASE)
    writer.strings(table.strings)
    writer.u32_array(atomic_ids)
    writer.u32(values_kind)
    writer.blob(values_blob)
    writer.u32_array(complex_ids)
    writer.u32_array(edges)
    return writer.getvalue()


def _json_safe(values: Sequence) -> bool:
    """Whether JSON round-trips ``values`` exactly (no tuples, no NaN
    identity games, no custom classes)."""
    for value in values:
        if value is not None and not isinstance(value, (str, int, bool)):
            if not isinstance(value, float):
                return False
    return True


def decode_database(buffer) -> Tuple[Database, Tuple[str, ...]]:
    """Invert :func:`encode_database`.

    Returns the database plus the interned string table so companion
    sections (shards) can resolve their indexes.
    """
    reader = _Reader(buffer)
    _check_magic(reader, _KIND_DATABASE)
    strings = reader.strings()
    atomic_ids = reader.u32_array()
    values_kind = reader.u32()
    values_blob = bytes(reader.blob())
    if values_kind == _VALUES_JSON:
        values = json.loads(values_blob)
    else:
        values = pickle.loads(values_blob)
    complex_ids = reader.u32_array()
    edges = reader.u32_array()

    db = Database()
    for index, value in zip(atomic_ids, values):
        db.add_atomic(strings[index], value)
    for index in complex_ids:
        db.add_complex(strings[index])
    for i in range(0, len(edges), 3):
        db.add_link(
            strings[edges[i]], strings[edges[i + 1]], strings[edges[i + 2]]
        )
    return db, strings


# ---------------------------------------------------------------------------
# Shard partition (companion section to a database payload)
# ---------------------------------------------------------------------------


def encode_shards(
    shard_objects: Sequence[FrozenSet[ObjectId]], table: _StringTable
) -> bytes:
    """Serialize a partition's object sets against ``table``.

    Must be called with the table used by :func:`encode_database` so
    every member resolves to an already-interned id.
    """
    members = array(_U32)
    offsets = array(_U32, [0])
    for objects in shard_objects:
        for obj in sorted(objects):
            members.append(table.intern(obj))
        offsets.append(len(members))
    writer = _start(_KIND_SHARDS)
    writer.u32(len(shard_objects))
    writer.u32_array(offsets)
    writer.u32_array(members)
    return writer.getvalue()


def decode_shards(
    buffer, strings: Sequence[str]
) -> List[FrozenSet[ObjectId]]:
    """Invert :func:`encode_shards` against the database's table."""
    reader = _Reader(buffer)
    _check_magic(reader, _KIND_SHARDS)
    count = reader.u32()
    offsets = reader.u32_array()
    members = reader.u32_array()
    return [
        frozenset(
            strings[members[i]]
            for i in range(offsets[index], offsets[index + 1])
        )
        for index in range(count)
    ]


# ---------------------------------------------------------------------------
# Stage 1 typing
# ---------------------------------------------------------------------------


def encode_typing(stage1: PerfectTyping, distance_name: str = "") -> bytes:
    """Serialize a Stage 1 result for the sweep workers.

    Rule bodies leave as packed uint64 rows over the exported link
    table — the :func:`~repro.core.linkspace.pack_masks` layout — not
    as pickled frozensets.  ``distance_name`` rides along so a worker
    can warm its ``(name, dimensions)`` distance cache at attach time.
    """
    table = _StringTable()
    space = LinkSpace()
    rules = list(stage1.program.rules())
    masks = [space.encode(rule.body) for rule in rules]
    link_table = space.export_table()
    packed, n_words = pack_masks(masks, space.dimension)

    type_ids = array(_U32, [table.intern(rule.name) for rule in rules])
    type_index = {rule.name: i for i, rule in enumerate(rules)}
    links = array(_U32)
    for direction_value, label, target in link_table:
        links.append(0 if direction_value == "out" else 1)
        links.append(table.intern(label))
        links.append(table.intern(target))

    home = array(_U32)
    for obj in sorted(stage1.home_type):
        home.append(table.intern(obj))
        home.append(type_index[stage1.home_type[obj]])

    extent_offsets = array(_U32, [0])
    extent_members = array(_U32)
    weights = array(_U32)
    for rule in rules:
        for obj in sorted(stage1.extents[rule.name]):
            extent_members.append(table.intern(obj))
        extent_offsets.append(len(extent_members))
        weights.append(stage1.weights[rule.name])

    writer = _start(_KIND_TYPING)
    writer.strings(table.strings)
    writer.blob(distance_name.encode("utf-8"))
    writer.u32_array(type_ids)
    writer.u32_array(links)
    writer.u32(n_words)
    writer.u32(len(rules))
    writer.blob(packed.tobytes())
    writer.u32_array(home)
    writer.u32_array(extent_offsets)
    writer.u32_array(extent_members)
    writer.u32_array(weights)
    writer.u64(stage1.q_iterations)
    return writer.getvalue()


def decode_typing(buffer) -> Tuple[PerfectTyping, str]:
    """Invert :func:`encode_typing`: ``(typing, distance_name)``.

    The mask rows are read zero-copy through ``memoryview.cast('Q')``
    and decoded once against the rebuilt
    :class:`~repro.core.linkspace.LinkSpace` — one pass per worker per
    typing, instead of unpickling frozensets per task.
    """
    reader = _Reader(buffer)
    _check_magic(reader, _KIND_TYPING)
    strings = reader.strings()
    distance_name = bytes(reader.blob()).decode("utf-8")
    type_ids = reader.u32_array()
    links = reader.u32_array()
    n_words = reader.u32()
    n_rules = reader.u32()
    mask_view = reader.blob()
    words = (
        mask_view.cast("Q") if len(mask_view) else array("Q")
    )
    home = reader.u32_array()
    extent_offsets = reader.u32_array()
    extent_members = reader.u32_array()
    weights = reader.u32_array()
    q_iterations = reader.u64()

    space = LinkSpace.from_table(
        (
            "out" if links[i] == 0 else "in",
            strings[links[i + 1]],
            strings[links[i + 2]],
        )
        for i in range(0, len(links), 3)
    )
    masks = unpack_masks(words, n_words)[:n_rules]
    type_names = [strings[index] for index in type_ids]
    rules = [
        TypeRule(name, space.decode(mask))
        for name, mask in zip(type_names, masks)
    ]
    home_type: Dict[ObjectId, str] = {
        strings[home[i]]: type_names[home[i + 1]]
        for i in range(0, len(home), 2)
    }
    extents: Dict[str, FrozenSet[ObjectId]] = {}
    weight_map: Dict[str, int] = {}
    for index, name in enumerate(type_names):
        extents[name] = frozenset(
            strings[extent_members[i]]
            for i in range(extent_offsets[index], extent_offsets[index + 1])
        )
        weight_map[name] = weights[index]
    typing = PerfectTyping(
        program=TypingProgram(rules, check=False),
        home_type=home_type,
        extents=extents,
        weights=weight_map,
        q_iterations=q_iterations,
    )
    return typing, distance_name


# ---------------------------------------------------------------------------
# Bare typing programs (the reconcile broadcast)
# ---------------------------------------------------------------------------


def encode_program(program: TypingProgram) -> bytes:
    """Serialize a bare :class:`TypingProgram` (no extents/home/weights).

    Same layout as the rule section of :func:`encode_typing`: rule
    bodies as packed uint64 rows over the exported link table.  Used to
    broadcast the combined (quotiented) reconcile program once per
    merge; workers decode it once and evaluate shard-restricted
    fixpoints against it.
    """
    table = _StringTable()
    space = LinkSpace()
    rules = list(program.rules())
    masks = [space.encode(rule.body) for rule in rules]
    link_table = space.export_table()
    packed, n_words = pack_masks(masks, space.dimension)

    type_ids = array(_U32, [table.intern(rule.name) for rule in rules])
    links = array(_U32)
    for direction_value, label, target in link_table:
        links.append(0 if direction_value == "out" else 1)
        links.append(table.intern(label))
        links.append(table.intern(target))

    writer = _start(_KIND_PROGRAM)
    writer.strings(table.strings)
    writer.u32_array(type_ids)
    writer.u32_array(links)
    writer.u32(n_words)
    writer.u32(len(rules))
    writer.blob(packed.tobytes())
    return writer.getvalue()


def decode_program(buffer) -> TypingProgram:
    """Invert :func:`encode_program` (rule order preserved)."""
    reader = _Reader(buffer)
    _check_magic(reader, _KIND_PROGRAM)
    strings = reader.strings()
    type_ids = reader.u32_array()
    links = reader.u32_array()
    n_words = reader.u32()
    n_rules = reader.u32()
    mask_view = reader.blob()
    words = (
        mask_view.cast("Q") if len(mask_view) else array("Q")
    )
    space = LinkSpace.from_table(
        (
            "out" if links[i] == 0 else "in",
            strings[links[i + 1]],
            strings[links[i + 2]],
        )
        for i in range(0, len(links), 3)
    )
    masks = unpack_masks(words, n_words)[:n_rules]
    rules = [
        TypeRule(strings[index], space.decode(mask))
        for index, mask in zip(type_ids, masks)
    ]
    return TypingProgram(rules, check=False)


# ---------------------------------------------------------------------------
# Multi-section payloads (what actually lands in a shared segment)
# ---------------------------------------------------------------------------


def pack_sections(sections: Dict[str, bytes]) -> bytes:
    """Bundle named byte sections into one buffer (order-preserving)."""
    writer = _Writer()
    writer.u32(len(sections))
    for name, data in sections.items():
        writer.blob(name.encode("utf-8"))
        writer.blob(data)
    return writer.getvalue()


def unpack_sections(buffer) -> Dict[str, memoryview]:
    """Invert :func:`pack_sections`; values are zero-copy views."""
    reader = _Reader(buffer)
    count = reader.u32()
    sections: Dict[str, memoryview] = {}
    for _ in range(count):
        name = bytes(reader.blob()).decode("utf-8")
        sections[name] = reader.blob()
    return sections


def build_pool_payload(
    db: Database,
    shard_objects: Optional[Sequence[FrozenSet[ObjectId]]] = None,
) -> Tuple[bytes, Tuple[str, ...]]:
    """The initializer payload: the database, plus the partition.

    Returns ``(payload, strings)`` — the coordinator keeps the interned
    string table so reconcile outcomes (uint32 indexes into it) can be
    mapped back to object ids without decoding the payload.
    """
    table = _StringTable()
    sections = {"db": encode_database(db, table)}
    if shard_objects is not None:
        sections["shards"] = encode_shards(shard_objects, table)
    return pack_sections(sections), tuple(table.strings)


def load_pool_payload(
    buffer,
) -> Tuple[Database, Optional[List[FrozenSet[ObjectId]]], Tuple[str, ...]]:
    """Invert :func:`build_pool_payload` (worker initializer side).

    Also returns the payload's interned string table: reconcile workers
    index their extent arrays against it, and the coordinator keeps its
    own copy to map those indexes back to object ids without
    re-encoding anything.
    """
    sections = unpack_sections(buffer)
    db, strings = decode_database(sections["db"])
    shards = None
    if "shards" in sections:
        shards = decode_shards(sections["shards"], strings)
    return db, shards, strings
