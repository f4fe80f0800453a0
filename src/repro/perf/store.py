"""The persistent, content-addressed lift store (incremental lifting).

Step-1 extraction dominates the pipeline's cost, and the context-free
call policy (paper Section 4.2) makes every function's Hoare graph a pure
function of (binary image, entry, lifter options, lifter semantics) — so
finished lifts are perfectly cacheable across processes and sessions.
This module stores each :class:`~repro.hoare.lifter.LiftResult` on disk
under a SHA-256 **content address** and serves it back byte-identically.

Key derivation (see also ``INTERNALS.md`` §14)
----------------------------------------------

The key hashes *everything a lift can observe*:

* the **binary image** — every section's name, address, permissions and
  raw bytes, plus the extern-stub and exported-symbol tables.  Sections
  are hashed whole (not just the lifted function's instruction bytes)
  because whole-binary mode trusts ``.data``/``.rodata`` contents: a
  single changed byte anywhere mapped can change a verdict.  Addresses
  are hashed **absolute**, not entry-relative — the lifted predicates
  embed absolute text addresses (rip constants, jump-table entries), so
  two byte-identical functions at different load addresses genuinely
  produce different artifacts and must not share an entry;
* the **entry point** and every lift option that can change the result
  (``trust_data``, ``max_states``, ``max_targets``, ``timeout_seconds``,
  the schedule mode);
* the **semantics fingerprint** — a single version string derived from
  the *source bytes* of every trusted module (τ, solver, predicate join,
  lifter, scheduler …) **and the live bytecode of their functions**.
  The source part invalidates the whole store whenever the semantics
  change between revisions; the live part additionally catches runtime
  monkeypatching (the :mod:`repro.qa.faults` campaign injects bugs
  exactly that way), so a faulted pipeline can never be served a clean
  cached verdict — it misses and re-lifts under the fault.

Failure modes
-------------

* a corrupted, truncated, or schema-mismatched entry degrades to a
  **silent miss** (the bad file is dropped best-effort); an entry's
  summary header carries its payload's length and SHA-256, so damage
  anywhere in the payload is caught even by a header-only read
  (:meth:`LiftStore.summary`);
* the index is advisory: if it is corrupt or lost it is rebuilt from a
  directory scan, losing only LRU recency;
* a cached ``timeout`` verdict is replayed as-is — a function that sat
  close to its CPU budget is frozen on whichever side of it the cold
  run landed (the same caveat the parallel runner documents);
* concurrent writers (``run_corpus(jobs=N)``, the serve daemon and its
  workers) share the index through an append-only journal under a lock
  file (:class:`LiftStore`); entry files are written to a temp name and
  atomically renamed.

The store is an optimization **only**: Step-2 verification
(:mod:`repro.verify`, triple replay via ``python -m repro check``) never
reads it — it replays the in-memory graph it is handed, cached or not.
"""

from __future__ import annotations

import copyreg
import fcntl
import hashlib
import importlib
import io
import json
import os
import pickle
import platform
import sys
import threading
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from repro.obs.tracer import tracer as _T
from repro.perf.counters import gated as _gated

#: Bump to invalidate every cache entry on an intentional semantics change
#: that the source fingerprint cannot see (e.g. a data-file format change).
SEMANTICS_VERSION = "1"

#: On-disk entry schema; entries with any other value are misses.
#: Schema 2 prefixes the payload pickle with a summary header.
STORE_SCHEMA = 2

#: Environment knobs.
ENV_ENABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

DEFAULT_CACHE_DIR = "~/.cache/repro-lift"
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: The trusted modules whose source + live bytecode form the semantics
#: fingerprint.  Everything the fixpoint engine executes is either in
#: this list or reached only through it.
_TRUSTED_MODULES = (
    "repro.expr.ast",
    "repro.expr.concrete",
    "repro.expr.simplify",
    "repro.expr.subst",
    "repro.pred.clause",
    "repro.pred.flags",
    "repro.pred.predicate",
    "repro.smt.intervals",
    "repro.smt.linear",
    "repro.smt.solver",
    "repro.memmodel.model",
    "repro.semantics.events",
    "repro.semantics.memory",
    "repro.semantics.state",
    "repro.semantics.tau",
    "repro.hoare.annotations",
    "repro.hoare.ascent",
    "repro.hoare.calls",
    "repro.hoare.graph",
    "repro.hoare.lifter",
    "repro.hoare.resolve",
    "repro.hoare.schedule",
    "repro.isa.decode",
    "repro.isa.instruction",
    "repro.isa.operands",
    "repro.isa.registers",
)

_source_digests: dict[str, bytes] = {}


def _source_digest(path: str) -> bytes:
    digest = _source_digests.get(path)
    if digest is None:
        try:
            data = Path(path).read_bytes()
        except OSError:
            data = path.encode()
        digest = hashlib.sha256(data).digest()
        _source_digests[path] = digest
    return digest


def _hash_callable(h, qualname: str, code: types.CodeType) -> None:
    h.update(qualname.encode())
    h.update(code.co_code)
    h.update(",".join(code.co_names).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            h.update(const.co_code)
        else:
            h.update(repr(const).encode())


class _WalkSnapshot(NamedTuple):
    """What the last full walk saw, for :func:`_snapshot_holds`: the
    trusted modules as ``(name, module)``, every walked namespace as
    ``(owner, items)`` (each module and each class it defines), and every
    walked function as ``(function, code object)``."""

    version: str
    modules: tuple
    namespaces: tuple
    functions: tuple


#: Full walks run in this process (tests check that a steady-state
#: :func:`semantics_fingerprint` call runs none).
walk_count = 0


def _trusted_walk() -> tuple[list, _WalkSnapshot]:
    """Everything the fingerprint reads from the trusted modules, in
    hashing order: each module's source digest (``bytes``), then a
    ``(qualname, code object)`` pair per function and method it exposes.
    Also the snapshot that tells a later call nothing has changed."""
    global walk_count
    walk_count += 1
    walk: list = []
    modules: list = []
    namespaces: list = []
    functions: list = []
    for module_name in _TRUSTED_MODULES:
        module = sys.modules.get(module_name)
        if module is None:
            module = importlib.import_module(module_name)
        modules.append((module_name, module))
        module_file = getattr(module, "__file__", None)
        if module_file:
            walk.append(_source_digest(module_file))
        items = tuple(vars(module).items())
        namespaces.append((module, items))
        for name, obj in sorted(items):
            if isinstance(obj, types.FunctionType):
                walk.append((f"{module_name}.{name}", obj.__code__))
                functions.append((obj, obj.__code__))
            elif isinstance(obj, type) and obj.__module__ == module_name:
                # Pickling a class's first instance caches __slotnames__
                # on the class; cache it now, so that the first store
                # does not look like a patch to _snapshot_holds.
                copyreg._slotnames(obj)
                members = tuple(vars(obj).items())
                namespaces.append((obj, members))
                for attr, member in sorted(members):
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if isinstance(member, types.FunctionType):
                        walk.append((f"{module_name}.{name}.{attr}",
                                     member.__code__))
                        functions.append((member, member.__code__))
    return walk, _WalkSnapshot(SEMANTICS_VERSION, tuple(modules),
                               tuple(namespaces), tuple(functions))


def _snapshot_holds(snapshot: _WalkSnapshot) -> bool:
    """True when a walk now would read what *snapshot* recorded.

    A walk reads only the trusted modules' namespaces (which functions
    and classes they bind), the classes' namespaces and each function's
    ``__code__``.  So it is enough that each module is still the one in
    ``sys.modules``, that every namespace holds the same items (one tuple
    comparison each, by identity for unchanged values), that every
    function still has its code object, and that the version is the same.
    """
    if snapshot.version != SEMANTICS_VERSION:
        return False
    modules = sys.modules
    for name, module in snapshot.modules:
        if modules.get(name) is not module:
            return False
    for owner, items in snapshot.namespaces:
        if tuple(vars(owner).items()) != items:
            return False
    for function, code in snapshot.functions:
        if function.__code__ is not code:
            return False
    return True


#: ``(inputs, snapshot, fingerprint)`` of the last full walk.  *snapshot*
#: keeps the code objects alive, so no id in *inputs* can be reused.
_fingerprint_memo: tuple[tuple, _WalkSnapshot, str] | None = None


def semantics_fingerprint() -> str:
    """The single version string gating every cache entry.

    Covers :data:`SEMANTICS_VERSION`, the Python version, the source
    bytes of every trusted module, and the **live** bytecode of every
    function and method those modules currently expose — so both a
    source edit and a runtime monkeypatch (an injected fault) change the
    fingerprint and turn every prior entry into a miss.

    A call first checks the snapshot of the last full walk
    (:func:`_snapshot_holds`) and returns the memoized value when it
    holds.  Otherwise it walks again, and hashes only when an input
    differs from the last walk's: the version string, the Python
    version, a source digest, a name, or the identity of a code object (a
    patched function or a reassigned ``__code__``).
    """
    global _fingerprint_memo
    memo = _fingerprint_memo
    if memo is not None and _snapshot_holds(memo[1]):
        return memo[2]
    walk, snapshot = _trusted_walk()
    python = platform.python_version()
    inputs = (SEMANTICS_VERSION, python, tuple(
        part if isinstance(part, bytes) else (part[0], id(part[1]))
        for part in walk))
    if memo is not None and memo[0] == inputs:
        _fingerprint_memo = (inputs, snapshot, memo[2])
        return memo[2]
    h = hashlib.sha256()
    h.update(f"repro-semantics|{SEMANTICS_VERSION}|".encode())
    h.update(python.encode())
    for part in walk:
        if isinstance(part, bytes):
            h.update(part)
        else:
            _hash_callable(h, *part)
    fingerprint = h.hexdigest()
    _fingerprint_memo = (inputs, snapshot, fingerprint)
    return fingerprint


def binary_fingerprint(binary) -> bytes:
    """SHA-256 digest of everything a lift can read from *binary*."""
    h = hashlib.sha256()
    for section in sorted(binary.sections, key=lambda s: (s.addr, s.name)):
        h.update(
            f"S|{section.name}|{section.addr:#x}|{int(section.executable)}"
            f"|{int(section.writable)}|{len(section.data)}|".encode()
        )
        h.update(section.data)
    for addr, name in sorted(binary.externals.items()):
        h.update(f"E|{addr:#x}|{name}|".encode())
    for name, addr in sorted(binary.symbols.items()):
        h.update(f"Y|{name}|{addr:#x}|".encode())
    return h.digest()


def lift_key(
    binary,
    entry: int | None = None,
    *,
    trust_data: bool = True,
    max_states: int = 50_000,
    max_targets: int = 1024,
    timeout_seconds: float | None = None,
    schedule: str = "scc",
    pointer_summaries: bool = False,
) -> str:
    """The content address of one lift (hex SHA-256)."""
    resolved_entry = entry if entry is not None else binary.entry
    h = hashlib.sha256()
    h.update(b"repro-lift-key|1|")
    h.update(semantics_fingerprint().encode())
    h.update(binary_fingerprint(binary))
    h.update(
        f"|entry={resolved_entry:#x}|trust={int(trust_data)}"
        f"|max_states={max_states}|max_targets={max_targets}"
        f"|timeout={timeout_seconds!r}|schedule={schedule}"
        f"|summaries={int(pointer_summaries)}".encode()
    )
    return h.hexdigest()


class LiftSummary(NamedTuple):
    """What a stored lift's header says about it: enough to build its
    :class:`~repro.eval.runner.FunctionRecord` without the graph."""

    stats: object    # LiftStats
    errors: list     # list[VerificationError]


def _encode_entry(key: str, result) -> bytes:
    """One entry file: a summary header pickle, then the payload pickle.

    The header holds the schema, the key, the result's ``stats`` and
    ``errors``, and the payload's length and SHA-256, so a reader that
    needs only the summary checks the payload without unpickling it.
    """
    body = pickle.dumps(
        {"schema": STORE_SCHEMA, "key": key, "result": result},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = pickle.dumps(
        {"schema": STORE_SCHEMA, "key": key, "stats": result.stats,
         "errors": list(result.errors), "body_bytes": len(body),
         "body_sha256": hashlib.sha256(body).digest()},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return header + body


def _decode_entry(blob: bytes, key: str, body: bool):
    """The :class:`LiftSummary` (or, with *body*, the result) stored in
    *blob*; raises on any schema, key, length or digest mismatch."""
    from repro.hoare.annotations import VerificationError
    from repro.hoare.lifter import LiftResult, LiftStats

    stream = io.BytesIO(blob)
    header = pickle.load(stream)
    if (not isinstance(header, dict)
            or header.get("schema") != STORE_SCHEMA
            or header.get("key") != key):
        raise ValueError("malformed store entry header")
    payload = memoryview(blob)[stream.tell():]
    if (len(payload) != header.get("body_bytes")
            or hashlib.sha256(payload).digest() != header.get("body_sha256")):
        raise ValueError("store entry body does not match its header")
    summary = LiftSummary(header.get("stats"), header.get("errors"))
    if (not isinstance(summary.stats, LiftStats)
            or not isinstance(summary.errors, list)
            or not all(isinstance(error, VerificationError)
                       for error in summary.errors)):
        raise ValueError("malformed store entry summary")
    if not body:
        return summary
    payload = pickle.loads(payload)
    if (not isinstance(payload, dict)
            or payload.get("schema") != STORE_SCHEMA
            or payload.get("key") != key):
        raise ValueError("malformed store entry body")
    result = payload.get("result")
    if (not isinstance(result, LiftResult)
            or result.stats != summary.stats
            or result.errors != summary.errors):
        raise ValueError("store entry header does not match its body")
    return result


class _IndexState:
    """One store root's index as this process last folded it.

    *index* is the ``index.json`` shape (``clock``, ``entries``,
    ``telemetry``); *generation* names the journal it was folded from
    (None: no journal of ours yet); *offset* is how many journal bytes
    are folded; *lines* counts the folded lines; *total* is the entries'
    byte sum."""

    __slots__ = ("index", "generation", "offset", "lines", "total")

    def __init__(self, index: dict, generation: str | None,
                 offset: int) -> None:
        self.index = index
        self.generation = generation
        self.offset = offset
        self.lines = 0
        self.total = sum(entry.get("size", 0)
                         for entry in index["entries"].values())


#: The folded index of every store root this process has used, shared by
#: all :class:`LiftStore` handles on one root.
_INDEXES: dict[str, _IndexState] = {}

#: Serializes this process's threads around :data:`_INDEXES`; the file
#: lock serializes processes.
_INDEX_MUTEX = threading.Lock()


def _journal_generation(header: bytes) -> str | None:
    """The generation a journal's first line names, or None."""
    try:
        record = json.loads(header)
    except ValueError:
        return None
    if isinstance(record, dict) and isinstance(record.get("generation"),
                                               str):
        return record["generation"]
    return None


class LiftStore:
    """A directory of pickled lift results with an LRU size cap.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` per entry (a summary header
    pickle, then the payload pickle; see :func:`_encode_entry`) plus
    ``<root>/index.json`` holding a logical clock, per-entry access
    stamps and lifetime telemetry, and ``<root>/index.journal``, the
    hits, misses and stores since ``index.json`` was last written.
    Every mutation is tolerant of a missing/corrupt index.

    Index writes: each hit (:meth:`get` or :meth:`summary`), each miss
    and each :meth:`put` appends one line to the journal; a
    :func:`cached_lift` miss and the store that follows it share one
    line.  Each process folds the journal into one in-memory index per
    root (:data:`_INDEXES`), reading only the lines it has not seen.  The
    journal is compacted into ``index.json`` when it has more lines than
    the index has entries (and at least :attr:`COMPACT_MIN_LINES`), and
    after every eviction.  A lock file serializes the appends and the
    compactions of all processes, so no count is lost.
    """

    INDEX_NAME = "index.json"
    JOURNAL_NAME = "index.journal"
    LOCK_NAME = "index.lock"

    #: The fewest journal lines that trigger a compaction.
    COMPACT_MIN_LINES = 64

    def __init__(self, root: str | os.PathLike | None = None,
                 max_bytes: int | None = None):
        if root is None:
            root = os.environ.get(ENV_DIR) or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser()
        self._root_key = str(self.root)
        if max_bytes is None:
            try:
                max_bytes = int(os.environ.get(ENV_MAX_BYTES,
                                               DEFAULT_MAX_BYTES))
            except ValueError:
                max_bytes = DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes

    # -- paths -------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    @property
    def journal_path(self) -> Path:
        return self.root / self.JOURNAL_NAME

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # -- the index ---------------------------------------------------------

    #: Lifetime counters persisted in the index (advisory, like recency).
    TELEMETRY_FIELDS = ("hits", "misses", "stores", "evictions")

    @contextmanager
    def _locked(self, create: bool):
        """Hold this process's index mutex and the root's lock file.

        With *create* the root is made first; without it, a root that
        does not exist yet is read unlocked (there is nothing to race
        on).  A lock file that cannot be opened leaves the index
        advisory, as it always was, rather than failing the lift."""
        with _INDEX_MUTEX:
            fd = None
            try:
                if create:
                    self.root.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.root / self.LOCK_NAME,
                             os.O_RDWR | os.O_CREAT, 0o644)
                fcntl.flock(fd, fcntl.LOCK_EX)
            except OSError:
                if fd is not None:
                    os.close(fd)
                    fd = None
            try:
                yield
            finally:
                if fd is not None:
                    os.close(fd)   # releases the lock

    def _read_index_file(self) -> dict:
        """``index.json``, or an index rebuilt from a directory scan."""
        try:
            index = json.loads(self.index_path.read_text())
            if (isinstance(index, dict)
                    and isinstance(index.get("entries"), dict)
                    and isinstance(index.get("clock"), int)):
                telemetry = index.get("telemetry")
                if not isinstance(telemetry, dict):
                    telemetry = index["telemetry"] = {}
                for name in self.TELEMETRY_FIELDS:
                    telemetry.setdefault(name, 0)
                return index
        except (OSError, ValueError):
            pass
        # Rebuild from a directory scan (recency is lost, contents are not).
        entries: dict[str, dict] = {}
        for path in sorted(self.root.glob("??/*.pkl")):
            try:
                stat = path.stat()
                entries[path.stem] = {"size": stat.st_size, "at": 0,
                                      "created": stat.st_mtime}
            except OSError:
                continue
        return {"clock": 0, "entries": entries,
                "telemetry": {name: 0 for name in self.TELEMETRY_FIELDS}}

    def _sync(self) -> _IndexState:
        """This root's index with every journal line folded in (call it
        under :meth:`_locked`).

        The journal's first line names its generation, which
        ``index.json`` repeats when the journal continues it.  When the
        journal's generation is not the one this process folded, the
        index is read afresh; a journal whose generation ``index.json``
        does not name is stale (a compaction died between its two
        writes, or the index was lost) and its lines are not folded."""
        state = _INDEXES.get(self._root_key)
        try:
            with open(self.journal_path, "rb") as journal:
                header = journal.readline()
                generation = _journal_generation(header)
                if (state is None or generation is None
                        or generation != state.generation):
                    index = self._read_index_file()
                    if index.get("journal") != generation:
                        generation = None
                    state = _IndexState(index, generation, len(header))
                if state.generation is not None:
                    journal.seek(state.offset)
                    data = journal.read()
                    # A line still being written waits for the next sync.
                    data = data[:data.rfind(b"\n") + 1]
                    state.offset += len(data)
                    for line in data.splitlines():
                        try:
                            record = json.loads(line)
                        except ValueError:
                            continue
                        if isinstance(record, list):
                            self._apply(state, record)
        except OSError:
            if state is None or state.generation is not None:
                state = _IndexState(self._read_index_file(), None, 0)
        _INDEXES[self._root_key] = state
        return state

    def _apply(self, state: _IndexState, record: list) -> None:
        """Fold one journal line: ``["hit", key, size, time]``,
        ``["miss"]`` or ``["store", key, size, time]`` (a store also
        counts the miss that led to it)."""
        state.lines += 1
        kind = record[0] if record else None
        index = state.index
        if kind == "miss":
            self._count(index, "misses")
        elif kind in ("hit", "store") and len(record) == 4:
            _, key, size, stamp = record
            if kind == "store":
                self._count(index, "misses")
            index["clock"] += 1
            prior = index["entries"].get(key, {})
            state.total += size - prior.get("size", 0)
            index["entries"][key] = {
                "size": size, "at": index["clock"],
                # Wall-clock birth time, preserved across touches — the
                # oldest/newest-entry-age telemetry in ``stats()``.
                "created": prior.get("created", stamp),
            }
            self._count(index, "hits" if kind == "hit" else "stores")

    def _record(self, record: list) -> None:
        """Append *record* to the journal and fold it; evict and compact
        when due."""
        line = (json.dumps(record) + "\n").encode()
        with self._locked(create=True):
            state = self._sync()
            if state.generation is None:
                self._compact(state)
            if state.generation is not None:
                try:
                    fd = os.open(self.journal_path,
                                 os.O_WRONLY | os.O_APPEND)
                    try:
                        os.write(fd, line)
                    finally:
                        os.close(fd)
                    state.offset += len(line)
                except OSError:
                    # Held in memory only: the next record compacts it.
                    state.generation = None
            self._apply(state, record)
            evicted = record[0] == "store" and self._evict(state)
            if evicted or state.lines > max(len(state.index["entries"]),
                                            self.COMPACT_MIN_LINES):
                self._compact(state)

    def _compact(self, state: _IndexState) -> None:
        """Write the folded index to ``index.json`` and start an empty
        journal of a new generation (call it under :meth:`_locked`).
        ``index.json`` goes first: a crash between the two writes leaves
        a journal that ``index.json`` does not name, whose lines it
        already holds."""
        generation = os.urandom(8).hex()
        state.index["journal"] = generation
        header = (json.dumps({"generation": generation}) + "\n").encode()
        state.generation = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = self.index_path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(state.index, sort_keys=True))
            os.replace(tmp, self.index_path)
            tmp = self.journal_path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(header)
            os.replace(tmp, self.journal_path)
        except OSError:
            return  # advisory only
        state.generation = generation
        state.offset = len(header)
        state.lines = 0

    def _load_index(self) -> dict:
        """The index as of now: ``index.json`` plus the journal."""
        with self._locked(create=False):
            return self._sync().index

    def _count(self, index: dict, name: str, n: int = 1) -> None:
        telemetry = index.setdefault(
            "telemetry", {field: 0 for field in self.TELEMETRY_FIELDS})
        telemetry[name] = telemetry.get(name, 0) + n

    def _evict(self, state: _IndexState) -> bool:
        """Drop least recently used entries until the total fits; True
        when any was dropped."""
        if state.total <= self.max_bytes:
            return False
        index = state.index
        entries = index["entries"]
        for key in sorted(entries, key=lambda k: (entries[k].get("at", 0), k)):
            if state.total <= self.max_bytes:
                break
            state.total -= entries[key].get("size", 0)
            del entries[key]
            self._drop_file(key)
            self._count(index, "evictions")
        return True

    def _drop_file(self, key: str) -> None:
        try:
            self.entry_path(key).unlink(missing_ok=True)
        except OSError:
            pass

    # -- entry access ------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Cheap presence probe: does an entry file exist for *key*?

        No load, no telemetry, no counters — the ``repro serve`` daemon
        uses it to decide whether a duplicate submission can be answered
        from the store before committing to the full :meth:`get` (which
        does count the hit).  A truncated entry can make this return True
        and the subsequent ``get`` still miss; callers must treat it as
        advisory.
        """
        try:
            return self.entry_path(key).is_file()
        except OSError:
            return False

    def get(self, key: str):
        """The stored :class:`LiftResult` for *key*, or None (a miss).

        Any load failure — missing file, truncated pickle, foreign bytes,
        schema or key mismatch, a body that does not match its header's
        length and digest — is a silent miss; the offending file is
        removed best-effort so it is not re-tried forever.
        """
        result = self._load(key, body=True)
        if result is None:
            self._save_miss()
        return result

    def summary(self, key: str) -> LiftSummary | None:
        """The stored header for *key* — the result's ``stats`` and
        ``errors`` — or None (a miss), without unpickling the graph.

        Validation, corruption handling, recency and hit/miss counting
        are exactly :meth:`get`'s: the body's length and digest are
        checked, so a damaged entry misses here as it would there.
        """
        summary = self._load(key, body=False)
        if summary is None:
            self._save_miss()
        return summary

    def _load(self, key: str, *, body: bool):
        """Read and check the entry for *key*; the result (*body*) or its
        summary on a hit, None on a miss.  A hit journals its recency and
        hit count; a miss is counted in-process and traced but left for
        the caller to journal, so a miss that ends in :meth:`put` costs
        one journal line, not two."""
        value = None
        try:
            blob = self.entry_path(key).read_bytes()
        except OSError:
            blob = None
        if blob is not None:
            try:
                value = _decode_entry(blob, key, body)
            except Exception:
                # Corruption tolerance: a bad entry must never take the
                # pipeline down — drop it and re-lift.
                self._drop_file(key)
        if value is None:
            _gated("cache_lift_misses")
            if _T.enabled:
                _T.emit("cache.lift.miss", None, key=key[:16])
            return None
        self._record(["hit", key, len(blob), time.time()])
        _gated("cache_lift_hits")
        if _T.enabled:
            _T.emit("cache.lift.hit", None, key=key[:16], bytes=len(blob))
        return value

    def _save_miss(self) -> None:
        self._record(["miss"])

    def put(self, key: str, result) -> None:
        """Store *result* under *key* (atomic write, then LRU eviction).

        A store follows a lookup miss (see :func:`cached_lift`), so it
        also counts that miss, in the same journal line.
        """
        blob = _encode_entry(key, result)
        path = self.entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            # A full/read-only disk disables the cache, not the lift.
            self._save_miss()
            return
        self._record(["store", key, len(blob), time.time()])
        _gated("cache_lift_stores")
        if _T.enabled:
            _T.emit("cache.lift.store", None, key=key[:16], bytes=len(blob))

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict:
        """Entry count and byte totals from an authoritative directory scan,
        plus the lifetime telemetry persisted in the index (hit/miss/store/
        eviction counts, hit-rate, oldest/newest entry age in seconds)."""
        entries = 0
        total = 0
        for path in self.root.glob("??/*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        index = self._load_index()
        telemetry = {name: int(index.get("telemetry", {}).get(name, 0))
                     for name in self.TELEMETRY_FIELDS}
        lookups = telemetry["hits"] + telemetry["misses"]
        created = [entry.get("created") for entry in
                   index.get("entries", {}).values()
                   if isinstance(entry.get("created"), (int, float))]
        now = time.time()
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total,
            "max_bytes": self.max_bytes,
            "telemetry": telemetry,
            "hit_rate": (telemetry["hits"] / lookups) if lookups else 0.0,
            "oldest_entry_age": (now - min(created)) if created else None,
            "newest_entry_age": (now - max(created)) if created else None,
        }

    def clear(self) -> int:
        """Remove every entry (and the index); returns entries removed."""
        removed = 0
        with self._locked(create=False):
            for path in list(self.root.glob("??/*.pkl")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
            for path in (self.index_path, self.journal_path):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            _INDEXES.pop(self._root_key, None)
        return removed


def ambient_enabled() -> bool:
    """True when the ``REPRO_CACHE`` environment variable opts in."""
    return os.environ.get(ENV_ENABLE, "").strip().lower() in (
        "1", "true", "yes", "on")


def resolve_store(cache=None, cache_dir: str | None = None
                  ) -> LiftStore | None:
    """Map a ``cache=`` argument to a store (or None = caching off).

    ``None`` defers to the environment (:func:`ambient_enabled`), booleans
    force the decision, and a ready :class:`LiftStore` passes through.
    """
    if cache is False:
        return None
    if isinstance(cache, LiftStore):
        return cache
    if cache is None and not ambient_enabled():
        return None
    return LiftStore(root=cache_dir)


def cached_lift(
    binary,
    entry: int | None = None,
    store: LiftStore | None = None,
    *,
    trust_data: bool = True,
    max_states: int = 50_000,
    max_targets: int = 1024,
    timeout_seconds: float | None = None,
    schedule: str = "scc",
    pointer_summaries: bool = False,
):
    """Serve the lift from *store*, falling back to the cold path on miss.

    A hit reproduces the exact artifact the cold path stored — graph,
    annotations, obligations, assumptions, errors, and stats — with only
    ``stats.seconds`` rewritten to the (tiny) load time, so aggregate
    timing stays honest.  Expressions re-intern on unpickle
    (:mod:`repro.expr.ast` ``__reduce__``), so identity-based fast paths
    keep working on cached graphs.

    A result the CPU-time guard shaped is returned but never stored: it
    depends on machine speed, and a cached copy would stick for every
    later run.  That covers a rejection by the guard, and a
    ``pointer_summaries`` lift whose phase 1 the guard cut short.  A
    ``max_states`` rejection is deterministic fuel and is stored like any
    other verdict.
    """
    from repro.hoare.lifter import lift_uncached

    if store is None:
        store = LiftStore()
    key = lift_key(
        binary, entry, trust_data=trust_data, max_states=max_states,
        max_targets=max_targets, timeout_seconds=timeout_seconds,
        schedule=schedule, pointer_summaries=pointer_summaries,
    )
    load_start = time.perf_counter()
    result = store._load(key, body=True)
    if result is not None:
        result.stats.seconds = time.perf_counter() - load_start
        return result
    result = lift_uncached(
        binary, entry=entry, trust_data=trust_data, max_states=max_states,
        max_targets=max_targets, timeout_seconds=timeout_seconds,
        schedule=schedule, pointer_summaries=pointer_summaries,
    )
    # The miss is persisted with the store, in one index write.
    if result.depends_on_cpu_budget:
        store._save_miss()
    else:
        store.put(key, result)
    return result
