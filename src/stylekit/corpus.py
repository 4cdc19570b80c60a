"""Dataset pipeline: ingestion, deduplication, length filtering, splits.

Records pair a source-style text (``code1``) with a target-style text
(``code2``). Deduplication keys on ``code2`` only, the style-bearing
side: one source legitimately appears with many styles. The token cap is
measured with the code lexer, comments included, synthetic whitespace
tokens excluded.
"""

from __future__ import annotations

import itertools
import json
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._fork import split_map
from .features import REGISTRY, SCHEMA, StyleVector, analyze, normalize
from .lexer import InputError
from .syntax import SourceDoc

DEFAULT_MAX_TOKENS = 378
# A manifest's counters; kept + dropped_* = input.
_COUNTERS = ("input", "kept", "dropped_dupe", "dropped_len", "dropped_malformed")
# Input lines ingest reads ahead of its in-order checks; their token counts
# are taken together, on every CPU the process may use. It bounds what ingest
# holds of the input.
_READ_AHEAD = 1024


class MalformedRecord(InputError, ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line, self.reason)


class RatioError(InputError, ValueError):
    """Split ratios that are negative, NaN or sum past one, or a negative seed."""


@dataclass
class CorpusRecord:
    id: str
    code1: str
    code2: str
    style_vec: StyleVector | None = None


@dataclass
class Manifest:
    schema: str = SCHEMA
    max_tokens: int = DEFAULT_MAX_TOKENS
    counts: dict = field(default_factory=dict)
    splits: dict = field(default_factory=dict)        # name -> [record ids]
    style_errors: dict = field(default_factory=dict)  # record id -> message

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CorpusFile:
    records: list[CorpusRecord]
    manifest: Manifest


def json_record(line_no: int, raw: str) -> dict:
    """One JSONL line as an object; :class:`MalformedRecord` names the line
    when it is not one."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(line_no, f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedRecord(line_no, "record is not an object")
    return doc


def jsonl_objects(path: str | Path):
    """(line_no, object) for each non-blank line of a JSONL file, by :func:`json_record`."""
    with Path(path).open("r", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if raw.strip():
                yield line_no, json_record(line_no, raw)


def token_count(text: str) -> int:
    """Lexer token count: comments included, Newline/Indent/Dedent not."""
    return len(SourceDoc.of(text, lenient=True).texts)


def _dedup_key(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.splitlines()).rstrip()


def _iter_input_lines(paths):
    """Yield (line_no, payload) pairs from JSONL files, plus synthetic
    records for plain source files / directories. A file of a directory is
    named by its POSIX path below the directory, without ``.py``; a source
    file that is not UTF-8, or a file below a directory that cannot be read
    (a dangling symlink, a directory named ``*.py``), yields the
    :class:`MalformedRecord` that names it. A path named in ``paths`` that
    cannot be read raises its ``OSError``."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    line_no = 0
    for path in map(Path, paths):
        is_dir = path.is_dir()
        if path.suffix == ".jsonl" and not is_dir:
            with path.open("r", encoding="utf-8-sig") as fh:
                for raw in fh:
                    line_no += 1
                    if raw.strip():
                        yield line_no, raw
            continue
        top = path if is_dir else path.parent
        for src in sorted(path.rglob("*.py")) if is_dir else [path]:
            line_no += 1
            try:
                text = src.read_text(encoding="utf-8-sig")
            except UnicodeDecodeError as exc:
                yield line_no, MalformedRecord(line_no, f"{src}: not UTF-8: {exc}")
                continue
            except OSError as exc:
                if not is_dir:
                    raise
                yield line_no, MalformedRecord(line_no,
                                               f"{src}: cannot read: {exc.strerror or exc}")
                continue
            rec_id = src.relative_to(top).with_suffix("").as_posix()
            yield line_no, {"id": rec_id, "code1": text, "code2": text}


def _checked_lines(paths):
    """(line_no, fields) for each input line, in order: the record's
    ``(id, code1, code2)``, or the :class:`MalformedRecord` that names the
    line. An exception the input raises ends the lines, as ``(None, exc)``."""
    auto_id = 0
    try:
        for line_no, payload in _iter_input_lines(paths):
            if isinstance(payload, MalformedRecord):
                yield line_no, payload
                continue
            try:
                doc = json_record(line_no, payload) if isinstance(payload, str) else payload
                code1 = doc.get("code1")
                code2 = doc.get("code2")
                if isinstance(payload, str) and (not code1 or not code2):   # a file may be empty
                    raise MalformedRecord(line_no, "code1/code2 missing or empty")
                if not isinstance(code1, str) or not isinstance(code2, str):
                    raise MalformedRecord(line_no, "code1/code2 must be strings")
            except MalformedRecord as exc:
                yield line_no, exc.with_traceback(None)   # no cycle through this frame
                continue
            rec_id = str(doc.get("id") or f"rec{auto_id:06d}")
            auto_id += 1
            yield line_no, (rec_id, code1, code2)
    except Exception as exc:   # raised by ingest in its place, after the lines before it
        yield None, exc


def ingest(paths, max_tokens: int = DEFAULT_MAX_TOKENS,
           lenient: bool = False) -> CorpusFile:
    """Read JSONL records or source files into a filtered corpus.

    Records whose token count exceeds ``max_tokens`` on either side are
    dropped, as are exact duplicates of ``code2`` (after trailing
    whitespace is stripped, first occurrence wins). Malformed lines, source
    files that are not UTF-8 or cannot be read, and records the lexer
    rejects, raise :class:`MalformedRecord` unless ``lenient`` is set, in
    which case they are counted and skipped. An empty source file is a record.
    The manifest reconciles: kept + dropped = input lines.

    Lines are read ``_READ_AHEAD`` at a time, and the token counts of at
    least ``_fork.SPLIT_MIN_TEXTS`` of them are taken on the CPUs the process
    may use, by forked children beside the caller
    (:func:`stylekit._fork.split_map`). Every check, id and dedupe runs in
    line order in the caller, so the corpus, the manifest and the error a
    strict run raises are those of a serial run.
    """
    records: list[CorpusRecord] = []
    seen_keys: set[str] = set()
    seen_ids: set[str] = set()
    counts = dict.fromkeys(_COUNTERS, 0)
    lines = _checked_lines(paths)
    while chunk := list(itertools.islice(lines, _READ_AHEAD)):
        # a source file gives code1 == code2: count it once, code1 first
        sizes = iter(split_map(lambda texts: max(map(token_count, dict.fromkeys(texts))),
                               [got[1:] for _, got in chunk if isinstance(got, tuple)]))
        for line_no, got in chunk:
            if line_no is None:
                raise got
            counts["input"] += 1
            error = got if isinstance(got, MalformedRecord) else None
            if error is None:
                rec_id, code1, code2 = got
                size = next(sizes)
                if rec_id in seen_ids:
                    error = MalformedRecord(line_no, f"duplicate id {rec_id!r}")
                elif isinstance(size, InputError):
                    error = MalformedRecord(line_no, f"{type(size).__name__}: {size}")
            if error is not None:
                if not lenient:
                    raise error
                counts["dropped_malformed"] += 1
                continue
            if size > max_tokens:
                counts["dropped_len"] += 1
                continue
            key = _dedup_key(code2)
            if key in seen_keys:
                counts["dropped_dupe"] += 1
                continue
            seen_keys.add(key)
            seen_ids.add(rec_id)
            records.append(CorpusRecord(id=rec_id, code1=code1, code2=code2))
            counts["kept"] += 1
    manifest = Manifest(max_tokens=max_tokens, counts=counts)
    return CorpusFile(records=records, manifest=manifest)


def split(corpus: CorpusFile, ratios: dict[str, float], seed: int) -> CorpusFile:
    """Seeded shuffle, then contiguous assignment at cumulative-floor
    boundaries; 100 records at 0.99/0.01 become 99/1. Ratios may sum to
    less than one; the tail stays unassigned."""
    if not (all(r >= 0 for r in ratios.values()) and sum(ratios.values()) <= 1.0 + 1e-9):
        raise RatioError(f"ratios must be non-negative and sum to <= 1: {ratios}")
    if seed < 0:
        raise RatioError(f"split seed must be non-negative, got {seed}")
    order = np.random.default_rng(seed).permutation(len(corpus.records))
    splits: dict[str, list[str]] = {}
    start = 0
    cumulative = 0.0
    for name, ratio in ratios.items():
        cumulative += ratio
        end = int(len(corpus.records) * cumulative + 1e-9)
        splits[name] = [corpus.records[i].id for i in order[start:end]]
        start = end
    manifest = replace(deepcopy(corpus.manifest), splits=splits)
    return CorpusFile(records=list(corpus.records), manifest=manifest)


def precompute_styles(corpus: CorpusFile) -> CorpusFile:
    """Fill each record's style vector cache from ``code2``; idempotent.

    Records the analyzer cannot handle are flagged in the manifest and
    kept, not dropped. The vectors of at least ``_fork.SPLIT_MIN_TEXTS``
    records are analyzed on the CPUs the process may use, by forked children
    beside the caller (:func:`stylekit._fork.split_map`); records and
    ``style_errors`` keep record order, byte-identical to a serial run.
    """
    computed = iter(split_map(lambda text: normalize(analyze(text)),
                              [rec.code2 for rec in corpus.records if rec.style_vec is None]))
    errors: dict[str, str] = {}
    records = []
    for rec in corpus.records:
        vec = rec.style_vec
        if vec is None:
            vec = next(computed)
            if isinstance(vec, InputError):
                errors[rec.id] = f"{type(vec).__name__}: {vec}"
                vec = None
        records.append(replace(rec, style_vec=vec))
    manifest = replace(deepcopy(corpus.manifest), style_errors=errors)
    return CorpusFile(records=records, manifest=manifest)


def save_jsonl(corpus: CorpusFile, path: str | Path) -> None:
    """Write records as JSONL with the manifest alongside (``.manifest.json``)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in corpus.records:
            doc = {"id": rec.id, "code1": rec.code1, "code2": rec.code2}
            if rec.style_vec is not None:
                doc["style_vec"] = list(rec.style_vec.values)
            fh.write(json.dumps(doc) + "\n")
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest_path.write_text(
        json.dumps(corpus.manifest.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_jsonl(path: str | Path) -> CorpusFile:
    """A corpus as :func:`save_jsonl` writes it. :class:`MalformedRecord` names a line
    without ``id``, ``code1`` or ``code2``, with a non-string or repeated id, non-string
    code or a bad ``style_vec``."""
    path = Path(path)
    records = []
    seen_ids: set[str] = set()
    for line_no, doc in jsonl_objects(path):
        try:
            rec = CorpusRecord(doc["id"], doc["code1"], doc["code2"])
        except KeyError as exc:
            raise MalformedRecord(line_no, f"missing {exc.args[0]!r}") from exc
        if not isinstance(rec.id, str):
            raise MalformedRecord(line_no, "id must be a string")
        if rec.id in seen_ids:
            raise MalformedRecord(line_no, f"duplicate id {rec.id!r}")
        seen_ids.add(rec.id)
        if not (isinstance(rec.code1, str) and isinstance(rec.code2, str)):
            raise MalformedRecord(line_no, "code1/code2 must be strings")
        vec = doc.get("style_vec")
        if vec is not None:
            if not (isinstance(vec, list) and len(vec) == len(REGISTRY) and all(
                    type(v) in (int, float) and 0.0 <= v <= 1.0 for v in vec)):
                raise MalformedRecord(
                    line_no, f"style_vec must be {len(REGISTRY)} numbers in [0, 1]")
            rec.style_vec = StyleVector(values=tuple(vec))
        records.append(rec)
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    doc = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else {}
    manifest = Manifest(**{f.name: doc[f.name] for f in fields(Manifest) if f.name in doc})
    return CorpusFile(records=records, manifest=manifest)


def from_sources(sources: list[tuple[str, str]]) -> CorpusFile:
    """Build a corpus directly from (id, source) pairs; no filtering."""
    records = [CorpusRecord(id=i, code1=s, code2=s) for i, s in sources]
    counts = dict.fromkeys(_COUNTERS, 0) | {"input": len(records), "kept": len(records)}
    return CorpusFile(records=records, manifest=Manifest(counts=counts))
