"""Corpus, query and judgment containers, tokenization, and a synthetic benchmark generator."""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Generic, Iterable, Iterator, TypeVar

import numpy as np

__all__ = [
    "DataFormatError",
    "Passage",
    "Query",
    "Judgment",
    "TokenizerConfig",
    "tokenize",
    "TokenizedCorpus",
    "Corpus",
    "QuerySet",
    "JudgmentSet",
    "load_passages",
    "load_queries",
    "load_qrels",
    "save_passages",
    "save_queries",
    "save_qrels",
    "SynthSpec",
    "SynthBenchmark",
    "synth_benchmark",
]


class DataFormatError(ValueError):
    """Malformed or inconsistent input data; carries file path and line number."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.message = message
        self.path = str(path) if path is not None else None
        self.line = line
        prefix = ""
        if self.path is not None:
            prefix = self.path if line is None else f"{self.path}:{line}"
            prefix += ": "
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _check_id(id_: str, kind: str) -> None:
    # run files and qrels split on whitespace and refuse an id that starts with U+FEFF (_read_columns)
    if not id_:
        raise ValueError(f"{kind} id must be non-empty")
    if id_.split() != [id_]:  # str.split splits exactly where str.isspace is true
        raise ValueError(f"{kind} id {id_!r} contains whitespace")
    if id_.startswith("\ufeff"):
        raise ValueError(f"{kind} id {id_!r} starts with U+FEFF")


@dataclass(frozen=True)
class Passage:
    id: str
    text: str
    lang: str = "en"

    def __post_init__(self) -> None:
        _check_id(self.id, "passage")
        if not self.text.strip():
            raise ValueError(f"passage {self.id!r} has empty text")


@dataclass(frozen=True)
class Judgment:
    query_id: str
    passage_id: str
    grade: int

    def __post_init__(self) -> None:
        _check_id(self.query_id, "query")
        _check_id(self.passage_id, "passage")
        _check_grade(self.grade)


def _ascii_int(field: str, name: str) -> int:
    """The field ``name`` (a file column or a config value) as an int when it
    is an optional ``-`` then ASCII digits; ``int()`` alone also reads ``+1``,
    ``1_0`` and non-ASCII digits."""
    digits = field.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{name} must be an integer, got {field!r}")
    return int(field)


def _ascii_float(field: str, name: str) -> float:
    """The field ``name`` as a float when it is ASCII without ``_``;
    ``float()`` alone also reads ``1_0`` and non-ASCII digits."""
    if not field.isascii() or "_" in field:
        raise ValueError(f"{name} must be an ASCII number, got {field!r}")
    return float(field)


def _check_format(payload: dict, expected: int, what: str) -> None:
    """Raise ValueError unless a model file's ``payload["format"]`` is the int
    ``expected``; ``true`` and ``1.0`` equal 1, but no writer writes them."""
    if type(payload.get("format")) is not int or payload["format"] != expected:
        raise ValueError(f"unsupported {what} format {payload.get('format')!r}")


def _check_grade(grade: int) -> None:
    if grade < 0:
        raise ValueError(f"grade must be >= 0, got {grade}")


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    cjk_char_split: bool = True
    min_token_len: int = 1

    def __post_init__(self) -> None:
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")


DEFAULT_TOKENIZER = TokenizerConfig()

# Scripts without word boundaries, split per codepoint when cjk_char_split is on.
_CHAR_SPLIT_RANGES = (
    (0x0E00, 0x0E7F),  # Thai
    (0x1100, 0x11FF),  # Hangul jamo
    (0x3040, 0x309F),  # Hiragana
    (0x30A0, 0x30FF),  # Katakana
    (0x31F0, 0x31FF),  # Katakana phonetic extensions
    (0x3400, 0x4DBF),  # CJK extension A
    (0x4E00, 0x9FFF),  # CJK unified ideographs
    (0xAC00, 0xD7A3),  # Hangul syllables
    (0xF900, 0xFAFF),  # CJK compatibility ideographs
)
_SPLIT_CLASS = "".join(f"\\u{lo:04X}-\\u{hi:04X}" for lo, hi in _CHAR_SPLIT_RANGES)
# [^\W_] is exactly the Unicode L* and N* categories: runs of letters and digits.
_TOKEN_RE = {
    True: re.compile(f"[{_SPLIT_CLASS}]|[^\\W_{_SPLIT_CLASS}]+"),
    False: re.compile(r"[^\W_]+"),
}
# On ASCII text [^\W_] is [A-Za-z0-9] and no split range holds an ASCII
# codepoint, so mapping every other ASCII character to a space and splitting on
# whitespace gives the regex's tokens. A 128-character string is the fastest
# str.translate table.
_ASCII_SEPARATORS = "".join(c if c.isalnum() else " " for c in map(chr, range(128)))


def tokenize(text: str, cfg: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Deterministic Unicode tokenization shared by the sparse and dense retrievers.

    The text is lowercased when ``cfg.lowercase``; then each maximal run of
    letters and digits (Unicode categories L* and N*) is one token, and every
    other character, ``_`` and punctuation included, separates tokens. When
    ``cfg.cjk_char_split`` each codepoint of a script written without word
    boundaries (Thai, Hangul, kana, CJK ideographs) is a token of its own,
    whatever its category. Tokens shorter than ``cfg.min_token_len`` are dropped.
    Text that is ASCII once lowercased is split by ``str.translate`` instead of
    the regex, into the same tokens.

    Tokens are interned, so every occurrence of a term is one string object:
    a caller keeping token lists (per-passage lists for an index of its own,
    say) holds a pointer per token rather than a string per token.
    """
    if cfg.lowercase:
        text = text.lower()
    if text.isascii():
        tokens = text.translate(_ASCII_SEPARATORS).split()
    else:
        tokens = _TOKEN_RE[cfg.cjk_char_split].findall(text)
    if cfg.min_token_len > 1:
        return [sys.intern(t) for t in tokens if len(t) >= cfg.min_token_len]
    return list(map(sys.intern, tokens))


@dataclass(frozen=True)
class Query:
    """A query; equal and hashed by (id, text, lang), whatever its memo holds."""

    id: str
    text: str
    lang: str = "en"
    _tokens: tuple[TokenizerConfig, list[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_id(self.id, "query")

    def tokens(self, tok: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
        """The text's tokens under ``tok``, memoized for the last config asked,
        as ``Corpus.tokenized`` is; callers only read them. Every stage of a
        run reads a query's tokens from here, so each query is tokenized once."""
        if self._tokens is None or self._tokens[0] != tok:
            object.__setattr__(self, "_tokens", (tok, tokenize(self.text, tok)))
        return self._tokens[1]


@dataclass(frozen=True)
class TokenizedCorpus:
    """A corpus tokenized once under one tokenizer config, as integer token ids.

    ``vocab`` holds the sorted unique tokens and ``index`` maps each to its
    place in ``vocab``, its token id. ``ids`` holds the int32 token id of every
    token, passages concatenated in corpus order with each passage's tokens in
    text order; passage ``i`` is ``ids[offsets[i]:offsets[i + 1]]``.
    """

    tokenizer: TokenizerConfig
    vocab: tuple[str, ...]
    index: dict[str, int] = field(repr=False, compare=False)
    ids: np.ndarray
    offsets: np.ndarray


def _tokenize_corpus(passages: Iterable[Passage], tok: TokenizerConfig) -> TokenizedCorpus:
    token_lists = [tokenize(p.text, tok) for p in passages]
    vocab = sorted(set().union(*token_lists))
    index = {t: i for i, t in enumerate(vocab)}
    offsets = np.concatenate(([0], np.cumsum([len(tokens) for tokens in token_lists], dtype=np.int64)))
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(token_lists)), np.int32, offsets[-1])
    return TokenizedCorpus(tokenizer=tok, vocab=tuple(vocab), index=index, ids=ids, offsets=offsets)


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

_Record = TypeVar("_Record", Passage, Query)
_T = TypeVar("_T")


class _IdCollection(Generic[_Record]):
    """Id-indexed collection of passages or queries in ascending id order; ids are unique."""

    kind = ""

    def __init__(self, records: Iterable[_Record]):
        self._by_id: dict[str, _Record] = {}
        for r in records:
            if r.id in self._by_id:
                raise DataFormatError(f"duplicate {self.kind} id {r.id!r}")
            self._by_id[r.id] = r
        self._by_id = dict(sorted(self._by_id.items()))
        self.ids: tuple[str, ...] = tuple(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[_Record]:
        return iter(self._by_id.values())

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def __getitem__(self, record_id: str) -> _Record:
        return self._by_id[record_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._by_id == other._by_id


class Corpus(_IdCollection[Passage]):
    """Id-indexed passages in ascending id order: the indexes break score ties by position."""

    kind = "passage"

    def __init__(self, passages: Iterable[Passage]):
        super().__init__(passages)
        self._position = {pid: i for i, pid in enumerate(self.ids)}
        self.langs: tuple[str, ...] = tuple(p.lang for p in self)  # each position's language
        self._tokenized: TokenizedCorpus | None = None

    def position(self, passage_id: str) -> int:
        """Index of the passage in corpus order, its rank in ascending id order: ``ids[position]``."""
        return self._position[passage_id]

    def tokenized(self, tok: TokenizerConfig = DEFAULT_TOKENIZER) -> TokenizedCorpus:
        """Every passage tokenized under ``tok``, memoized for the last config asked.

        The BM25 index, the dense vocabulary and the rows the encoder pools for
        each passage all derive from this, so one run tokenizes each passage once.
        """
        if self._tokenized is None or self._tokenized.tokenizer != tok:
            self._tokenized = _tokenize_corpus(self, tok)
        return self._tokenized


class QuerySet(_IdCollection[Query]):
    """Id-indexed collection of queries in ascending id order."""

    kind = "query"


class JudgmentSet:
    """Relevance judgments indexed by query id, iterated grouped by query in first-given order."""

    def __init__(self, judgments: Iterable[Judgment] = ()):
        self.by_query: dict[str, dict[str, int]] = {}
        self._relevant: dict[str, frozenset[str]] = {}
        for j in judgments:
            self._add(j.query_id, j.passage_id, j.grade)

    def _add(self, query_id: str, passage_id: str, grade: int) -> None:
        """Append a judgment whose grade is already checked, while the set is
        built; a second judgment of the same pair raises DataFormatError."""
        grades = self.by_query.setdefault(query_id, {})
        if passage_id in grades:
            raise DataFormatError(f"duplicate judgment for query {query_id!r} passage {passage_id!r}")
        grades[passage_id] = grade

    def __len__(self) -> int:
        return sum(map(len, self.by_query.values()))

    def __iter__(self) -> Iterator[Judgment]:
        return (Judgment(qid, pid, g) for qid, grades in self.by_query.items() for pid, g in grades.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JudgmentSet):
            return NotImplemented
        return self.by_query == other.by_query

    def relevant(self, query_id: str) -> frozenset[str]:
        """Passage ids judged relevant (grade > 0) for the query, memoized per query."""
        rel = self._relevant.get(query_id)
        if rel is None:
            rel = frozenset(pid for pid, g in self.by_query.get(query_id, {}).items() if g > 0)
            self._relevant[query_id] = rel
        return rel

    def validate(self, corpus: Corpus) -> None:
        """Check that every judged passage is in ``corpus``."""
        for pid in chain.from_iterable(self.by_query.values()):
            if pid not in corpus:
                raise DataFormatError(f"judgment references unknown passage {pid!r}")


# ---------------------------------------------------------------------------
# Loading and saving
# ---------------------------------------------------------------------------


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write through a temp file next to ``path`` that replaces it on success
    and is removed on error, so ``path`` keeps its old content or gets all of
    the new. Missing parent directories of ``path`` are made first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of the UTF-8 text file at
    ``path``; bytes that are not UTF-8 raise DataFormatError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text ({exc.reason})", path) from exc


def _load_jsonl_records(path: str | Path, parse: Callable[[dict], _T]) -> list[_T]:
    """``parse`` applied to the JSON object on each non-blank line of ``path``.

    Invalid JSON, a line that is not an object, or a ValueError from ``parse``
    raises DataFormatError naming the file and line.
    """
    records = []
    for lineno, line in _text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            records.append(parse(obj))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"invalid JSON ({exc.msg})", path, lineno) from exc
        except ValueError as exc:
            raise DataFormatError(str(exc), path, lineno) from exc
    return records


def _save_jsonl_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write ``records`` one JSON object a line, non-ASCII kept, as ``_load_jsonl_records`` reads."""
    with atomic_write(path) as fh:
        for obj in records:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


def _require_str(obj: dict, key: str, default: str | None = None) -> str:
    """``obj[key]``, which must be a string; a missing key gives ``default``,
    or is an error when there is none."""
    if key not in obj:
        if default is not None:
            return default
        raise ValueError(f"missing field {key!r}")
    if not isinstance(obj[key], str):
        raise ValueError(f"field {key!r} must be a string")
    return obj[key]


def _load_collection(path: str | Path, record: type, collection: type):
    """A ``collection`` of ``record``s read from JSONL objects with "id", "text"
    and an optional "lang" (default "en")."""
    records = _load_jsonl_records(
        path,
        lambda obj: record(
            id=_require_str(obj, "id"),
            text=_require_str(obj, "text"),
            lang=_require_str(obj, "lang", "en"),
        ),
    )
    try:
        return collection(records)
    except DataFormatError as exc:
        raise DataFormatError(exc.message, path) from exc


def load_passages(path: str | Path) -> Corpus:
    return _load_collection(path, Passage, Corpus)


def load_queries(path: str | Path) -> QuerySet:
    return _load_collection(path, Query, QuerySet)


def _read_columns(path: str | Path, n: int) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-blank line of the TREC-style
    file at ``path``, split on whitespace; a line of other than ``n`` fields,
    or whose query id (field 1) or passage id (field 3) starts with U+FEFF,
    raises DataFormatError naming the file and line."""
    for lineno, line in _text_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != n:
            raise DataFormatError(f"expected {n} whitespace-separated fields, got {len(parts)}", path, lineno)
        # split leaves no id empty or holding whitespace: this is _check_id's one
        # other rule, tested only on the rare line that holds the mark at all
        if "\ufeff" in line:
            for id_ in (parts[0], parts[2]):
                if id_.startswith("\ufeff"):
                    # read as text, a UTF-8 BOM would start the first query id
                    bom = lineno == 1 and line.startswith("\ufeff")
                    message = "unexpected UTF-8 BOM" if bom else f"id {id_!r} starts with U+FEFF"
                    raise DataFormatError(message, path, lineno)
        yield lineno, parts


def load_qrels(path: str | Path) -> JudgmentSet:
    """Parse TREC-style qrels lines: ``query_id 0 passage_id grade``."""
    qrels = JudgmentSet()
    for lineno, (qid, _, pid, grade_s) in _read_columns(path, 4):
        try:
            grade = _ascii_int(grade_s, "grade")
            _check_grade(grade)
            qrels._add(qid, pid, grade)
        except ValueError as exc:
            raise DataFormatError(str(exc), path, lineno) from exc
    return qrels


def save_passages(records: _IdCollection, path: str | Path) -> None:
    """Write passages or queries as JSONL, the format ``load_passages`` and ``load_queries`` read."""
    _save_jsonl_records(path, ({"id": r.id, "text": r.text, "lang": r.lang} for r in records))


save_queries = save_passages


def save_qrels(judgments: JudgmentSet, path: str | Path) -> None:
    with atomic_write(path) as fh:
        for j in judgments:
            fh.write(f"{j.query_id}\t0\t{j.passage_id}\t{j.grade}\n")


# ---------------------------------------------------------------------------
# Synthetic cross-lingual benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the generated benchmark.

    The first language is the labeled source; the rest are targets whose judged
    queries are meant for evaluation only. Per-language vocabularies must be
    disjoint, emulating distributional shift between languages: a token is its
    language tag and a number of at least four digits, so the tags "a" and "a1"
    collide once ``vocab_size`` exceeds 10000.
    """

    languages: tuple[str, ...] = ("src", "tgta", "tgtb")
    topics_per_lang: int = 40
    passages_per_topic: int = 5
    vocab_size: int = 400
    query_len: int = 3
    labeled_frac: float = 0.5
    queries_per_lang: int = 200
    passage_len: int = 50
    terms_per_topic: int = 6
    core_terms_per_topic: int = 2
    topic_token_frac: float = 0.7
    query_topic_frac: float = 0.8

    def __post_init__(self) -> None:
        if len(self.languages) < 1:
            raise ValueError("at least one language required")
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("duplicate language tags")
        for lang in self.languages:
            if not lang.isalnum() or not lang.islower():
                raise ValueError(f"language tag must be lowercase alphanumeric: {lang!r}")
        if self.topics_per_lang < 1:
            raise ValueError("topics_per_lang must be >= 1")
        if self.passages_per_topic < 2:
            raise ValueError("passages_per_topic must be >= 2")
        if not 1 <= self.core_terms_per_topic <= self.terms_per_topic:
            raise ValueError("core_terms_per_topic must be in [1, terms_per_topic]")
        n_topic_terms = self.topics_per_lang * self.terms_per_topic
        if self.vocab_size <= n_topic_terms:
            raise ValueError(
                f"vocab_size ({self.vocab_size}) must exceed total topic terms ({n_topic_terms})"
            )
        if self.query_len < 1:
            raise ValueError("query_len must be >= 1")
        for name in ("labeled_frac", "topic_token_frac", "query_topic_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.queries_per_lang < 1:
            raise ValueError("queries_per_lang must be >= 1")
        if self.passage_len < self.core_terms_per_topic + 1:
            raise ValueError("passage_len too small for core terms")
        seen: set[str] = set()
        for lang in self.languages:
            vocab = _lang_vocab(lang, self.vocab_size)
            overlap = seen.intersection(vocab)
            if overlap:
                raise ValueError(f"language vocabularies overlap: {sorted(overlap)[:3]}")
            seen.update(vocab)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SynthSpec":
        """Build a spec from flat key=value strings (e.g. a parsed config file),
        each read as its field's type; ``languages`` is comma-separated."""
        parsers = {
            int: _ascii_int,
            float: _ascii_float,
            tuple: lambda v, _: tuple(s.strip() for s in v.split(",") if s.strip()),
        }
        kinds = {f.name: type(f.default) for f in fields(cls)}
        kwargs: dict = {}
        for key, raw in mapping.items():
            if key not in kinds:
                raise ValueError(f"unknown synth spec key {key!r}")
            kwargs[key] = parsers[kinds[key]](raw, key)
        return cls(**kwargs)


@dataclass
class SynthBenchmark:
    """Generated benchmark plus the ground truth used by tests and diagnostics."""

    corpus: Corpus
    queries: QuerySet
    judgments: JudgmentSet
    unlabeled: QuerySet
    passage_topics: dict[str, tuple[str, int]]
    query_topics: dict[str, tuple[str, int]]
    topic_terms: dict[tuple[str, int], tuple[str, ...]]
    source_lang: str
    target_langs: tuple[str, ...]


def _lang_vocab(lang: str, size: int) -> list[str]:
    return [f"{lang}{i:04d}" for i in range(size)]


def _draw(rng: np.random.Generator, terms: list[str], background: list[str], topic_frac: float) -> str:
    """A uniform topic term with probability ``topic_frac``, else a uniform background term."""
    if rng.random() < topic_frac:
        return terms[int(rng.integers(len(terms)))]
    return background[int(rng.integers(len(background)))]


def synth_benchmark(spec: SynthSpec, seed: int) -> SynthBenchmark:
    """Generate a deterministic topic-structured multilingual benchmark.

    Every passage belongs to one (language, topic); topic terms are dedicated to
    that topic, the rest of each passage is language-wide background vocabulary.
    Each query targets one topic: its first token is always one of the topic's
    core terms (present in every passage of the topic), so judged-relevant
    passages always share a term with the query. Judged queries of the source
    language are training data; judged queries of target languages are held-out
    evaluation sets; unlabeled queries (all languages) carry no judgments.
    """
    rng = np.random.default_rng(seed)
    passages: list[Passage] = []
    queries: list[Query] = []
    judgments: list[Judgment] = []
    unlabeled: list[Query] = []
    passage_topics: dict[str, tuple[str, int]] = {}
    query_topics: dict[str, tuple[str, int]] = {}
    topic_terms: dict[tuple[str, int], tuple[str, ...]] = {}

    for lang in spec.languages:
        vocab = _lang_vocab(lang, spec.vocab_size)
        n_topic_terms = spec.topics_per_lang * spec.terms_per_topic
        background = vocab[n_topic_terms:]

        topic_pids: dict[int, list[str]] = {}
        for t in range(spec.topics_per_lang):
            terms = vocab[t * spec.terms_per_topic : (t + 1) * spec.terms_per_topic]
            topic_terms[(lang, t)] = tuple(terms)
            core = terms[: spec.core_terms_per_topic]
            pids = []
            for j in range(spec.passages_per_topic):
                jitter = int(rng.integers(-(spec.passage_len // 5), spec.passage_len // 5 + 1))
                length = max(len(core) + 1, spec.passage_len + jitter)
                toks = core + [_draw(rng, terms, background, spec.topic_token_frac) for _ in range(length - len(core))]
                order = rng.permutation(len(toks))
                toks = [toks[i] for i in order]
                pid = f"{lang}-t{t:03d}-p{j:02d}"
                passages.append(Passage(id=pid, text=" ".join(toks), lang=lang))
                passage_topics[pid] = (lang, t)
                pids.append(pid)
            topic_pids[t] = pids

        n_labeled = int(round(spec.labeled_frac * spec.queries_per_lang))
        for qi in range(spec.queries_per_lang):
            t = int(rng.integers(spec.topics_per_lang))
            terms = list(topic_terms[(lang, t)])
            core = terms[: spec.core_terms_per_topic]
            lo = max(1, spec.query_len - 1)
            length = int(rng.integers(lo, spec.query_len + 2))
            toks = [core[int(rng.integers(len(core)))]]
            toks += [_draw(rng, terms, background, spec.query_topic_frac) for _ in range(length - 1)]
            labeled = qi < n_labeled
            qid = f"{lang}-{'q' if labeled else 'u'}{qi:05d}"
            query = Query(id=qid, text=" ".join(toks), lang=lang)
            query_topics[qid] = (lang, t)
            if labeled:
                queries.append(query)
                for pid in topic_pids[t]:
                    judgments.append(Judgment(query_id=qid, passage_id=pid, grade=1))
            else:
                unlabeled.append(query)

    return SynthBenchmark(
        corpus=Corpus(passages),
        queries=QuerySet(queries),
        judgments=JudgmentSet(judgments),
        unlabeled=QuerySet(unlabeled),
        passage_topics=passage_topics,
        query_topics=query_topics,
        topic_terms=topic_terms,
        source_lang=spec.languages[0],
        target_langs=tuple(spec.languages[1:]),
    )
