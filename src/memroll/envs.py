"""Environments a rollout can query: corpus retrieval, live web search, a toy
shop, and a scripted stand-in for tests.

Every environment answers text queries with an Observation. Implementations
declare whether concurrent respond() calls are safe and can specialize
themselves per task via bind(); stateless environments return self.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import re
import struct
import sys
from array import array
from collections import Counter, defaultdict
from operator import ge, lt, mul, sub
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Protocol, Sequence, runtime_checkable

from .core import DataError, ValidationError, iter_jsonl, jsonl_lines, record, replace

if TYPE_CHECKING:
    import requests

__all__ = [
    "Observation",
    "Environment",
    "terms",
    "Doc",
    "Corpus",
    "retrieve",
    "render_passages",
    "RetrievalEnv",
    "ScriptedEnv",
    "HttpSearchEnv",
    "Product",
    "load_catalog",
    "ShopGoal",
    "ShopState",
    "ShopSim",
    "ShopEnv",
]


@record
class Observation:
    """Environment feedback for one query. reward is only set by
    reward-bearing environments; done marks a terminal transition."""

    text: str
    reward: float | None = None
    done: bool = False


@runtime_checkable
class Environment(Protocol):
    kind: str | None
    concurrent: bool

    def respond(self, query: str) -> Observation: ...

    def bind(self, task) -> "Environment": ...


_WORD = re.compile(r"\w+", re.UNICODE)
# Document norms square with pow(w, 2), as the formula's w ** 2 does: libm's
# pow rounds differently from w * w for about one weight in a thousand.
_SQUARE = itertools.repeat(2)


def terms(text: str) -> list[str]:
    """Lowercased word tokens; whitespace and punctuation are dropped.

    Each token is lowercased on its own: lowercasing the whole text first
    could change where words split, since Unicode case mapping can change
    lengths. ASCII case mapping changes neither lengths nor which characters
    are word characters, so ASCII text is lowercased whole, in one call
    instead of one per token.
    """
    if text.isascii():
        return _WORD.findall(text.lower())
    return list(map(str.lower, _WORD.findall(text)))


@record
class Doc:
    doc_id: str
    title: str
    body: str


class Corpus:
    """A document collection with a TF-IDF cosine index.

    Term weights are ln(1+tf) * ln(N/df); ranking sorts by cosine descending
    with ties broken by ascending doc_id. Zero-score documents still rank, so
    a query never returns fewer than min(k, N) results. Query terms absent
    from the corpus carry no weight and do not enter the query norm.

    The index is posting lists over documents numbered in doc_id order, held
    in array.array columns: term id t owns entries _starts[t]:_starts[t + 1]
    of _post_docs (document numbers, ascending) and _post_tf (the term's
    frequency in each). A query costs time proportional to the lengths of its
    terms' postings plus k: only documents in those postings are scored, the
    best k are taken with heapq.nlargest, and a shortfall is filled with
    zero-score documents in doc_id order.

    Scores do not depend on accumulation order. A matching term contributes
    (q_w * ln(1+tf)) * idf, looked up in a table per query term indexed by
    tf; a document's dot product is that contribution alone for one matching
    term, the IEEE sum for two (which is already correctly rounded) and
    math.fsum for three or more. Query and document norms use math.fsum.

    A corpus loaded warm by from_jsonl holds its file's bytes and each
    document's byte span, and builds a Doc from its line only when search
    returns it or docs is read. Every other corpus holds every Doc.
    """

    def __init__(self, docs: Sequence[Doc]) -> None:
        self._set_docs(docs)
        self._use(_build_index(self._ordered))

    def _set_docs(self, docs: Sequence[Doc]) -> list[int]:
        """Hold docs, in file order and in doc_id order; return the file
        position of each document in doc_id order."""
        # An empty corpus is legal: searches simply return nothing.
        seen = set()
        for doc in docs:
            if doc.doc_id in seen:
                raise DataError(f"duplicate doc_id {doc.doc_id!r} in corpus")
            seen.add(doc.doc_id)
        self._docs = list(docs)
        order = sorted(range(len(self._docs)), key=lambda i: self._docs[i].doc_id)
        self._ordered: list[Doc | None] = [self._docs[i] for i in order]
        return order

    def _use(self, index: _Index) -> None:
        self._vocab = index.vocab
        self._starts = index.starts
        self._idf = index.idf
        self._post_docs = index.post_docs
        self._post_tf = index.post_tf
        self._norms = index.norms

    def __len__(self) -> int:
        return len(self._ordered)

    @property
    def docs(self) -> list[Doc]:
        """The documents in file order."""
        if self._docs is None:
            by_line = sorted(range(len(self._ordered)), key=self._spans[::2].__getitem__)
            self._docs = [self._doc(i) for i in by_line]
        return self._docs

    def _doc(self, i: int) -> Doc:
        """Document number i in doc_id order, built from its line the first
        time it is asked for after a warm load."""
        doc = self._ordered[i]
        if doc is None:  # threads that race here build equal Docs
            start, end = self._spans[2 * i : 2 * i + 2]
            try:
                doc = _parse_doc(self._data[start:end])
            except (ValueError, TypeError, KeyError, RecursionError) as exc:
                raise DataError(
                    f"{self._sidecar}: document {i} does not parse ({exc!r}); "
                    "the index file is a cache, and deleting it is safe"
                ) from None
            self._ordered[i] = doc
        return doc

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Corpus":
        """Load a corpus from JSONL, one {"doc_id", "title", "body"} object a line.

        The index is built once and kept beside the file, in FILE.memroll-index
        (a sidecar; see _read_index for its layout), with the byte span of
        each document's line. Each load reads the file and looks for a sidecar
        whose key matches: the hash of these bytes, the hash of the source
        that parses them and builds the index, the Unicode database version,
        the Python implementation and the C library. A match proves that these
        very bytes were parsed and checked when the sidecar was written, so
        the load parses no JSON: it keeps the bytes, and a Doc is built from
        its span when search returns it or docs is read, by the same helper
        a first load uses, so it equals the Doc a first load builds.

        Otherwise the load parses every line, builds every Doc and the index,
        as Corpus(docs) does, and writes the sidecar atomically; corpus errors
        (bad JSON, text that is not UTF-8, a missing field, a duplicate
        doc_id) come only from this parse. A loaded index equals a built one
        bit for bit. A sidecar that is missing, stale, corrupt or unreadable,
        or a directory that cannot be written, only costs the build: reading
        the sidecar never raises, and deleting it is always safe. Where that
        source cannot be read, no sidecar is read or written.
        """
        path = Path(path)
        data = path.read_bytes()
        key = _index_key(data)
        sidecar = path.with_name(path.name + INDEX_SUFFIX)
        loaded = _read_index(sidecar, key, data) if key else None
        corpus = cls.__new__(cls)
        if loaded is None:
            docs, spans = _parse_corpus(path, data)
            del data  # not kept, and the build that follows peaks the memory
            order = corpus._set_docs(docs)
            index = _build_index(corpus._ordered)
            if key:
                by_id = itertools.chain.from_iterable(spans[2 * i : 2 * i + 2] for i in order)
                _write_index(sidecar, key, index, array("q", by_id))
        else:
            index, corpus._spans = loaded
            corpus._data, corpus._sidecar = data, sidecar
            corpus._docs, corpus._ordered = None, [None] * (len(corpus._spans) // 2)
        corpus._use(index)
        return corpus

    def search(self, query: str, k: int) -> list[tuple[Doc, float]]:
        """Top-k (doc, cosine) pairs; all docs when the corpus is smaller than k."""
        if k < 1:
            raise ValidationError("k must be >= 1")
        q_tf = Counter(self._vocab[t] for t in terms(query) if t in self._vocab)
        q_weights = {t: math.log(1 + c) * self._idf[t] for t, c in q_tf.items()}
        q_norm = math.sqrt(math.fsum(w * w for w in q_weights.values()))
        dots: dict[int, float] = {}
        parts: dict[int, list[float]] = {}  # every contribution to a document two terms reach
        for t, w in q_weights.items():
            # A zero weight (a term in every document) adds nothing to any
            # dot product, so its postings are skipped.
            if w <= 0:
                continue
            start, end = self._starts[t], self._starts[t + 1]
            tfs, idf = self._post_tf[start:end], self._idf[t]
            table = [(w * math.log(1 + c)) * idf for c in range(max(tfs) + 1)]
            contrib = dict(zip(self._post_docs[start:end], map(table.__getitem__, tfs)))
            for i in contrib.keys() & dots.keys():
                parts.setdefault(i, [dots[i]]).append(contrib[i])
            dots.update(contrib)
        for i, p in parts.items():
            dots[i] = p[0] + p[1] if len(p) == 2 else math.fsum(p)
        # Every candidate shares a term of positive weight with the query, so
        # its dot product and both norms are positive. Only scores at least
        # the k-th best can rank; equal scores rank the lower document
        # number, i.e. the lower doc_id, first.
        norms = self._norms
        scores = [dot / (q_norm * norms[i]) for i, dot in dots.items()]
        kth = min(heapq.nlargest(k, scores), default=0.0)
        best = heapq.nlargest(k, [(s, -i) for i, s in zip(dots, scores) if s >= kth])
        results = [(self._doc(-neg), s) for s, neg in best]
        taken = {-neg for _, neg in best}
        for i in range(len(self._ordered)):
            if len(results) >= k:
                break
            if i not in taken:
                results.append((self._doc(i), 0.0))
        return results


def _parse_doc(line: bytes) -> Doc:
    """The one way a corpus line becomes a Doc, on a first load and after a
    warm one alike."""
    obj = json.loads(line.decode("utf-8"))
    return Doc(str(obj["doc_id"]), str(obj["title"]), str(obj["body"]))


def _parse_corpus(path: Path, data: bytes) -> tuple[list[Doc], array]:
    """The documents of a corpus file in file order, and the byte span of
    each one's line, stripped, as its start and end offsets in one flat
    int64 array: the parse that raises corpus errors."""
    docs, spans, end = [], array("q"), 0
    for lineno, line in jsonl_lines(path, data):
        raw = line.encode("utf-8")
        # Only whitespace (or, before the first line, a byte-order mark) lies
        # between the last line's end and this line, and this line starts
        # with a character that is neither, so the first match of that
        # character starts the line.
        start = data.find(line[0].encode("utf-8"), end)
        end = start + len(raw)
        spans.append(start)
        spans.append(end)
        try:
            docs.append(_parse_doc(raw))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} line {lineno}: invalid JSON ({exc})") from None
        except TypeError:
            raise DataError(f"{path} line {lineno}: expected a JSON object") from None
        except KeyError as exc:
            raise DataError(f"{path} line {lineno}: missing corpus field {exc}") from None
    return docs, spans


# ------------------------------------------------------------- the corpus index

INDEX_SUFFIX = ".memroll-index"
_INDEX_MAGIC = b"MEM1INDX"
# The modules whose code decides a stored index: this one (tokens, weights,
# norms, spans and the file layout) and the one whose jsonl_lines splits the
# corpus into lines.
_INDEX_SOURCES = (Path(__file__), Path(jsonl_lines.__code__.co_filename))
_INDEX_PREFIX = struct.Struct("<8sI8s")  # magic, header length, checksum


class _Index(NamedTuple):
    """What search reads. A build derives idf once, for the norms and for
    search; a load derives it from the stored offsets with the same function,
    so both come out equal."""

    vocab: dict[str, int]  # term -> id, in id order
    starts: array  # int64 offsets: term t owns postings starts[t]:starts[t + 1]
    idf: list[float]  # ln(N/df) of each term
    post_docs: array  # int32 document numbers, ascending within a term
    post_tf: array  # int32 term frequency of each posting
    norms: array  # float64 document norms


def _idf(df: Sequence[int], n: int) -> list[float]:
    return [math.log(n / c) for c in df]


def _build_index(ordered: Sequence[Doc]) -> _Index:
    n = len(ordered)
    docs_of: list[list[int]] = []  # per term id: the documents holding it, ascending
    tfs_of: list[list[int]] = []  # and its frequency in each

    def new_term() -> int:
        docs_of.append([])
        tfs_of.append([])
        return len(docs_of) - 1

    vocab: defaultdict[str, int] = defaultdict(new_term)
    term_ids: list[int] = []
    counts: list[int] = []
    lengths: list[int] = []
    for i, doc in enumerate(ordered):
        tf = Counter(terms(f"{doc.title} {doc.body}"))
        ids = list(map(vocab.__getitem__, tf))
        term_ids.extend(ids)
        counts.extend(tf.values())
        lengths.append(len(ids))
        for t, c in zip(ids, tf.values()):
            docs_of[t].append(i)
            tfs_of[t].append(c)
    df = list(map(len, docs_of))
    idf = _idf(df, n)
    # Document-major here, so each document's weights are one slice.
    log1p = [math.log(1 + c) for c in range(max(counts, default=0) + 1)]
    weights = list(map(mul, map(log1p.__getitem__, counts), map(idf.__getitem__, term_ids)))
    norms, at = array("d"), 0
    for length in lengths:
        norms.append(math.sqrt(math.fsum(map(pow, weights[at : at + length], _SQUARE))))
        at += length
    return _Index(
        vocab=dict(vocab),
        starts=array("q", itertools.accumulate(df, initial=0)),
        idf=idf,
        post_docs=array("i", itertools.chain.from_iterable(docs_of)),
        post_tf=array("i", itertools.chain.from_iterable(tfs_of)),
        norms=norms,
    )


def _index_key(data: bytes) -> dict | None:
    """Everything an index built from data depends on: the bytes themselves;
    the source of _INDEX_SOURCES, so that any edit to how the index is built
    or stored makes every older file stale; the Python implementation, whose
    regular expressions split the words; the Unicode database, which decides
    what \\w and str.lower mean; and the C library, whose log and pow give the
    weights. None if the source cannot be read."""
    import unicodedata
    from importlib.util import source_hash  # SipHash; hashlib would load OpenSSL

    try:
        code = b"".join(source.read_bytes() for source in _INDEX_SOURCES)
    except OSError:
        return None
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    return {
        "code": source_hash(code).hex(),
        "corpus": source_hash(data).hex(),
        "libc": libc or sys.platform,
        "python": sys.implementation.cache_tag,
        "unicode": unicodedata.unidata_version,
    }


def _little_endian(arr: array) -> array:
    """arr in the byte order of the index file: itself on a little-endian
    host, a byte-swapped copy on a big-endian one."""
    if sys.byteorder == "big":
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr


def _write_index(path: Path, key: dict, index: _Index, spans: array) -> None:
    """Store index and the documents' spans, in doc_id order, at path, through
    a temporary file and os.replace, so a reader sees the old file or the new
    one whole. An OSError (a read-only directory, a full disk) leaves no file
    behind and is not raised."""
    from importlib.util import source_hash

    vocab = "".join(term + "\n" for term in index.vocab).encode("utf-8", "surrogatepass")
    header = json.dumps(
        {
            "docs": len(index.norms),
            "key": key,
            "postings": len(index.post_docs),
            "terms": len(index.vocab),
        },
        sort_keys=True,
    ).encode("utf-8")
    header += b" " * (-(_INDEX_PREFIX.size + len(header)) % 8)  # 8-byte aligned arrays
    columns = (index.starts, index.norms, spans, index.post_docs, index.post_tf)
    body = b"".join([header, *map(_little_endian, columns), vocab])
    prefix = _INDEX_PREFIX.pack(_INDEX_MAGIC, len(header), source_hash(body))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(prefix)
            handle.write(body)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass


def _read_index(path: Path, key: dict, data: bytes) -> tuple[_Index, array] | None:
    """The index stored at path for key, and the documents' spans in data,
    or None.

    Layout: the magic MEM1INDX, a u32 header length and an 8-byte checksum
    (importlib.util.source_hash of every byte after it); then a JSON header
    {docs, key, postings, terms}, space-padded to a multiple of 8 bytes; then
    starts (i8), norms (f8), spans (i8, a start and an end offset per
    document, in doc_id order), post_docs (i4) and post_tf (i4), all
    little-endian, and to the end the vocabulary in id order as UTF-8, each
    term followed by a newline (a \\w+ term holds none). Each array is copied
    into an array.array.

    The checksum catches damage, not deliberate edits (anyone can recompute
    it). None unless the key matches, the checksum holds, the file holds the
    sizes its header gives and the content fits data: spans that are the
    non-blank lines of data (_spans_fit), offsets that start at 0 and give
    every term at least one posting, document numbers ascending within a
    term and in range (a term's first and last posting), frequencies from 1
    to the longest span (a line's bytes are at least its characters), and
    exactly `terms` distinct terms. So the load cannot raise, and search
    cannot index past an array.
    """
    from importlib.util import source_hash

    try:
        blob = path.read_bytes()
    except OSError:
        return None
    try:
        magic, header_len, checksum = _INDEX_PREFIX.unpack_from(blob)
        body = memoryview(blob)[_INDEX_PREFIX.size :]
        if magic != _INDEX_MAGIC or source_hash(body) != checksum:
            return None
        header = json.loads(bytes(body[:header_len]))
        if not isinstance(header, dict) or header.get("key") != key:
            return None
        n, terms_n, postings = header.get("docs"), header.get("terms"), header.get("postings")
        if not all(type(size) is int and size >= 0 for size in (n, terms_n, postings)):
            return None
        at = header_len
        if len(body) < at + 8 * (terms_n + 1 + 3 * n) + 8 * postings:
            return None

        def take(typecode: str, count: int) -> array:
            nonlocal at
            arr = array(typecode)
            arr.frombytes(body[at : at + count * arr.itemsize])
            at += count * arr.itemsize
            return _little_endian(arr)

        starts, norms, spans = take("q", terms_n + 1), take("d", n), take("q", 2 * n)
        post_docs, post_tf = take("i", postings), take("i", postings)
        words = str(body[at:], "utf-8", "surrogatepass").split("\n")
        if starts[0] != 0 or starts[-1] != postings or words.pop() or len(words) != terms_n:
            return None
        df = list(map(sub, starts[1:], starts[:-1]))
        if terms_n and min(df) < 1:
            return None
        if not _spans_fit(spans, data):
            return None
        if postings:
            # A document number may fail to rise only where a term's postings start.
            falls = bytearray(map(ge, post_docs, post_docs[1:]))
            for start in starts[1:-1]:
                falls[start - 1] = 0
            tf_values = set(post_tf)
            if not (
                1 not in falls
                and min(map(post_docs.__getitem__, starts[:-1])) >= 0
                and max(post_docs[end - 1] for end in starts[1:]) < n
                and 1 <= min(tf_values)
                and max(tf_values) <= max(map(sub, spans[1::2], spans[::2]))
            ):
                return None
        vocab = dict(zip(words, range(terms_n)))
        if len(vocab) != terms_n:
            return None
    except (ValueError, struct.error, RecursionError):
        return None
    return _Index(vocab, starts, _idf(df, n), post_docs, post_tf, norms), spans


def _spans_fit(spans: array, data: bytes) -> bool:
    """Whether spans (start and end offsets, flat) are the non-blank lines of
    data, in any order: in bounds, none empty or overlapping, whitespace
    alone around them (and a byte-order mark before the first) and a line
    break between any two. A span may still take in whitespace at an end of
    its line: the Doc built from it is then the same, or it fails to parse,
    which raises DataError."""
    if not spans:
        return not data.decode("utf-8-sig").strip()
    # Every offset in line order: start, end, start, end, ...
    bounds = list(itertools.chain.from_iterable(sorted(zip(spans[::2], spans[1::2]))))
    if not all(map(lt, bounds, bounds[1:])) or bounds[0] < 0 or bounds[-1] > len(data):
        return False
    for a, b in zip(bounds[1::2], bounds[2::2]):
        # A one-byte gap must be the line break itself; longer ones are decoded.
        if b - a == 1:
            if data[a] not in b"\n\r":
                return False
        else:
            gap = data[a:b]
            if not (b"\n" in gap or b"\r" in gap) or not gap.decode("utf-8").isspace():
                return False
    head, tail = data[: bounds[0]], data[bounds[-1] :]
    return not head.decode("utf-8-sig").strip() and not tail.decode("utf-8").strip()


def render_passages(docs: Sequence[Doc]) -> list[str]:
    """Render documents as 'Doc i (Title: ...) body' blocks, i being the rank."""
    return [f"Doc {i} (Title: {d.title}) {d.body}" for i, d in enumerate(docs, start=1)]


def retrieve(corpus: Corpus, query: str, k: int) -> list[str]:
    """Top-k passages for a query, rendered for in-context injection."""
    return render_passages([doc for doc, _ in corpus.search(query, k)])


class RetrievalEnv:
    """QA environment backed by a local corpus."""

    kind = "retrieval_qa"
    concurrent = True

    def __init__(self, corpus: Corpus, k: int = 3) -> None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.corpus = corpus
        self.k = k

    def respond(self, query: str) -> Observation:
        return Observation("\n".join(retrieve(self.corpus, query, self.k)))

    def bind(self, task) -> "RetrievalEnv":
        return self


class ScriptedEnv:
    """Deterministic test environment that replays canned observations.

    Entries are strings or {"text", "reward", "done"} mappings. Past the end
    of the script the last observation repeats. by_task selects a dedicated
    script per task id when the env is bound.
    """

    kind = None
    concurrent = False

    def __init__(
        self,
        script: Sequence[str | Mapping],
        by_task: Mapping[str, Sequence[str | Mapping]] | None = None,
    ) -> None:
        if not script:
            raise ValidationError("scripted env requires a non-empty script")
        self._script = [self._to_observation(entry) for entry in script]
        self._by_task = dict(by_task or {})
        self._cursor = 0

    @staticmethod
    def _to_observation(entry: str | Mapping | Observation) -> Observation:
        if isinstance(entry, Observation):
            return entry
        if isinstance(entry, str):
            return Observation(entry)
        return Observation(
            str(entry["text"]),
            reward=entry.get("reward"),
            done=bool(entry.get("done", False)),
        )

    def respond(self, query: str) -> Observation:
        obs = self._script[min(self._cursor, len(self._script) - 1)]
        self._cursor += 1
        return obs

    def bind(self, task) -> "ScriptedEnv":
        script = self._by_task.get(task.id, self._script)
        return ScriptedEnv(script)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedEnv":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, list):
            return cls(data)
        try:
            return cls(data["default"], by_task=data.get("by_task"))
        except (KeyError, TypeError):
            raise DataError(f"{path}: expected a list or {{'default': [...], 'by_task': {{...}}}}") from None


class HttpSearchEnv:
    """Web search over an HTTP JSON API, rendered as titles, snippets, URLs.

    The default request/response mapping matches a Serper-style endpoint
    (POST {"q": ..., "num": ...} returning {"organic": [{"title", "snippet",
    "link"}]}); override the keys for other providers.
    """

    kind = "web_search_qa"
    concurrent = True

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        auth_header: str = "X-API-KEY",
        top_n: int = 10,
        timeout: float = 10.0,
        results_path: str = "organic",
        title_key: str = "title",
        snippet_key: str = "snippet",
        url_key: str = "link",
        session: requests.Session | None = None,
    ) -> None:
        self.url = url
        self.api_key = api_key
        self.auth_header = auth_header
        self.top_n = top_n
        self.timeout = timeout
        self.results_path = results_path
        self.title_key = title_key
        self.snippet_key = snippet_key
        self.url_key = url_key
        if session is None:
            import requests  # only HTTP backends pay for this import

            session = requests.Session()
        self._session = session

    def respond(self, query: str) -> Observation:
        headers = {self.auth_header: self.api_key} if self.api_key else {}
        resp = self._session.post(
            self.url, json={"q": query, "num": self.top_n}, headers=headers, timeout=self.timeout
        )
        resp.raise_for_status()
        data = resp.json()
        results = data
        for part in self.results_path.split("."):
            if not isinstance(results, dict) or part not in results:
                raise DataError(f"search response missing {self.results_path!r}")
            results = results[part]
        blocks = []
        for i, item in enumerate(results[: self.top_n], start=1):
            title = item.get(self.title_key, "")
            snippet = item.get(self.snippet_key, "")
            link = item.get(self.url_key, "")
            blocks.append(f"{i}. {title}\n{snippet}\n{link}")
        return Observation("\n\n".join(blocks))

    def bind(self, task) -> "HttpSearchEnv":
        return self


@record
class Product:
    id: str
    title: str
    attributes: tuple[str, ...]
    price: float


def load_catalog(path: str | Path) -> list[Product]:
    products = []
    seen = set()
    for lineno, obj in iter_jsonl(path):
        try:
            product = Product(
                str(obj["id"]),
                str(obj["title"]),
                tuple(str(a) for a in obj["attributes"]),
                float(obj["price"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} line {lineno}: bad catalog record ({exc})") from None
        if product.id in seen:
            raise DataError(f"{path} line {lineno}: duplicate product id {product.id!r}")
        seen.add(product.id)
        products.append(product)
    if not products:
        raise DataError(f"{path}: catalog is empty")
    return products


_PRICE_CAP = re.compile(r"(?:lower than|less than|under|below|cheaper than)\s*\$?\s*([0-9]+(?:\.[0-9]+)?)", re.IGNORECASE)


@record
class ShopGoal:
    """What a purchase is scored against: required attribute strings plus an
    optional price cap that counts as one more requirement."""

    text: str
    attributes: tuple[str, ...] = ()
    price_cap: float | None = None

    @property
    def total_requirements(self) -> int:
        return len(self.attributes) + (1 if self.price_cap is not None else 0)

    @classmethod
    def from_text(cls, text: str, catalog: Sequence[Product]) -> "ShopGoal":
        """Derive requirements from goal text: catalog attributes mentioned in
        the text (whole words) become required, and a 'lower than $X' phrase
        sets the cap."""
        lowered = text.lower()
        vocab = sorted({attr for p in catalog for attr in p.attributes})
        required = tuple(
            a for a in vocab if re.search(rf"\b{re.escape(a.lower())}\b", lowered)
        )
        match = _PRICE_CAP.search(text)
        cap = float(match.group(1)) if match else None
        return cls(text=text, attributes=required, price_cap=cap)


@record
class ShopState:
    """Immutable snapshot of the shop session."""

    page: str  # search | results | product
    query: str = ""
    page_no: int = 1
    product_id: str | None = None
    panel: str | None = None
    budget: int = 0
    done: bool = False
    reward: float | None = None


_ACTION = re.compile(r"^\s*(search|click)\[(.*)\]\s*$", re.DOTALL)

_PANELS = ("description", "features", "color", "size")


class ShopSim:
    """A deterministic toy web shop honoring the search[]/click[] grammar.

    Buying scores 100 * matched requirements / total requirements. Valid
    actions consume budget; running out ends the episode with reward 0.
    Malformed or out-of-place actions leave the state unchanged and return an
    in-band "invalid action" observation.
    """

    def __init__(
        self,
        catalog: Sequence[Product],
        goal: ShopGoal,
        *,
        page_size: int = 3,
        action_budget: int = 30,
    ) -> None:
        if not catalog:
            raise DataError("shop catalog must be non-empty")
        if page_size < 1 or action_budget < 1:
            raise ValidationError("page_size and action_budget must be >= 1")
        self.catalog = list(catalog)
        self.by_id = {p.id: p for p in self.catalog}
        self.goal = goal
        self.page_size = page_size
        self.action_budget = action_budget
        # Each product's searchable terms, built once: _rank runs on every
        # results page, "next >" and product click.
        self._terms = [
            tuple(set(terms(f"{p.title} {' '.join(p.attributes)}"))) for p in self.catalog
        ]

    def initial_state(self) -> ShopState:
        return ShopState(page="search", budget=self.action_budget)

    def reward(self, product: Product) -> float:
        goal = self.goal
        if goal.total_requirements == 0:
            return 100.0
        have = {a.lower() for a in product.attributes}
        matched = sum(1 for a in goal.attributes if a.lower() in have)
        if goal.price_cap is not None and product.price <= goal.price_cap:
            matched += 1
        return 100.0 * matched / goal.total_requirements

    def _rank(self, query: str) -> list[Product]:
        q = set(terms(query))
        scored = []
        for p, hay in zip(self.catalog, self._terms):
            overlap = len(q.intersection(hay))
            if overlap:
                scored.append((overlap, p))
        scored.sort(key=lambda pair: (-pair[0], pair[1].id))
        return [p for _, p in scored]

    def observe(self, state: ShopState) -> str:
        if state.done:
            return "Session over."
        if state.page == "search":
            return "Search page. Actions: search[<keywords>]"
        if state.page == "results":
            ranked = self._rank(state.query)
            start = (state.page_no - 1) * self.page_size
            page = ranked[start : start + self.page_size]
            lines = [f"Results for '{state.query}' (page {state.page_no}):"]
            lines += [f"[{p.id}] {p.title} (${p.price:.2f})" for p in page]
            if not page:
                lines.append("(no results)")
            actions = "click[<item id>], click[back to search]"
            if start + self.page_size < len(ranked):
                actions += ", click[next >]"
            lines.append(f"Actions: {actions}")
            return "\n".join(lines)
        product = self.by_id[state.product_id]
        lines = [f"{product.title} (${product.price:.2f})"]
        if state.panel is not None:
            lines.append(self._panel_text(product, state.panel))
        lines.append(
            "Actions: click[description], click[features], click[color], click[size], "
            "click[buy now], click[back to search]"
        )
        return "\n".join(lines)

    def _panel_text(self, product: Product, panel: str) -> str:
        if panel == "description":
            attrs = ", ".join(product.attributes)
            return f"{product.title}. Attributes: {attrs}. Price: ${product.price:.2f}"
        if panel == "features":
            return "\n".join(f"- {a}" for a in product.attributes) or "- none"
        matching = [a for a in product.attributes if panel in a.lower()]
        if not matching:
            return f"No {panel} information."
        return "\n".join(f"- {a}" for a in matching)

    def step(self, state: ShopState, action: str) -> tuple[ShopState, Observation]:
        """Apply one action. Invalid actions leave the state unchanged."""
        if state.done:
            raise ValueError("no action is possible after the episode is done")
        match = _ACTION.match(action)
        if not match:
            return state, Observation("invalid action")
        verb, arg = match.group(1), match.group(2).strip()
        new = self._apply(state, verb, arg)
        if new is None:
            return state, Observation("invalid action")
        if not new.done and new.budget == 0:
            new = replace(new, done=True, reward=0.0)
            return new, Observation("Action budget exhausted.", reward=0.0, done=True)
        if new.done:
            return new, Observation(
                f"You bought {self.by_id[new.product_id].title}.",
                reward=new.reward,
                done=True,
            )
        return new, Observation(self.observe(new))

    def _apply(self, state: ShopState, verb: str, arg: str) -> ShopState | None:
        budget = state.budget - 1
        if verb == "search":
            if state.page != "search" or not arg:
                return None
            return ShopState(page="results", query=arg, page_no=1, budget=budget)
        lowered = arg.lower()
        if lowered == "back to search":
            return ShopState(page="search", budget=budget)
        if state.page == "results":
            if lowered == "next >":
                ranked = self._rank(state.query)
                if state.page_no * self.page_size >= len(ranked):
                    return None
                return replace(state, page_no=state.page_no + 1, budget=budget)
            target = self._match_product(state, lowered)
            if target is None:
                return None
            return replace(state, page="product", product_id=target.id, budget=budget)
        if state.page == "product":
            if lowered == "buy now":
                product = self.by_id[state.product_id]
                return replace(state, budget=budget, done=True, reward=self.reward(product))
            if lowered in _PANELS:
                return replace(state, panel=lowered, budget=budget)
            return None
        return None

    def _match_product(self, state: ShopState, lowered_arg: str) -> Product | None:
        ranked = self._rank(state.query)
        start = (state.page_no - 1) * self.page_size
        for p in ranked[start : start + self.page_size]:
            if p.id.lower() == lowered_arg or p.title.lower() == lowered_arg:
                return p
        return None


class ShopEnv:
    """Environment adapter over ShopSim: queries are shop actions.

    bind() starts a fresh session whose goal is derived from the task's
    question text.
    """

    kind = "shop"
    concurrent = False

    def __init__(self, catalog: Sequence[Product], goal: ShopGoal | None = None, **sim_kwargs) -> None:
        self._catalog = list(catalog)
        self._sim_kwargs = sim_kwargs
        self._sim = ShopSim(catalog, goal, **sim_kwargs) if goal is not None else None
        self._state = self._sim.initial_state() if self._sim else None

    def respond(self, query: str) -> Observation:
        if self._sim is None:
            raise ValidationError("shop env must be bound to a task (or given a goal) first")
        if self._state.done:
            return Observation("Session over.", done=True)
        self._state, obs = self._sim.step(self._state, query)
        return obs

    def bind(self, task) -> "ShopEnv":
        goal = ShopGoal.from_text(task.question, self._catalog)
        return ShopEnv(self._catalog, goal, **self._sim_kwargs)
