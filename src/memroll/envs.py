"""Environments a rollout can query: corpus retrieval, live web search, and a
scripted stand-in for tests. The toy shop lives in shop.py.

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
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from operator import add, le, lt, mul, sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence, runtime_checkable

from .core import DataError, ValidationError, jsonl_lines, record

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
]

# The shop moved to shop.py; these names still resolve here, importing it on
# first access, so that a corpus rollout never loads it.
_SHOP = ("Product", "load_catalog", "ShopGoal", "ShopState", "ShopSim", "ShopEnv")


def __getattr__(name: str):
    if name in _SHOP:
        from . import shop

        return getattr(shop, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    in array.array columns and cut into blocks of _BLOCK postings: term id t
    owns postings _starts[t]:_starts[t + 1] of _post_docs and _post_tf (its
    frequency in each document) and blocks _blocks[t]:_blocks[t + 1] of
    _bounds. A block stores its first document whole (its skip entry) and
    each later one as the gap from the one before less one, so documents rise
    by construction; its bound is its largest ln(1+tf) * idf / norm.

    search is an exact block-max top-k. Lists of one or two blocks are taken
    whole; the blocks of longer lists are taken highest bound first until no
    document outside the taken blocks could reach theta, the k-th best score
    known. A document that lists still left could hold is then dropped if its
    score so far plus the bounds of the blocks that could hold it is below
    theta, and completed from those blocks otherwise. Bounds are scaled by
    _SAFETY and only what falls strictly below theta is dropped, so rounding
    never drops a document that ranks, nor one that ties the k-th score with
    a lower doc_id. A shortfall is filled with zero-score documents in doc_id
    order.

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
        self._norms = index.norms
        self._blocks = index.blocks
        self._bounds = index.bounds
        self._post_docs = index.post_docs
        self._post_tf = index.post_tf
        self._decoded: dict[int, array] = {}  # block -> its documents, see _numbers

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

    def _numbers(self, t: int, b: int) -> array:
        """The documents of block b, one of term t's, decoded the first time
        search asks for them and kept, for a later query that reads the same
        long list."""
        docs = self._decoded.get(b)
        if docs is None:  # threads that race here decode equal arrays
            lo = self._starts[t] + (b - self._blocks[t]) * _BLOCK
            docs = self._decoded[b] = array("i", _decode(self._post_docs, lo, min(lo + _BLOCK, self._starts[t + 1])))
        return docs

    def search(self, query: str, k: int) -> list[tuple[Doc, float]]:
        """Top-k (doc, cosine) pairs; all docs when the corpus is smaller than k."""
        if k < 1:
            raise ValidationError("k must be >= 1")
        q_tf: dict[int, int] = {}
        for word in terms(query):
            if word in self._vocab:
                t = self._vocab[word]
                q_tf[t] = q_tf.get(t, 0) + 1
        q_weights = {t: math.log(1 + c) * self._idf[t] for t, c in q_tf.items()}
        q_norm = math.sqrt(math.fsum([w * w for w in q_weights.values()]))
        starts, blocks, bounds, norms = self._starts, self._blocks, self._bounds, self._norms
        post_tf, idf = self._post_tf, self._idf
        dots: dict[int, float] = {}
        parts: dict[int, list[float]] = {}  # every contribution to a document two terms reach
        top: list[tuple[float, int]] = []  # min-heap: the k best (score so far, document)

        # Lists of up to _WHOLE blocks are taken whole. The blocks of longer
        # ones wait in pending as (bound * w / q_norm, block), ascending, and
        # seen keeps what their taken blocks hold.
        pending: dict[int, list[tuple[float, int]]] = {}
        seen: dict[int, list[dict[int, float]]] = {}

        def take(t: int, lo: int, hi: int, docs: Iterable[int]) -> dict[int, float]:
            """Add in postings lo:hi of term t, whole blocks, whose documents
            are docs; while blocks are pending, offer each document's
            contribution alone, a lower bound of its score, to top."""
            tfs, w = post_tf[lo:hi], q_weights[t]
            table = [(w * math.log(1 + c)) * idf[t] for c in range(max(tfs) + 1)]
            contrib = dict(zip(docs, map(table.__getitem__, tfs)))
            for i in contrib.keys() & dots.keys():
                parts.setdefault(i, [dots[i]]).append(contrib[i])
            dots.update(contrib)
            if pending:
                lows = [c / (q_norm * norms[i]) for i, c in contrib.items()]
                # Only the k best of these can enter top, and only above their least.
                floor = sorted(lows)[-k] if len(lows) > k else 0.0
                for pair in zip(lows, contrib):
                    if pair[0] >= floor and (len(top) < k or pair > top[0]) and all(i != pair[1] for _, i in top):
                        if len(top) == k:
                            heapq.heapreplace(top, pair)
                        else:
                            heapq.heappush(top, pair)
            return contrib

        # A zero weight (a term in every document) adds nothing to any dot
        # product, so its postings are skipped.
        weighted = [t for t, w in q_weights.items() if w > 0]
        for t in weighted:
            if blocks[t + 1] - blocks[t] > _WHOLE:
                scale = q_weights[t] / q_norm
                pending[t] = sorted((bounds[b] * scale, b) for b in range(blocks[t], blocks[t + 1]))
                seen[t] = []
        for t in weighted:
            if t not in pending:
                take(t, starts[t], starts[t + 1], _decode(self._post_docs, starts[t], starts[t + 1]))
        while pending:
            theta = top[0][0] if len(top) == k else 0.0
            if math.fsum([left[-1][0] for left in pending.values()]) * _SAFETY < theta:
                break  # no document outside the taken blocks can reach theta
            t = max(pending, key=lambda u: pending[u][-1])
            b = pending[t].pop()[1]
            if not pending[t]:
                del pending[t]
            lo = starts[t] + (b - blocks[t]) * _BLOCK
            seen[t].append(take(t, lo, min(lo + _BLOCK, starts[t + 1]), self._numbers(t, b)))
        for i, p in parts.items():
            dots[i] = _dot(p)
        if pending:
            self._complete(dots, parts, pending, seen, q_weights, q_norm, theta)
        # Every candidate shares a term of positive weight with the query, so
        # its dot product and both norms are positive. Only scores at least
        # the k-th best can rank; equal scores rank the lower document
        # number, i.e. the lower doc_id, first.
        scores = [dot / (q_norm * norms[i]) for i, dot in dots.items()]
        kth = sorted(scores)[-k] if len(scores) > k else 0.0
        best = heapq.nlargest(k, [(s, -i) for i, s in zip(dots, scores) if s >= kth])
        results = [(self._doc(-neg), s) for s, neg in best]
        taken = {-neg for _, neg in best}
        for i in range(len(self._ordered)):
            if len(results) >= k:
                break
            if i not in taken:
                results.append((self._doc(i), 0.0))
        return results

    def _complete(self, dots, parts, pending, seen, q_weights, q_norm, theta) -> None:
        """Finish dots after search stopped at theta with blocks pending: a
        document they could hold is dropped if it cannot reach theta, and
        completed from them otherwise."""
        starts, blocks, bounds, norms = self._starts, self._blocks, self._bounds, self._norms
        unseen: defaultdict[int, list[int]] = defaultdict(list)  # document -> lists that may hold it
        for t in pending:
            for i in set(dots).difference(*seen[t]):
                unseen[i].append(t)
        skips = {t: self._post_docs[starts[t] : starts[t + 1] : _BLOCK] for t in pending}
        left = {t: {b for _, b in pending[t]} for t in pending}
        for i, ts in unseen.items():
            # The block of each list that would hold i, where not taken.
            holders = [(t, b) for t in ts if (b := blocks[t] + bisect_right(skips[t], i) - 1) in left[t]]
            reach = math.fsum([bounds[b] * (q_weights[t] / q_norm) for t, b in holders])
            if (dots[i] / (q_norm * norms[i]) + reach) * _SAFETY < theta:
                del dots[i]
                continue
            p = parts.get(i) or [dots[i]]
            had = len(p)
            for t, b in holders:
                docs = self._numbers(t, b)
                at = bisect_left(docs, i)
                if at < len(docs) and docs[at] == i:
                    tf = self._post_tf[starts[t] + (b - blocks[t]) * _BLOCK + at]
                    p.append((q_weights[t] * math.log(1 + tf)) * self._idf[t])
            if len(p) > had:
                dots[i] = _dot(p)


def _dot(p: list[float]) -> float:
    """A dot product from two or more contributions: the IEEE sum of two is
    already correctly rounded, and math.fsum rounds the sum of more."""
    return p[0] + p[1] if len(p) == 2 else math.fsum(p)


def _decode(post_docs: array, lo: int, hi: int) -> Iterator[int]:
    """The documents of postings lo:hi, which start a block and end one: a
    block stores its first document, then each gap less one, so its j-th
    document is the sum of its first j + 1 entries plus j."""
    if hi - lo <= _BLOCK:
        return map(add, itertools.accumulate(post_docs[lo:hi]), range(_BLOCK))
    return itertools.chain.from_iterable(_decode(post_docs, at, min(at + _BLOCK, hi)) for at in range(lo, hi, _BLOCK))


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
_BLOCK = 128  # postings a block
_WHOLE = 2  # search takes a list of up to this many blocks whole
# Bounds are scaled by this before they are compared with a score: rounding
# moves a score or a bound by a few units in the last place (2**-52), so
# that 2**-40 is far more than any rounding can take back.
_SAFETY = 1 + 2**-40


class _Index(NamedTuple):
    """What search reads; a build and a load give equal columns, bit for bit."""

    vocab: dict[str, int]  # term -> id, in id order
    starts: array  # int64 offsets: term t owns postings starts[t]:starts[t + 1]
    idf: array  # float64 ln(N/df) of each term
    norms: array  # float64 document norms
    blocks: array  # int64 offsets: term t owns blocks blocks[t]:blocks[t + 1]
    bounds: array  # float64 per block: its largest ln(1+tf) * idf / norm
    post_docs: array  # uint32 per block: its first document, then each gap less one
    post_tf: array  # int32 term frequency of each posting


def _blocks(starts: array) -> tuple[array, list[int]]:
    """Where each term's blocks start among the blocks, and where each block
    starts among the postings: a term's postings are cut into blocks of
    _BLOCK, the last one short."""
    firsts = list(map(range, starts[:-1], starts[1:], itertools.repeat(_BLOCK)))
    return array("q", itertools.accumulate(map(len, firsts), initial=0)), list(itertools.chain.from_iterable(firsts))


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
    idf = array("d", [math.log(n / c) for c in df])
    # Document-major here, so each document's weights are one slice.
    log1p = [math.log(1 + c) for c in range(max(counts, default=0) + 1)]
    weights = list(map(mul, map(log1p.__getitem__, counts), map(idf.__getitem__, term_ids)))
    norms, at = array("d"), 0
    for length in lengths:
        ws = weights[at : at + length]
        norms.append(math.sqrt(math.fsum(map(mul, ws, ws))))
        at += length
    # Term-major: gaps less one, with each block's first document whole.
    starts = array("q", itertools.accumulate(df, initial=0))
    post_docs, bounds = array("I"), array("d")
    for docs, tfs, term_idf in zip(docs_of, tfs_of, idf):
        entries = list(map(sub, docs, [0, *map((1).__add__, docs)]))
        entries[_BLOCK::_BLOCK] = docs[_BLOCK::_BLOCK]
        post_docs.extend(entries)
        # A term in every document weighs 0, and so may every term of a document.
        ratios = [log1p[c] * term_idf / norms[i] for i, c in zip(docs, tfs)] if term_idf else [0.0] * len(docs)
        bounds.extend(max(ratios[j : j + _BLOCK]) for j in range(0, len(docs), _BLOCK))
    return _Index(
        vocab=dict(vocab),
        starts=starts,
        idf=idf,
        norms=norms,
        blocks=_blocks(starts)[0],
        bounds=bounds,
        post_docs=post_docs,
        post_tf=array("i", itertools.chain.from_iterable(tfs_of)),
    )


def _index_key(data: bytes) -> dict | None:
    """Everything an index built from data depends on: the bytes themselves;
    the source of _INDEX_SOURCES, so that any edit to how the index is built
    or stored makes every older file stale; the Python implementation, whose
    regular expressions split the words; the Unicode database, which decides
    what \\w and str.lower mean; the C library, whose log gives the
    weights; and the block size, which lays out the postings. None if the
    source cannot be read."""
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
        "block": _BLOCK,
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
            "blocks": len(index.bounds),
            "docs": len(index.norms),
            "key": key,
            "postings": len(index.post_docs),
            "terms": len(index.vocab),
            "vocab": len(vocab),
        },
        sort_keys=True,
    ).encode("utf-8")
    header += b" " * (-(_INDEX_PREFIX.size + len(header)) % 8)  # 8-byte aligned arrays
    columns = (index.starts, index.idf, index.norms, spans, index.bounds, index.post_docs, index.post_tf)
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
    {blocks, docs, key, postings, terms, vocab}, space-padded to a multiple
    of 8 bytes; then starts (i8), idf (f8), norms (f8), spans (i8, a start
    and an end offset per document, in doc_id order), bounds (f8, one per
    block), post_docs (u4) and post_tf (i4), all little-endian, and last the
    vocabulary in id order as `vocab` bytes of UTF-8, each term followed by a
    newline (a \\w+ term holds none). Each array is copied into an
    array.array.

    The checksum catches damage, not deliberate edits (anyone can recompute
    it). None unless the key matches, the checksum holds, the file is exactly
    as long as its header says (so there is one idf value per term and one
    bound per block) and the content fits data: spans that are the non-blank
    lines of data (_spans_fit), offsets that start at 0 and give every term
    at least one posting, `blocks` blocks in all, idf values and bounds that
    are finite and not negative, each block's last document (its skip entry
    plus its gaps plus one per gap) below the next block's skip entry, or
    below `docs` for a term's last block, frequencies from 1 to the longest
    span (a line's bytes are at least its characters), and exactly `terms`
    distinct terms. So the load cannot raise, and search cannot index past
    an array.
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
        sizes = [header.get(name) for name in ("docs", "terms", "postings", "blocks", "vocab")]
        if not all(type(size) is int and size >= 0 for size in sizes):
            return None
        n, terms_n, postings, blocks_n, vocab_len = sizes
        at = header_len
        if len(body) != at + 8 * (2 * terms_n + 1 + 3 * n + blocks_n + postings) + vocab_len:
            return None

        def take(typecode: str, count: int) -> array:
            nonlocal at
            arr = array(typecode)
            arr.frombytes(body[at : at + count * arr.itemsize])
            at += count * arr.itemsize
            return _little_endian(arr)

        starts, idf, norms = take("q", terms_n + 1), take("d", terms_n), take("d", n)
        spans, bounds = take("q", 2 * n), take("d", blocks_n)
        post_docs = take("I", postings)
        tf_bytes = bytes(body[at : at + 4 * postings])
        post_tf = take("i", postings)
        words = str(body[at:], "utf-8", "surrogatepass").split("\n")
        if starts[0] != 0 or starts[-1] != postings or words.pop() or len(words) != terms_n:
            return None
        if terms_n and min(map(sub, starts[1:], starts[:-1])) < 1:
            return None
        blocks, firsts = _blocks(starts)
        if blocks[-1] != blocks_n or not (_finite_not_negative(idf) and _finite_not_negative(bounds)):
            return None
        if not _spans_fit(spans, data):
            return None
        if postings:
            ends = firsts[1:] + [postings]
            # A block's last document must stay below the next block's first,
            # or below n after a term's last block.
            limits = list(map(post_docs.__getitem__, firsts[1:])) + [n]
            for b in blocks[1:]:
                limits[b - 1] = n
            # Its last document is the sum of its entries plus its length less one.
            sums = map(sum, map(post_docs.__getitem__, map(slice, firsts, ends)))
            if not all(map(le, map(add, sums, map(sub, ends, firsts)), limits)):
                return None
            if not _frequencies_fit(post_tf, tf_bytes, max(map(sub, spans[1::2], spans[::2]))):
                return None
        vocab = dict(zip(words, range(terms_n)))
        if len(vocab) != terms_n:
            return None
    except (ValueError, struct.error, RecursionError):
        return None
    return _Index(vocab, starts, idf, norms, blocks, bounds, post_docs, post_tf), spans


def _frequencies_fit(post_tf: array, raw: bytes, longest: int) -> bool:
    """Whether every frequency is from 1 to longest. raw holds them as
    little-endian int32s, read with byte operations where each is from 1 to
    255, as usual: then its low byte is not zero and its other three are."""
    low = raw[::4]
    if 0 in low or raw.count(0) != 3 * len(low):
        return 1 <= min(post_tf) and max(post_tf) <= longest
    return not low.translate(None, bytes(range(min(longest, 255) + 1)))


def _finite_not_negative(values: array) -> bool:
    """Whether every value is finite and not negative (NaN is neither)."""
    return all(map(le, itertools.repeat(0.0), values)) and max(values, default=0.0) < math.inf


def _spans_fit(spans: array, data: bytes) -> bool:
    """Whether spans (start and end offsets, flat) are the non-blank lines of
    data, in any order: in bounds, none empty or overlapping, whitespace
    alone around them (and a byte-order mark before the first) and a line
    break between any two. A span may still take in whitespace at an end of
    its line: the Doc built from it is then the same, or it fails to parse,
    which raises DataError."""
    if not spans:
        return not data.decode("utf-8-sig").strip()
    # Every offset in line order: start, end, start, end, ... Spans in doc_id
    # order already are when the file is in doc_id order.
    bounds = spans
    if not all(map(lt, spans, spans[1:])):
        bounds = array("q", itertools.chain.from_iterable(sorted(zip(spans[::2], spans[1::2]))))
        if not all(map(lt, bounds, bounds[1:])):
            return False
    if bounds[0] < 0 or bounds[-1] > len(data):
        return False
    ends, starts = bounds[1:-1:2], bounds[2::2]
    # A one-byte gap must be the line break itself; longer ones are decoded.
    if max(map(sub, starts, ends), default=1) == 1:
        if bytes(map(data.__getitem__, ends)).translate(None, b"\n\r"):
            return False
    else:
        for a, b in zip(ends, starts):
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

    Entries are strings or {"text", "reward", "done"} mappings, whose done
    must be a boolean and reward a number or None (else ValidationError).
    Past the end of the script the last observation repeats. by_task selects
    a dedicated script per task id when the env is bound. Every script must
    be non-empty.
    """

    kind = None
    concurrent = False

    def __init__(
        self,
        script: Sequence[str | Mapping],
        by_task: Mapping[str, Sequence[str | Mapping]] | None = None,
    ) -> None:
        self._script = [self._to_observation(entry) for entry in script]
        self._by_task = {k: [self._to_observation(entry) for entry in v] for k, v in (by_task or {}).items()}
        if not (self._script and all(self._by_task.values())):
            raise ValidationError("scripted env requires non-empty scripts")
        self._cursor = 0

    @staticmethod
    def _to_observation(entry: str | Mapping | Observation) -> Observation:
        if isinstance(entry, Observation):
            return entry
        if isinstance(entry, str):
            return Observation(entry)
        text, reward, done = entry["text"], entry.get("reward"), entry.get("done", False)
        # type(), not isinstance(): a JSON true reads as True, an int subclass.
        if type(done) is not bool or not (reward is None or type(reward) in (int, float)):
            raise ValidationError(f"scripted observation needs a boolean done and a number or null reward, "
                                  f"got done {done!r}, reward {reward!r}")
        return Observation(str(text), reward=reward, done=done)

    def respond(self, query: str) -> Observation:
        obs = self._script[min(self._cursor, len(self._script) - 1)]
        self._cursor += 1
        return obs

    def bind(self, task) -> "ScriptedEnv":
        script = self._by_task.get(task.id, self._script)
        return ScriptedEnv(script)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedEnv":
        default, by_task = read_script(path)
        try:
            return cls(default, by_task=by_task)
        except (KeyError, TypeError):
            raise DataError(f"{path}: expected a list or {{'default': [...], 'by_task': {{...}}}}") from None
        except ValidationError as exc:
            raise DataError(f"{path}: {exc}") from None


def read_script(path: str | Path) -> tuple[list, dict]:
    """A scripted backend's file, a JSON list or {"default": [...], "by_task":
    {id: [...]}}, as (default, by_task); anything else is a DataError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: {exc}") from None
    if isinstance(data, list):
        return data, {}
    if isinstance(data, dict):
        default, by_task = data.get("default", []), data.get("by_task") or {}
        if isinstance(default, list) and isinstance(by_task, dict):
            if all(isinstance(script, list) for script in by_task.values()):
                return default, by_task
    raise DataError(f"{path}: expected a list or {{'default': [...], 'by_task': {{...}}}}")


class HttpSearchEnv:
    """Web search over Serper's JSON API, rendered as titles, snippets, URLs.

    Each query is POSTed as {"q": query, "num": top_n}, with api_key in the
    X-API-KEY header, and the response must hold {"organic": [{"title",
    "snippet", "link"}, ...]}; one without an "organic" list is a DataError.
    """

    kind = "web_search_qa"
    concurrent = True

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        top_n: int = 10,
        timeout: float = 10.0,
        session: requests.Session | None = None,
    ) -> None:
        self.url = url
        self.api_key = api_key
        self.top_n = top_n
        self.timeout = timeout
        if session is None:
            import requests  # only HTTP backends pay for this import

            session = requests.Session()
        self._session = session

    def respond(self, query: str) -> Observation:
        headers = {"X-API-KEY": self.api_key} if self.api_key else {}
        resp = self._session.post(
            self.url, json={"q": query, "num": self.top_n}, headers=headers, timeout=self.timeout
        )
        resp.raise_for_status()
        data = resp.json()
        results = data.get("organic") if isinstance(data, dict) else None
        if not isinstance(results, list):
            raise DataError("search response has no 'organic' list")
        blocks = []
        for i, item in enumerate(results[: self.top_n], start=1):
            title = item.get("title", "")
            snippet = item.get("snippet", "")
            link = item.get("link", "")
            blocks.append(f"{i}. {title}\n{snippet}\n{link}")
        return Observation("\n\n".join(blocks))

    def bind(self, task) -> "HttpSearchEnv":
        return self
