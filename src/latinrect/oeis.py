"""OEIS b-file plumbing: parse, format, fetch with a local cache,
and compare a computed record against catalog terms.

Comparison never silently passes: the report says how many indexed
terms overlapped and where the first divergence sits, and a fetch
that cannot happen (offline with a cold cache) or a cached b-file
that cannot be read or does not parse comes back as status
"unverifiable" rather than as a success.  Only a download that parses
is cached.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Mapping

from .frozen import Frozen
from .records import SequenceRecord

CACHE_ENV_VAR = "LATINRECT_OEIS_CACHE"
#: seconds a download may take before the check is unverifiable
FETCH_TIMEOUT_S = 20.0

MATCH = "match"
MISMATCH = "mismatch"
UNVERIFIABLE = "unverifiable"


class OeisUnavailableError(RuntimeError):
    """The b-file could not be obtained, locally or remotely."""


class BFileFormatError(ValueError):
    """A line of a b-file did not parse as 'n value'."""


def canonical_id(raw: str) -> str:
    """'a271' / '271' / 'A000271' -> 'A000271'."""
    m = re.fullmatch(r"[Aa]?0*([0-9]{1,6})", raw.strip())
    if not m:
        raise ValueError(f"not an OEIS id: {raw!r}")
    return f"A{int(m.group(1)):06d}"


def bfile_url(oeis_id: str) -> str:
    oeis_id = canonical_id(oeis_id)
    return f"https://oeis.org/{oeis_id}/b{oeis_id[1:]}.txt"


def parse_bfile(text: str) -> dict[int, int]:
    """b-file lines are 'n a(n)'; comments start with '#'."""
    out: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileFormatError(f"line {lineno}: expected 'n value', got {line!r}")
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileFormatError(f"line {lineno}: non-integer field in {line!r}") from None
        if n in out:
            raise BFileFormatError(f"line {lineno}: duplicate index {n}")
        out[n] = value
    return out


def format_bfile(record: SequenceRecord) -> str:
    """The record's terms under a comment header that says how to reproduce them."""
    params = "".join(f" {k}={v}" for k, v in sorted(record.params.items()))
    lines = [
        f"# family={record.family}{params}",
        f"# n={record.offset}..{record.last_n} reduced={record.reduced} "
        f"provenance={record.provenance} engine=latinrect-{record.engine_version}",
        *(f"{n} {t}" for n, t in record.indexed_terms()),
    ]
    return "\n".join(lines) + "\n"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "latinrect" / "oeis"


def cache_path(oeis_id: str) -> Path:
    return default_cache_dir() / f"b{canonical_id(oeis_id)[1:]}.txt"


def fetch_bfile(oeis_id: str, offline: bool = False) -> dict[int, int]:
    """Return the parsed b-file, from cache when present; a cached file
    that does not parse raises BFileFormatError, and one that cannot be
    read OeisUnavailableError.  A fresh download that parses lands in
    the cache so later runs work offline; one that does not (an error
    page, a cut-off transfer) is not cached, and neither is one the
    cache cannot take, which is still returned."""
    path = cache_path(oeis_id)
    if path.exists():
        try:
            # bytes that are not UTF-8 fail the parse, which names their line
            text = path.read_text(errors="replace")
        except OSError as exc:
            raise OeisUnavailableError(
                f"cannot read cached b-file {path}: {exc.strerror}"
            ) from exc
        return parse_bfile(text)
    if offline:
        raise OeisUnavailableError(f"offline and no cached b-file at {path}")
    import urllib.error
    import urllib.request

    url = bfile_url(oeis_id)
    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            text = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise OeisUnavailableError(f"could not fetch {url}: {exc}") from exc
    try:
        terms = parse_bfile(text)
    except BFileFormatError as exc:
        raise OeisUnavailableError(f"{url} is not a b-file: {exc}") from exc
    # a reader never sees a half-written cache file
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        pass  # the cache stays as it was; the terms are good all the same
    finally:
        if tmp.is_file():
            tmp.unlink()
    return terms


class OeisReport(Frozen):
    __slots__ = ("oeis_id", "status", "terms_compared", "first_divergence", "detail")

    def summary(self) -> str:
        head = f"{self.oeis_id}: {self.status.upper()} ({self.terms_compared} terms compared)"
        return f"{head} -- {self.detail}" if self.detail else head


def _unverifiable(oeis_id: str, detail: str) -> OeisReport:
    return OeisReport(
        oeis_id=oeis_id,
        status=UNVERIFIABLE,
        terms_compared=0,
        first_divergence=None,
        detail=detail,
    )


def compare_terms(
    record: SequenceRecord, reference: Mapping[int, int], oeis_id: str
) -> OeisReport:
    """Compare on the overlap of indices; no overlap is unverifiable."""
    overlap = [n for n, _ in record.indexed_terms() if n in reference]
    if not overlap:
        return _unverifiable(
            oeis_id, f"no overlapping indices (record {record.offset}..{record.last_n})"
        )
    for n in overlap:
        if record.term(n) != reference[n]:
            return OeisReport(
                oeis_id=oeis_id,
                status=MISMATCH,
                terms_compared=len(overlap),
                first_divergence=n,
                detail=f"a({n}): computed {record.term(n)}, catalog {reference[n]}",
            )
    return OeisReport(
        oeis_id=oeis_id,
        status=MATCH,
        terms_compared=len(overlap),
        first_divergence=None,
        detail="",
    )


def oeis_check(record: SequenceRecord, oeis_id: str, offline: bool = False) -> OeisReport:
    oeis_id = canonical_id(oeis_id)
    try:
        reference = fetch_bfile(oeis_id, offline=offline)
    except OeisUnavailableError as exc:
        return _unverifiable(oeis_id, str(exc))
    except BFileFormatError as exc:
        return _unverifiable(
            oeis_id, f"cached b-file {cache_path(oeis_id)} does not parse, {exc}; "
            "delete it to fetch again"
        )
    return compare_terms(record, reference, oeis_id)
