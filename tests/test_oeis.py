"""b-file parsing/formatting, the fetch cache, and comparison
semantics.  Network access is faked; nothing here goes online."""

from __future__ import annotations

import io
import urllib.error
import urllib.request

import pytest

from latinrect.oeis import (
    CACHE_ENV_VAR,
    MATCH,
    MISMATCH,
    UNVERIFIABLE,
    BFileFormatError,
    OeisUnavailableError,
    bfile_url,
    cache_path,
    canonical_id,
    compare_terms,
    default_cache_dir,
    fetch_bfile,
    format_bfile,
    oeis_check,
    parse_bfile,
)
from latinrect.sequences import gen_der_seq


class TestIds:
    def test_canonical_forms(self):
        assert canonical_id("271") == "A000271"
        assert canonical_id("a271") == "A000271"
        assert canonical_id(" A000271 ") == "A000271"
        assert canonical_id("A075852") == "A075852"

    def test_invalid(self):
        for bad in ("", "B123", "A12345678", "27a1"):
            with pytest.raises(ValueError):
                canonical_id(bad)

    def test_url(self):
        assert bfile_url("271") == "https://oeis.org/A000271/b000271.txt"


class TestParse:
    def test_basic(self):
        text = "# comment\n\n1 0\n2 3\n3 -16\n"
        assert parse_bfile(text) == {1: 0, 2: 3, 3: -16}

    def test_whitespace_tolerant(self):
        assert parse_bfile("  4   99  ") == {4: 99}

    def test_duplicate_index(self):
        with pytest.raises(BFileFormatError):
            parse_bfile("1 0\n1 0\n")

    def test_malformed_lines(self):
        with pytest.raises(BFileFormatError):
            parse_bfile("1 2 3\n")
        with pytest.raises(BFileFormatError):
            parse_bfile("one 2\n")

    def test_format_roundtrip(self):
        rec = gen_der_seq({0}, 5)
        text = format_bfile(rec)
        assert text.startswith(
            "# family=gen-der shifts=[0]\n"
            f"# n=1..5 reduced=True provenance=engine engine=latinrect-{rec.engine_version}\n"
        )
        assert parse_bfile(text) == dict(rec.indexed_terms())


class TestCompare:
    def test_match(self):
        rec = gen_der_seq({0}, 6)
        ref = dict(rec.indexed_terms())
        ref[99] = 123456  # extra catalog terms are fine
        report = compare_terms(rec, ref, "A000166")
        assert report.status == MATCH
        assert report.terms_compared == 6
        assert "MATCH" in report.summary()

    def test_mismatch_reports_first_divergence(self):
        rec = gen_der_seq({0}, 6)
        ref = dict(rec.indexed_terms())
        ref[4] += 1
        report = compare_terms(rec, ref, "A000166")
        assert report.status == MISMATCH
        assert report.first_divergence == 4
        assert "catalog" in report.detail

    def test_no_overlap_unverifiable(self):
        rec = gen_der_seq({0}, 4)
        report = compare_terms(rec, {50: 1, 51: 2}, "A000166")
        assert report.status == UNVERIFIABLE
        assert report.terms_compared == 0


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """A fresh, empty OEIS cache directory."""
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    return tmp_path


class FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestCache:
    def test_env_var_controls_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "oc"))
        assert default_cache_dir() == tmp_path / "oc"
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert "latinrect" in str(default_cache_dir())

    def test_cache_path_naming(self, cache):
        assert cache_path("271") == cache / "b000271.txt"

    def test_cache_hit_no_network(self, cache, monkeypatch):
        def explode(*a, **k):
            raise AssertionError("network touched despite cache hit")

        monkeypatch.setattr(urllib.request, "urlopen", explode)
        cache_path("271").write_text("1 0\n2 0\n3 1\n")
        assert fetch_bfile("271") == {1: 0, 2: 0, 3: 1}

    def test_offline_cold_cache_raises(self, cache):
        with pytest.raises(OeisUnavailableError):
            fetch_bfile("271", offline=True)

    def test_download_populates_cache(self, cache, monkeypatch):
        def fake_urlopen(url, timeout=0):
            assert url == bfile_url("271")
            return FakeResponse(b"# header\n1 0\n2 0\n3 1\n")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert fetch_bfile("271") == {1: 0, 2: 0, 3: 1}
        assert [p.name for p in cache.iterdir()] == ["b000271.txt"]
        # second fetch comes from disk even with the network gone
        monkeypatch.setattr(urllib.request, "urlopen", None)
        assert fetch_bfile("271") == {1: 0, 2: 0, 3: 1}

    def test_download_that_does_not_parse_is_not_cached(self, cache, monkeypatch):
        def rate_limited(url, timeout=0):
            return FakeResponse(b"<html>rate limited</html>\n")

        monkeypatch.setattr(urllib.request, "urlopen", rate_limited)
        with pytest.raises(OeisUnavailableError, match="not a b-file"):
            fetch_bfile("271")
        assert list(cache.iterdir()) == []

    def test_download_the_cache_cannot_take_still_compares(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv(CACHE_ENV_VAR, str(blocker / "oeis"))
        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda url, timeout=0: FakeResponse(b"1 0\n2 0\n3 1\n"))
        report = oeis_check(gen_der_seq({0, 1}, 3), "271")
        assert (report.status, report.terms_compared) == (MATCH, 3)
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "not a directory\n"

    def test_cached_file_that_does_not_parse_raises(self, cache):
        cache_path("271").write_text("<html>rate limited</html>\n")
        with pytest.raises(BFileFormatError, match="line 1"):
            fetch_bfile("271", offline=True)

    def test_network_failure_wrapped(self, cache, monkeypatch):
        def fail(url, timeout=0):
            raise urllib.error.URLError("no route")

        monkeypatch.setattr(urllib.request, "urlopen", fail)
        with pytest.raises(OeisUnavailableError):
            fetch_bfile("271")


class TestCheck:
    def test_match_via_cached_fixture(self, cache, fixture_dir):
        cache_path("271").write_text((fixture_dir / "b000271.txt").read_text())
        rec = gen_der_seq({0, 1}, 10)
        report = oeis_check(rec, "271", offline=True)
        assert report.status == MATCH
        assert report.terms_compared == 10

    def test_mismatch_status(self, cache, fixture_dir):
        cache_path("271").write_text((fixture_dir / "b000271.txt").read_text())
        rec = gen_der_seq({0}, 10)  # derangements, not menage
        report = oeis_check(rec, "271", offline=True)
        assert report.status == MISMATCH

    def test_unavailable_becomes_unverifiable(self, cache):
        rec = gen_der_seq({0}, 4)
        report = oeis_check(rec, "271", offline=True)
        assert report.status == UNVERIFIABLE
        assert "offline" in report.detail
