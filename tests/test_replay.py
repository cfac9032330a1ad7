"""The committed replay digest (see replay.py): it covers the corpus, and
every 20th argv that finishes, every parser-level argv, every error argv
and every sign-run argv gives the outcome it records."""

import json

import pytest

import replay

DIGEST = json.loads(replay.DIGEST.read_text())


@pytest.fixture(scope="module")
def corpus():
    return replay.corpus()


def test_digest_covers_the_corpus(corpus):
    assert sorted(DIGEST) == sorted(replay.argv_key(argv) for argv in corpus)


def _differing(records):
    return [r["argv"] for r in records
            if replay.outcome_key(r) != DIGEST[replay.argv_key(r["argv"])]]


def test_every_20th_finishing_argv_matches_the_digest(corpus):
    finishing = [argv for argv in corpus
                 if DIGEST.get(replay.argv_key(argv), replay.OVER) != replay.OVER]
    records = replay.replay(replay.ROOT / "src", finishing[::20])
    assert len(records) > 200
    assert _differing(records) == []


def test_every_parser_level_argv_matches_the_digest():
    assert _differing(replay.replay(replay.ROOT / "src", replay.PARSER_ARGVS)) == []


def test_every_error_argv_matches_the_digest():
    assert _differing(replay.replay(replay.ROOT / "src", replay.ERROR_ARGVS)) == []


def test_every_sign_argv_matches_the_digest():
    assert _differing(replay.replay(replay.ROOT / "src", replay.SIGN_ARGVS)) == []
