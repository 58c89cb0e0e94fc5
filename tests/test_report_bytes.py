"""The exact bytes `qschur verify` prints, pinned by SHA-256.

Each row is a `scripts/run_acceptance.py` configuration at its default
seed (20260816), 200 random instances and one thread.  A refactor that
keeps the mathematics must keep these digests; a deliberate change to a
report has to update them here.
"""

import hashlib

import pytest

from qschur import cli

PINNED = [
    ("transfer-formulas", ("--n", "2"),
     "5a73cf17f1db5fd99d98a126e7699d94126489e2c70eed31c793d7b90fc87968"),
    ("transfer-formulas", ("--n", "3"),
     "14fe1ecc304013f6dbfcc0c4baa94f7a78d53697c392c0bd11c1d3fee18ca96d"),
    ("relations", ("--n", "2", "--rmax", "5"),
     "3d96ebd88e8f0ef8b06ba96a227f52162d4693db50cdad1d274e63de91749f2b"),
    ("triangular", ("--n", "3"),
     "48d44df9d4ba3ac2eab561ec09d968ee0e58f7c33aa929fe31834cf64bdea5c9"),
    ("pbw-independence", ("--n", "2", "--bound", "2"),
     "5a7c652937d7244df0e3f1a9231ca962ca3c0b41c2177455922f000e11830fbb"),
    ("specialization", ("--n", "2", "--l", "3"),
     "7d9f26341be91e7d06e7af34cb89acdf48b28aa42b55cb35f385e0fd55b13770"),
    ("specialization", ("--n", "3", "--l", "3"),
     "684ef2c43179d74870202c869afb7bac12d1ecc8a62f83c46de6e98e034bfdc9"),
    ("closure", ("--n", "2"),
     "6b2dcc50ca20bcc634d198f885cc41084b75726eb5731db3dbedd8073b305c8d"),
]


@pytest.mark.parametrize(
    "suite, args, digest",
    PINNED,
    ids=["-".join([s, *(x.lstrip("-") for x in a)]) for s, a, _ in PINNED],
)
def test_verify_report_bytes_are_pinned(suite, args, digest, capsys):
    code = cli.main(
        ["verify", suite, *args,
         "--seed", "20260816", "--random-instances", "200", "--threads", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
