"""The stdout of ``tables table1`` and of ``classify`` and ``ideal`` at a
zero-class, a T-class and an N-class w for n = 5, 6, 7, run in process,
against pinned SHA-256 digests.  These commands read single bits of the
verdict and family masks; their output must not change."""

import hashlib

import pytest

from mfl.cli import main

DIGESTS = [
    ("tables table1",
     "b0d8171ac0d8de1b18499f9637366ca7632fac4a6c97f7758ab331b487b4fc52"),
    ("--format json tables table1",
     "70d6308174133aff6d7ac18e23712389883b916d7d1583c79d42537426aab301"),
    ("--format json classify --n 5 --ell 1 --w 21435",
     "ec0162cd3a2aa879f4cd93a224fb3ab6f2b34d32218bd0982da8ebba16c04e33"),
    ("--format json ideal --n 5 --ell 1 --w 21435",
     "c42752a1f58f4f7a03b475d21d495a260380d69c50f0e6d56fd61033d289a960"),
    ("--format json classify --n 5 --ell 1 --w 51432",
     "77d244668eb487f786a26129e8ce1fd0d34ae4e7579d32e67085b20f91eeedee"),
    ("--format json ideal --n 5 --ell 1 --w 51432",
     "37620b54c068bbb54d70c9b0d3427d20c7b49f4c281cb11cd02a78ce29575f10"),
    ("--format json classify --n 5 --ell 1 --w 54312",
     "eacbeda04ec6874f40d0fc19466fd95820251f77bc4453440e7f1903dd05f7e8"),
    ("--format json ideal --n 5 --ell 1 --w 54312",
     "e79410a3c8b045d831c57135b09e2242e83384fabd24e7ba6e75297f04c1da9b"),
    ("classify --n 5 --ell 1 --w 51432",
     "945dd54302e1c77ba07289764bdb4066b3d824d9c1faf4596b870b7d135844d0"),
    ("--format json classify --n 6 --ell 3 --w 214365",
     "38d90fe6b44c84b7e83758f2f4a6dc33d62c610793997a81650a9972879c7c96"),
    ("--format json ideal --n 6 --ell 3 --w 214365",
     "964f7803035d2f223c346e69bf1f6f30d865ce34e467575f1666855bbc31bf63"),
    ("--format json classify --n 6 --ell 3 --w 635421",
     "592edf6f275a5a52b20b6d51ff4a7c094ee5d96af13a30c75bbc2e6b51b23de5"),
    ("--format json ideal --n 6 --ell 3 --w 635421",
     "c5f8b53bd77b42bd952b0bdaa78d1b930efb3ec435ce0b9e3bc9164212635040"),
    ("--format json classify --n 6 --ell 3 --w 654312",
     "7ea63d8215ec7cd74c8f7197b8a731e6bcaccac408e14f04b95b264f08be35cb"),
    ("--format json ideal --n 6 --ell 3 --w 654312",
     "58f1220369b5957f7f78f096bf185460c2f48cdbc1e1ddf98d624d8bb0f3e925"),
    ("classify --n 6 --ell 3 --w 635421",
     "f6033644ac8267e3566cf9d24c661dfd8b52652385260d9f2a063a7cbeccf483"),
    ("--format json classify --n 7 --ell 6 --w 2143657",
     "db8e8d5b781405d3fc024e01710c7d129566ec3d5d5d2058550080eafafc3473"),
    ("--format json ideal --n 7 --ell 6 --w 2143657",
     "9e62f4db3adb98cc5159f89fe2053f3f5d520f06dcf184af80ce1a3f414432d7"),
    ("--format json classify --n 7 --ell 6 --w 7654321",
     "985bd8d6c9b917e36ccd21320501e7efbe65769c01128f2767a23568b21c8c51"),
    ("--format json ideal --n 7 --ell 6 --w 7654321",
     "789c90f6c90786cf83a336eece70fce24979bdc7f8ad8bfc1f1f667d3cbbd403"),
    ("--format json classify --n 7 --ell 6 --w 7654312",
     "60dce4316bf4b5599a67ea51d2f6f62543572da1b53ba14d219f995796982f5c"),
    ("--format json ideal --n 7 --ell 6 --w 7654312",
     "bb38990433fd0f306b7eca8b741e671780381a7edcd64c1c557a6d7855e81441"),
    ("classify --n 7 --ell 6 --w 7654321",
     "afbd4af7d54cbe635cce2a1a75a4639892263629e48796bfe14fb7ab4f02b3a5"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[a for a, _ in DIGESTS])
def test_stdout_matches_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
