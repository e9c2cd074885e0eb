"""SHA-256 digests of marking outputs, pinned across versions of the code.

Criterion 11 compares repeat runs of one version.  These digests were taken
from the engines before the closed-form pair rule replaced the stored pair
assignment, so a change that alters a random draw, its order or any
marking decision shows up here even when every statistical check still
passes.  Update a digest only for a change that is meant to alter outputs,
and say so where the change is recorded.
"""
import hashlib

import numpy as np
import pytest

from biased_shuffle.chain_core import STREAM_MARKING, make_bias_profile, stream_rng
from biased_shuffle.cli import main
from biased_shuffle.marking import MarkingCensus, bulk_marking_runs, run_to_full_marking


def _digest(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        if item is None:
            h.update(b"none;")
            continue
        arr = np.ascontiguousarray(item)
        h.update(f"{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def bulk_digest(n, a, c1, trials, seed, **kwargs) -> str:
    census = MarkingCensus(n=n)
    res = bulk_marking_runs(make_bias_profile(n, a), c1, trials, seed,
                            census=census, **kwargs)
    return _digest(res.decks, res.t_phase1, res.t_full, res.mark_times,
                   res.hit_labels, res.hit_positions, census.phase1_steps,
                   census.phase1_marks, census.phase2_counts)


def scalar_digest(n, a, c1, seeds, **kwargs) -> str:
    profile = make_bias_profile(n, a)
    items = []
    for i in seeds:
        rec = run_to_full_marking(profile, c1, stream_rng(4242, STREAM_MARKING, i),
                                  record_transitions=True, **kwargs)
        items += [np.array([rec.t_phase1, rec.t_full]), np.array(rec.mark_times),
                  np.array(rec.deck.card_at), np.array(rec.transitions).reshape(-1)]
    return _digest(*items)


def cli_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


BULK = {
    "deck256-a0.5": (
        dict(n=128, a=0.5, c1=0.75, trials=6, seed=4242),
        "31ce5efce8b8f5c3fdef6a39ba2c891a25b2c4c1c695eae2d9cb304798331ce3"),
    "deck256-a1": (
        dict(n=128, a=1.0, c1=0.75, trials=6, seed=4243),
        "4d212f2cd125af0f50c23a5504008edb58e966e6847b54a30b87c87e4699d4b7"),
    "deck4-first-k": (
        dict(n=2, a=0.5, c1=0.6, trials=3_000, seed=11, record_first_k=2),
        "80498e37415b56e39f899bdc10a68a1f2e55dad2868ef9626ebdc7a39aa9548b"),
    "deck64-census": (
        dict(n=32, a=0.5, c1=0.8, trials=200, seed=14),
        "293ebecc6a602b1a6844d4612eed2d2da65b8de6711a65754d834446537bc2f1"),
    "deck20-mark-times": (
        dict(n=10, a=0.25, c1=0.75, trials=300, seed=12, record_mark_times=True),
        "730b3f3768f918f840e2280a9eb02f313a4aa1a14fae8579302b6e928e4fac11"),
    "deck10-always-mark": (
        dict(n=5, a=0.5, c1=0.6, trials=400, seed=13, always_mark=True,
             record_mark_times=True),
        "870ec9889db783e7d760fc0bf6583a6273cddba45ec5cce68241bee60a45be14"),
}

SCALAR = {
    "deck6": (
        dict(n=3, a=0.5, c1=0.75, seeds=range(40)),
        "16a0ff253e6753f0d199648f053fe2633ac443801fe6c9d0be87653f0818d3fd"),
    "deck12": (
        dict(n=6, a=0.25, c1=0.6, seeds=range(20)),
        "69aa2f56ced1d09fd5384a788abcdc6c701ab4335350fcace0c61e6a8987707d"),
    "deck24": (
        dict(n=12, a=0.5, c1=0.75, seeds=range(6)),
        "a07905abac7c8b8bedf9a1ee5fbc71b8b18fe236907532fcd33692167ef068be"),
    "deck8-always-mark": (
        dict(n=4, a=0.5, c1=0.75, seeds=range(4), always_mark=True),
        "ed105d6ab5da14b833894baed3dbc8ee29c47da41f26f9aed49a34fbff808542"),
}

CLI = {
    "runs": (
        "marking --deck 8 --trials 300 --seed 5 --verify-factorization 2".split(),
        "ad75ba7ffcadc3f93a6965eb356816c7aa89be7e09f3ca29879ffa150134fd40"),
    "always-mark": (
        "marking --deck 6 -a 0.25 --trials 200 --always-mark".split(),
        "2fadb4e46aa60fea20e75345d1f24a2572b3be6152624a988ce4ad9a678cbaff"),
    "uniformity": (
        "marking --mode uniformity --deck 4 --trials 2400 --seed 3".split(),
        "e7cc8f25895f28ef7e57504e7cd8d2b6e44c5272f8dc758d078beb045c685d2e"),
    "gaps": (
        "marking --mode gaps --deck 10 --c1 0.6 --trials 300".split(),
        "d1fccc4f0dd25f0e90f1622fd6b1e4412dd2811ade2102e52ac93561c5a85402"),
}


@pytest.mark.parametrize("name", sorted(BULK))
def test_bulk_engine_bytes(name):
    kwargs, expected = BULK[name]
    assert bulk_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_scalar_engine_bytes(name):
    kwargs, expected = SCALAR[name]
    assert scalar_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(CLI))
def test_marking_cli_bytes(capsys, name):
    argv, expected = CLI[name]
    assert cli_digest(capsys, argv) == expected
