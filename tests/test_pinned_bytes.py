"""SHA-256 digests of engine outputs, pinned across versions of the code.

Criterion 11 compares repeat runs of one version.  The marking digests were
taken from the engines before the closed-form pair rule replaced the stored
pair assignment; the type-count chain and ``exact`` digests were taken
before the chain's jump law and backward sweep were each stated once; the
walk, ``lowerbound``, ``simulate`` and short-horizon ``exact`` digests were
taken before the batched marking state was slimmed and ``exact`` evolved
its distribution once instead of three times.  The ``exact`` and
``typechain`` CLI digests were re-pinned when their config headers
dropped the ``max_deck`` and ``seed`` keys; each new output equals the old
one with those keys removed from its first line.  The ``exact`` CLI digests
were last re-pinned when the exact engine moved from the N! permutations to
their orbits: the headers, result lines and step columns stay equal and
every distance moves by at most 6.7e-16 (deck 2, which has no orbit of
more than one permutation, keeps its digest).  The ``marking`` CLI
digests were last re-pinned when ``--verify-factorization`` and the
sampled conditional probe were deleted; each new output equals the old one
with the ``verify_factorization`` header key and the ``conditional``
payload key removed.  The bulk digests still hash ``None`` in the two slots
that once held the first-k snapshot, so ``deck4-first-k``, which recorded
it, now equals the old run hashed with ``None`` there.  The two 200-run
deck-256 digests pin the engine at the batch size of the ``marking-deck256``
benchmark workload; they were taken before the pair lookup was limited by
its rank bound.  The ``deck32-split-steps`` digest and the
``uniform_fixed_pmf`` digests were taken before marks and moves shared one
update and before the fixed-point law stopped at its underflow.  The two
``phase-one-finishes`` digests, where ceil(c1 N) = N, were taken before the
batched step began to skip its phase-entry and finish tests on steps where
no run can pass them.  The ``step_table`` digests were taken before the
table and the inline step came to share one statement of the step's
rules.  So a change that alters a random draw, its order,
any marking decision or any floating-point operation order shows up here
even when every statistical check still passes.  Update a digest only for a change that is meant to
alter outputs, and say so where the change is recorded.
"""
import hashlib

import numpy as np
import pytest

from _helpers import MarkingCensus, run_to_full_marking
from biased_shuffle import chain_core, marking
from biased_shuffle.bounds import simulate_walks, uniform_fixed_pmf
from biased_shuffle.chain_core import STREAM_MARKING, make_bias_profile, stream_rng
from biased_shuffle.cli import main
from biased_shuffle.marking import bulk_marking_runs
from biased_shuffle.type_chain import (
    absorption_bound_table,
    expected_absorption,
    simulate_absorption,
)


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
                   None, None, census.phase1_steps,
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


def walk_digest(n, a, t_values, trials, seed, **kwargs) -> str:
    res = simulate_walks(make_bias_profile(n, a), t_values, trials, seed, **kwargs)
    return _digest(np.array(res.t_values), res.counts, res.touch_steps, res.touch_picks)


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
    "deck256-a0.5-200-runs": (
        dict(n=128, a=0.5, c1=0.75, trials=200, seed=4244),
        "c0fbd7c7866c4e10bcddf4716f293fa5175b1192589290af70e7ef6ed127d7c4"),
    "deck256-a1-200-runs": (
        dict(n=128, a=1.0, c1=0.75, trials=200, seed=4245),
        "e4b4f788daeb2cfbab5fec32ce543c79b811428121ab67dd648e5975d3e3f422"),
    "deck4-first-k": (
        dict(n=2, a=0.5, c1=0.6, trials=3_000, seed=11),
        "7ae9032a9805c195ce781277ec87c2fd3bfcbb826536dceb8f999f5c916cd23b"),
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
    # most steps hold runs of both phases, and those steps move marks (some
    # of them a type's lowest mark) and hit assigned pairs
    "deck32-split-steps": (
        dict(n=16, a=0.25, c1=0.6, trials=500, seed=4246, record_mark_times=True),
        "91753af4fcd6962350ceb9f76186f60f1d94fceb4db851c560899a26be4accd2"),
    # ceil(c1 N) = N: every run finishes at its last phase-one mark, so no
    # run is ever in phase two
    "deck10-phase-one-finishes": (
        dict(n=5, a=0.5, c1=0.95, trials=300, seed=15, record_mark_times=True),
        "17a2cb918572c883127f61d1fc06467ae02fbdda2376ee8a3d846abdd8e90d6b"),
    "deck8-phase-one-finishes": (
        dict(n=4, a=0.5, c1=0.95, trials=500, seed=16),
        "d0f9325f7f721b6e2241f256e7f135e4408e7ce75d5e944a97fa9b566160a4c6"),
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
        "marking --deck 8 --trials 300 --seed 5".split(),
        "7d1353ffb83af825c3fb860f495393df395e100acfb0329ca71485d4b7b55b5d"),
    "always-mark": (
        "marking --deck 6 -a 0.25 --trials 200 --always-mark".split(),
        "abed0bfea72aed11cd37d586de981322cf18cb377348dc5ff39f2013cd79d6f8"),
    "uniformity": (
        "marking --mode uniformity --deck 4 --trials 2400 --seed 3".split(),
        "4ccd70c27253123030e4f88113c6dadb1d4285a58f9c1cf7c206783d1c5ea29f"),
    "gaps": (
        "marking --mode gaps --deck 10 --c1 0.6 --trials 300".split(),
        "4e72eb4a905c8ff081eadc16f7ea46eed37f11fa9f02818b0747a832204d62b1"),
}

ABSORPTION = {
    "n128-a0.5": (
        dict(n=128, a=0.5, start=(96, 96), trials=4000, seed=4242),
        "70725fbc412b5259566accee84bd570b12d199c078de0db39ccc18be2e848f06"),
    "n128-a1": (
        dict(n=128, a=1.0, start=(96, 96), trials=4000, seed=4242),
        "d1bbe1aa53a503107805140ef70ebe486f8c2033eed53126b132a37d5f14d9ff"),
    "n7-a0.3-origin": (
        dict(n=7, a=0.3, start=(0, 0), trials=4000, seed=4242),
        "7df5fed094038750bb5648f2b31b37a8f234a8f418c272ae2e4067ef0ae70ece"),
}

# n: uniform_fixed_pmf(n), large enough that the tail masses underflow to 0.0
FIXED_PMF = {
    512: "fb8785673b6e19e1b3dbb07ab282ed924a1147fdba83360a94ab47bddc970adf",
    2048: "e1d8fe464a916165b5e1e845e4a468b7d982ee4195462b1ebdce3c16325a6201",
}

# (n, a): (expected_absorption, absorption_bound_table)
TABLES = {
    (1, 0.3): (
        "0b3acd9e8d005749d7db16cd34e018a1d0a5a32b9169db168f0e25423db2ea21",
        "c794d036888c6f9a968b521328ec3747e0eb86965bfdd831e17476037b2bfc02"),
    (1, 0.5): (
        "5f4c1bea25b3eae855be9513c277e023f8e5db4a9fec25e043a4e5ac6974dd5e",
        "fd9669f78f3990dd583d7c7bb1bf624045cab52ed892641140dd8a6500b3c9f7"),
    (1, 1.0): (
        "4944b75df43498d2318067eefaf53a9faa29cac3315ceb71c415369332176355",
        "25c28c6baa0a6c0f720f56d2a47fa89ce6b9bf3556f2ee559230b6ad381265b8"),
    (5, 0.3): (
        "8318e1c739939f2aebe5a6de5efef0d271333c53d12dbddd8ae278d12816fe07",
        "608a004bdd1651a98c07d5daf998aedbf357dd9eda7bb5a10a44ddad608ede13"),
    (5, 0.5): (
        "f44d1d8f95d6f08df6945371a573448fedf78fd944a297f972e387cfbd67313c",
        "9cb1049b9dec39c2a3dbe5d1b7d08a81b5f1d1183eeb18250a034be29e5e4f0c"),
    (5, 1.0): (
        "dabe356b96e3717f4a2e09ae4e35647995d7e98cb2e8951874832324195e4ad4",
        "569f894d88c501d8e2fa81bd11b0736b629f3d2a08123982f7cbe5151e768d2a"),
    (64, 0.3): (
        "57dd3bffa34540af7e4c3de4d2ad19a61587856c8188d6c4f1ce8f51069343f6",
        "6837bde8f4466184d82d0c90cd7dfe520d30e23f7b8fe6de0bd2a6ea719b3692"),
    (64, 0.5): (
        "9babfe65933d4df07e7101639a8281b4c2b14289efccf9408765c18390e2f7a8",
        "0f345516c0b401dd71dcc0b9a7ab262c1093407b4e7a9ec713a9e2a74e7770c6"),
    (64, 1.0): (
        "85e27dbd04cc0a5c7e6c97e71f7297bba2695d54304850671a0830be4fefa535",
        "a40da6a5ad5ff608036e3d5cb6a3bc26b724d9e2407a14661c64d3fcae830ed9"),
    (200, 0.3): (
        "0d4d66624d01b5455e985ad100052d64bcffeb04b61dd3fd26027d3120062aa6",
        "59a6c2a0fb8f7149b1c90e31886b91a0f2ca3b6a3493894226f9136048dacc3a"),
    (200, 0.5): (
        "a8dc2c5d06c56da1ce885a43cd2de722d7b565f2929b44d991d2750b06dd8b58",
        "ead817ec744799df9ef3e317bd60ccd3f81869de13aa9e3dd235155bf4f317be"),
    (200, 1.0): (
        "115f932eee512912d5729ae5d73bbda048a22fcf5a3eb6075892d10053027d14",
        "1c0ae38250225197c35736eb6d876cf3d6cb66e4cd8eefef353f97b45620c37b"),
}

TABLE_CLI = {
    "typechain-rows": (
        "typechain --mode rows".split(),
        "d283804c330e02b3fff37f9b4ab4e06b241c73039fd250b24c90f5b9e102ae05"),
    "typechain-absorption": (
        "typechain --mode absorption".split(),
        "f4abe1cb430ba4ac2ef1431e53e9fcb322d98bfeb6dc79a44ed40895b4b280a0"),
    "typechain-bound": (
        "typechain --mode bound".split(),
        "e780b03cd4424dd621d9ab7cf2fb512b71d98daa3922c10cddfc75694a66ed6e"),
    # the small-deck-cli benchmark's typechain job
    "typechain-absorption-n200": (
        "typechain --mode absorption --n 200 -a 0.5".split(),
        "607eb83532761b19eb382315c494c4df02e86924014e47cfdd5e6787fedf86a6"),
    # 66,049 rows, more than one of the writer's blocks
    "typechain-rows-n256": (
        "typechain --mode rows --n 256 -a 0.77".split(),
        "ccbdb058dc4ae0c0decb3057bc16e6bc1106f5e6bb8e81a15730453c0df4f32c"),
    "exact-deck6": (
        "exact --deck 6 -a 0.5".split(),
        "5df9ad6f792e101345f5ebf417372239f944a752a02d2be2a48cc7a78228ed5a"),
}

# (a, c1): the deck-8 step table, all five arrays
STEP_TABLE = {
    (0.5, 0.6): "6eaff1179d2da78dbccdef5656fa49d33b4f29c62029271f058ccebf6817cc1d",
    (0.25, 0.9): "7adff859507af35c6074e7d97549aae800c544c3c851ad6a171b74fcc37e80af",
}

# Walk trials run in blocks of 4096 with one stream per block, so the first
# case spans two blocks.
WALK = {
    "deck12-two-blocks": (
        dict(n=6, a=0.5, t_values=(0, 3, 10, 25), trials=5000, seed=21,
             touch_threshold=2),
        "54f6c7b45b3ff216a483aa099e04c33df900a61d1efa09d3c0358e49f5dce0ea"),
    "deck64-touch-zero": (
        dict(n=32, a=1.0, t_values=(7, 40), trials=300, seed=22, touch_threshold=0),
        "5dc47c2031884fe99b3a47647981374b2586615050e79a0a125355225d70b0c5"),
    "deck8-touch-full": (
        dict(n=4, a=0.25, t_values=(5,), trials=200, seed=23, touch_threshold=4),
        "c5119b4b692005c2a4fca90b2dc7d837f770e6e6d2342c491f59744f167b97fa"),
    "deck20-no-touch": (
        dict(n=10, a=0.75, t_values=(1, 2, 30), trials=700, seed=24),
        "fa1aae3df062e854979a0b86b92fb1f7af804764fdb7ec3e5363a145c5172f5b"),
}

# Horizons that stop before, at and well past both crossings.
WALK_EXACT_CLI = {
    "lowerbound-t-list": (
        "lowerbound --deck 8 --trials 3000 --t-list 5,20".split(),
        "82045962876ae46fe73d3572a4d62a67a79844c5e416db2cc6b795a9f8ce5d25"),
    "lowerbound-multiples": (
        "lowerbound --deck 12 --trials 5000 --seed 9".split(),
        "222f4b5529029cb71bb6a996c8365b3ff37deaa7498d7701974ba9c4c4971a8f"),
    "simulate": (
        "simulate --deck 10 --t 12 --trials 500".split(),
        "5328a59e201d82bf703d5de659d7235c2682119ef3113776bc6c710a4f0b4b5d"),
    "exact-deck8": (
        "exact --deck 8 -a 0.5".split(),
        "8a7d89b978839c148b92878e2cf903160a5ce892cb034cfde0027615b56296a7"),
    "exact-deck6-t-max-3": (
        "exact --deck 6 --t-max 3".split(),
        "25c674ad0a6c656fc01ecf0c00b31cb8506f039fa45cdf03c56801e065dab7e5"),
    "exact-deck4-eps-0.01": (
        "exact --deck 4 -a 0.25 --eps 0.01 --t-max 5".split(),
        "905aefe2610269841b289e645aea1e7607389a18d975ecd0a41d347ef317201f"),
    "exact-deck6-t-max-0": (
        "exact --deck 6 -a 0.5 --t-max 0 --eps 0.5".split(),
        "a97854b2d6ae02469e7e6fa786d2a53266a6aa3be73229e417297019c448f141"),
    "exact-deck2-t-max-40": (
        "exact --deck 2 -a 0.5 --t-max 40".split(),
        "144938843f5a47d48618feee9179a4901c55a92beb12f1b127091de566fa03d7"),
}


@pytest.mark.parametrize("name", sorted(BULK))
def test_bulk_engine_bytes(name):
    kwargs, expected = BULK[name]
    assert bulk_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(BULK))
def test_bulk_engine_bytes_with_tiny_hand_blocks(monkeypatch, name):
    # with blocks of 7 words nearly every take fills a one-take block of its
    # own; only the small takes of the last few runs share blocks
    monkeypatch.setattr(chain_core, "HAND_BLOCK", 7)
    kwargs, expected = BULK[name]
    assert bulk_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(name for name, (kwargs, _) in BULK.items()
                                         if 2 * kwargs["n"] <= marking.STEP_TABLE_MAX_DECK))
def test_bulk_engine_bytes_on_the_inline_step(monkeypatch, name):
    # decks up to STEP_TABLE_MAX_DECK read the step table; a cap of 0 sends
    # them through the inline step, which must give the same digest
    monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", 0)
    kwargs, expected = BULK[name]
    assert bulk_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(name for name in BULK if "phase-one-finishes" in name))
def test_phase_one_finishes_cases_stay_in_phase_one(name):
    kwargs = dict(BULK[name][0])
    n, a, c1, trials, seed = (kwargs.pop(key) for key in ("n", "a", "c1", "trials", "seed"))
    res = bulk_marking_runs(make_bias_profile(n, a), c1, trials, seed, **kwargs)
    assert marking.mark_threshold(2 * n, c1) == 2 * n
    assert (res.t_phase1 == res.t_full).all()


@pytest.mark.parametrize("a,c1", sorted(STEP_TABLE))
def test_step_table_bytes(a, c1):
    table = marking.step_table(make_bias_profile(4, a), marking.mark_threshold(8, c1))
    assert _digest(*table) == STEP_TABLE[a, c1]


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_scalar_engine_bytes(name):
    kwargs, expected = SCALAR[name]
    assert scalar_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(CLI))
def test_marking_cli_bytes(capsys, name):
    argv, expected = CLI[name]
    assert cli_digest(capsys, argv) == expected


@pytest.mark.parametrize("name", sorted(CLI))
def test_marking_cli_bytes_on_the_inline_step(monkeypatch, capsys, name):
    monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", 0)
    argv, expected = CLI[name]
    assert cli_digest(capsys, argv) == expected


@pytest.mark.parametrize("name", sorted(ABSORPTION))
def test_absorption_bytes(name):
    kwargs, expected = ABSORPTION[name]
    assert _digest(simulate_absorption(**kwargs)) == expected


@pytest.mark.parametrize("n,a", sorted(TABLES))
def test_type_chain_table_bytes(n, a):
    got = (_digest(expected_absorption(n, a)), _digest(absorption_bound_table(n, a)))
    assert got == TABLES[n, a]


@pytest.mark.parametrize("n", sorted(FIXED_PMF))
def test_uniform_fixed_pmf_bytes(n):
    assert _digest(uniform_fixed_pmf(n)) == FIXED_PMF[n]


@pytest.mark.parametrize("name", sorted(TABLE_CLI))
def test_table_cli_bytes(capsys, name):
    argv, expected = TABLE_CLI[name]
    assert cli_digest(capsys, argv) == expected


@pytest.mark.parametrize("name", sorted(WALK))
def test_walk_bytes(name):
    kwargs, expected = WALK[name]
    assert walk_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(WALK))
def test_walk_bytes_with_tiny_hand_blocks(monkeypatch, name):
    monkeypatch.setattr(chain_core, "HAND_BLOCK", 7)
    kwargs, expected = WALK[name]
    assert walk_digest(**kwargs) == expected


@pytest.mark.parametrize("name", sorted(WALK_EXACT_CLI))
def test_walk_and_exact_cli_bytes(capsys, name):
    argv, expected = WALK_EXACT_CLI[name]
    assert cli_digest(capsys, argv) == expected
