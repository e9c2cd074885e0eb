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
rules.  Every seeded digest was re-pinned when ``stream_rng`` moved from
Philox to PCG64DXSM, and every unseeded CLI digest at the same time for
the version 0.1.0 -> 0.2.0 in its header: with ``stream_rng`` and the
version patched back, that code gave every earlier digest, and each new
unseeded output equals the old one but for the version in its first line.
The ``deck100-touch-two-blocks`` walk digest, the touch shape of the
``walk-deck1024`` benchmark workload, was taken after that move and before
the touch pass came to read both hands in one pass over the open runs.
The ``BULK`` digests of more than one run and the four ``marking`` CLI
digests were re-pinned when the batched engine came to run phase one for
every run and then phase two, which changes how the runs share the stream;
``BULK_SINGLE_RUN`` was taken before that change and pins one-run calls,
whose reading of the stream it left alone, and the two
``phase-one-finishes`` digests never reach phase two and kept theirs.
Every other CLI digest was re-pinned at the same time for the version
0.2.0 -> 0.3.0 in its header alone: each new output equals the old one but
for the version in its first line.
So a change that alters a random draw, its order,
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
        "9d513e5d58c495752e6d931f9000bdbf4cb0d4ce554ac06e15eba28f3fc1ff7f"),
    "deck256-a1": (
        dict(n=128, a=1.0, c1=0.75, trials=6, seed=4243),
        "a9052b19a9a8047eaf5e7a32dfcb337c6385122e033423bf58fdde2798647f7a"),
    "deck256-a0.5-200-runs": (
        dict(n=128, a=0.5, c1=0.75, trials=200, seed=4244),
        "f964f53908189a33624cc65fd800f5aaea5755a1c598bff7ff64266da7da6ced"),
    "deck256-a1-200-runs": (
        dict(n=128, a=1.0, c1=0.75, trials=200, seed=4245),
        "d627aea36ef18b9f61db6e33d84843e9717edd48efcaa5637399336409dfa684"),
    "deck4-first-k": (
        dict(n=2, a=0.5, c1=0.6, trials=3_000, seed=11),
        "fda48b6322fe864c92aff3b15e2f2d7bd126f6f00e19797f210eb2a3dd324df7"),
    "deck64-census": (
        dict(n=32, a=0.5, c1=0.8, trials=200, seed=14),
        "04719456a283985cf879c006b14c760ea31ba7d8a5e314ea6769861d569eb825"),
    "deck20-mark-times": (
        dict(n=10, a=0.25, c1=0.75, trials=300, seed=12, record_mark_times=True),
        "5b8f70c91d5fe2e55ab5230a2ddb721ef0b5ee371acf1a858369ec22c1f1f89f"),
    "deck10-always-mark": (
        dict(n=5, a=0.5, c1=0.6, trials=400, seed=13, always_mark=True,
             record_mark_times=True),
        "3a77d4414de95203a113050f14a0df31dbbec52ea96ef5a2e97678ed7f7a21d3"),
    # most steps held runs of both phases before the phases ran in two
    # passes; phase two moves marks (some of them a type's lowest mark) and
    # hits assigned pairs
    "deck32-split-steps": (
        dict(n=16, a=0.25, c1=0.6, trials=500, seed=4246, record_mark_times=True),
        "9f843d4f8cda564a418d7eefdd51599af95b3c441b26091c84fc743bcdf3a9d1"),
    # ceil(c1 N) = N: every run finishes at its last phase-one mark, so no
    # run is ever in phase two
    "deck10-phase-one-finishes": (
        dict(n=5, a=0.5, c1=0.95, trials=300, seed=15, record_mark_times=True),
        "9b20ea15c806cac7fb8399ed3fde2bde8b9ab71ff46edc5d6dc7a63ca939fb0c"),
    "deck8-phase-one-finishes": (
        dict(n=4, a=0.5, c1=0.95, trials=500, seed=16),
        "9942a6d11322eb1f52bbc7f6086a66da0f8e917b3f8ccac60d4a6ff672776559"),
    # step-table decks with mark times recorded across many compactions in
    # both passes, taken before the two step forms came to share one run state
    "deck6-mark-times-compacted": (
        dict(n=3, a=0.5, c1=0.6, trials=2_000, seed=17, record_mark_times=True),
        "4f17817ecb4fe0e481dbcfbd76f489399851c394e7929412c0d74c8fcbff890b"),
    "deck8-always-mark-compacted": (
        dict(n=4, a=0.5, c1=0.6, trials=2_000, seed=18, always_mark=True,
             record_mark_times=True),
        "b154c1d5206d2455d9c0286b6da5fd6ca52f0cf35b7354c07a2e8c6b7e92c923"),
}

# Single-run calls, each with its own seed: (n, a, c1, seeds, kwargs).  With
# one run a call reads its stream exactly as the per-run step does, whatever
# the batch layout, so these pin the step itself.
SINGLE_RUNS = (
    (2, 0.5, 0.6, range(40), {}),
    (4, 0.25, 0.75, range(15), dict(record_mark_times=True)),
    (4, 0.5, 0.6, range(10), dict(always_mark=True)),
    (5, 0.5, 0.6, range(20), dict(always_mark=True, record_mark_times=True)),
    (5, 0.5, 0.95, range(10), dict(record_mark_times=True)),
    (10, 0.25, 0.75, range(10), dict(record_mark_times=True)),
    (32, 0.5, 0.8, range(6), {}),
)
BULK_SINGLE_RUN = "3082d5779ae2bc2e460e8d2bf9bed4f26acfd064c54024544447088044e6bb0c"


def single_run_digest() -> str:
    return hashlib.sha256("".join(
        bulk_digest(n, a, c1, 1, seed, **kwargs)
        for n, a, c1, seeds, kwargs in SINGLE_RUNS for seed in seeds).encode()).hexdigest()


SCALAR = {
    "deck6": (
        dict(n=3, a=0.5, c1=0.75, seeds=range(40)),
        "a0f0aed5f52da0c25d68d7b6665866adc0157b8acb8ce975d1f1338c99e1b429"),
    "deck12": (
        dict(n=6, a=0.25, c1=0.6, seeds=range(20)),
        "7e677c13d83c505407bddd998f91c477a2ea1b4b80b60d4e783a34e5ffb99187"),
    "deck24": (
        dict(n=12, a=0.5, c1=0.75, seeds=range(6)),
        "a18a4f96127a7ddf48136a7d2a5f4ec4746be4592ced1e5febdcf8460901e48f"),
    "deck8-always-mark": (
        dict(n=4, a=0.5, c1=0.75, seeds=range(4), always_mark=True),
        "c301cbedb00c9ea5a949f93f43a3c7435b7f08eec8ec47ed0e215d20f62042d1"),
}

CLI = {
    "runs": (
        "marking --deck 8 --trials 300 --seed 5".split(),
        "fcd9263986e55b225dadcc449971907f7da6d851d9ccac093cda1710134bb4c0"),
    "always-mark": (
        "marking --deck 6 -a 0.25 --trials 200 --always-mark".split(),
        "62a1aa21406acccccd50c4100cc5dc2379dc4247f76c6aa35b169f0bd18cc0f7"),
    "uniformity": (
        "marking --mode uniformity --deck 4 --trials 2400 --seed 3".split(),
        "2be7e2c13b3bed3df90481baf3dfde1fc162861071ae7611ef72f0046419d9af"),
    "gaps": (
        "marking --mode gaps --deck 10 --c1 0.6 --trials 300".split(),
        "158b0feee5d787400582b08004b432fdd32d281af02c4cc49fee810d12c33064"),
}

ABSORPTION = {
    "n128-a0.5": (
        dict(n=128, a=0.5, start=(96, 96), trials=4000, seed=4242),
        "f13cc9fcd84ea8ccaa22bcfa4a994db5c333a88c401eb82f6b20b016d231482d"),
    "n128-a1": (
        dict(n=128, a=1.0, start=(96, 96), trials=4000, seed=4242),
        "5cfabd6dff2b7d030075b4b7925c67efe6825eeb0b9acb2e89152316812c9af3"),
    "n7-a0.3-origin": (
        dict(n=7, a=0.3, start=(0, 0), trials=4000, seed=4242),
        "1452a51cf6de1c76efef6a0b567da079c54858e0aa712621f13463250c2f6d4c"),
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
        "d2d7181eed431ff0c0f6036702c46479bdd09b272f80d67d203d0446408e1ae8"),
    "typechain-absorption": (
        "typechain --mode absorption".split(),
        "f792e7f5574405573a8e6d7b2ccd558ed8b2875bbb6d73c521e326b32ac2dd6e"),
    "typechain-bound": (
        "typechain --mode bound".split(),
        "2dab67771607a7d6a762cf96328f9e282dfb6d3f4cdacd5b3b79ef80b7e35f00"),
    # the small-deck-cli benchmark's typechain job
    "typechain-absorption-n200": (
        "typechain --mode absorption --n 200 -a 0.5".split(),
        "778519fb68cc8073330e68cac5c39e815985e461347a1a2e6b2228fb7d10be66"),
    # 66,049 rows, more than one of the writer's blocks
    "typechain-rows-n256": (
        "typechain --mode rows --n 256 -a 0.77".split(),
        "ed44c8691e834b45e672fc755b2614085e057df16e6e2d7faaf8bf68ce443e99"),
    "exact-deck6": (
        "exact --deck 6 -a 0.5".split(),
        "d12a09a3087c0c373f26860bb1e3de3b96a151a8f660ebed9071a6122386b23c"),
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
        "e933d62e97f901f7379b87f956c1f17fe0c3e0624e7d15fc7baadc8f130f3d17"),
    "deck64-touch-zero": (
        dict(n=32, a=1.0, t_values=(7, 40), trials=300, seed=22, touch_threshold=0),
        "335995003ba28766bb11627f674cf2aa88de6e83be20f4159294a8fb41fb0c74"),
    "deck8-touch-full": (
        dict(n=4, a=0.25, t_values=(5,), trials=200, seed=23, touch_threshold=4),
        "451af35435bb7a648d92d200470e9fbbdb4260dc5993107d367738da499380cc"),
    "deck20-no-touch": (
        dict(n=10, a=0.75, t_values=(1, 2, 30), trials=700, seed=24),
        "2869090c6ca9b2cd056979942c8b317396ffd21fdee7963859562180482edcf0"),
    # blocks of 4,096 and 904 runs; the deck-100 hand table has straddling bins
    "deck100-touch-two-blocks": (
        dict(n=50, a=0.5, t_values=(1,), trials=5000, seed=25, touch_threshold=5),
        "f3c6ad9da8bed8e68383b5db6e5b9dd6be587b1d59516c1402d71c41916f8eb1"),
}

# Horizons that stop before, at and well past both crossings.
WALK_EXACT_CLI = {
    "lowerbound-t-list": (
        "lowerbound --deck 8 --trials 3000 --t-list 5,20".split(),
        "5da137f5baf3e33e350896b04e514c6e8ab50aa280cff164eb05d97d8e0e7f29"),
    "lowerbound-multiples": (
        "lowerbound --deck 12 --trials 5000 --seed 9".split(),
        "432f9a240516606caf1cee2120e4bc8401826424d9ebc3431e7ce2bad3130842"),
    "simulate": (
        "simulate --deck 10 --t 12 --trials 500".split(),
        "3788976805fc4a559f66bb7b3b20f45a6d244efd83fab2224835491f23c8129b"),
    "exact-deck8": (
        "exact --deck 8 -a 0.5".split(),
        "a62743f8c174dfa7acbc80b9246eca6a0434355a8feab63c7d21071d60c7a3be"),
    "exact-deck6-t-max-3": (
        "exact --deck 6 --t-max 3".split(),
        "57a4db21910c5efc34274100261eff2eca31c7e934693d4b8a20b8b3da0b2487"),
    "exact-deck4-eps-0.01": (
        "exact --deck 4 -a 0.25 --eps 0.01 --t-max 5".split(),
        "66d9a187e459269293388573b4feb3a1a7d93644fd996dc62e4c9ced14b3c5b4"),
    "exact-deck6-t-max-0": (
        "exact --deck 6 -a 0.5 --t-max 0 --eps 0.5".split(),
        "f76e4a95c0530678f078514432e71b0ff669559be9ab4e2ae87ed4e1d0c83be4"),
    "exact-deck2-t-max-40": (
        "exact --deck 2 -a 0.5 --t-max 40".split(),
        "f5a885cb60091535c25d3ef1e958f27cc0b5d07e3f95ff7924ed4f9fd76abf46"),
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


def test_single_run_bytes():
    assert single_run_digest() == BULK_SINGLE_RUN


def test_single_run_bytes_on_the_inline_step(monkeypatch):
    monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", 0)
    assert single_run_digest() == BULK_SINGLE_RUN


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
