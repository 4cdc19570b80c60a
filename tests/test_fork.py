"""Where stylekit forks and onto how many CPUs: ``stylekit._fork`` decides it
alone, for the training worker and for the split input builds alike."""

from __future__ import annotations

import os
import warnings

import pytest

from stylekit import _fork
from stylekit.contrastive import (
    ContrastivePair,
    TrainConfig,
    UntrainedPairs,
    build_pairs,
    train,
)
from stylekit.corpus import from_sources
from stylekit.nn import CodeTower
from test_contrastive import (
    THREE_FUNCS,
    failing_call,
    forks_on,
    inputs_as_bytes,
    no_child_left,
    split_batch,
    stage_sources,
    tiny_pairs,
)


@pytest.mark.parametrize("blas, cpus, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({}, 2, False),                              # OpenBLAS default: one per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),   # one CPU
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, True),
    ({"OPENBLAS_NUM_THREADS": "8"}, 4, False),
    ({"OMP_NUM_THREADS": "1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, False),   # unset to OpenBLAS
    ({"OPENBLAS_NUM_THREADS": "one"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1abc"}, 2, True),  # read as C's atoi reads it
    ({"OPENBLAS_NUM_THREADS": "+1"}, 2, True),
    ({"OPENBLAS_NUM_THREADS": "²"}, 2, False),    # a digit to str.isdigit, not to atoi
])
def test_towers_overlap_only_where_both_blas_pools_fit(monkeypatch, blas, cpus, expected):
    for var in _fork._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _fork.overlap_towers() is expected


def on_cpus(monkeypatch, cpus):
    """A process that may run on ``cpus`` CPUs, with one OpenBLAS thread, so
    that the towers overlap wherever it may fork onto two or more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def run_everything(tmp_path, name):
    """``_pair_inputs`` and ``build_pairs`` of batches the split fills, and a
    ``train`` call: their results, the checkpoint's bytes, and the pids the
    code tower's forward ran in (a file, which a worker's writes reach)."""
    batch, corp, pairs = split_batch(), from_sources(stage_sources()), tiny_pairs()
    ran_in, path = tmp_path / f"{name}.pids", tmp_path / f"{name}.ckpt"
    original = CodeTower.forward

    def recorded(self, *args):
        with ran_in.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "SPLIT_MIN_TEXTS", 8)
        pipes = failing_call(mp, "pipe")
        inputs = inputs_as_bytes(CodeTower(seed=1, hash_seed=5), batch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got_pairs = build_pairs(corp, seed=3, max_pairs_per_file=2)
        mp.setattr(CodeTower, "forward", recorded)
        with pytest.warns(UntrainedPairs):
            train(pairs, TrainConfig(epochs=2, batch_size=4, seed=11), checkpoint_path=path)
    assert no_child_left()
    return {"inputs": inputs, "pairs": (got_pairs, [str(w.message) for w in caught]),
            "checkpoint": path.read_bytes(), "pids": set(ran_in.read_text().split()),
            "pipes": len(pipes)}


def test_without_os_fork_nothing_forks_and_every_result_is_the_serial_one(monkeypatch,
                                                                          tmp_path):
    """On 3 CPUs without ``os.fork``, ``usable_cpus`` alone keeps every stage
    in the caller: the split batches build as on one CPU, ``train`` takes
    the in-turn schedule, and its checkpoint is the overlapped run's."""
    on_cpus(monkeypatch, 1)
    serial = run_everything(tmp_path, "serial")
    on_cpus(monkeypatch, 3)
    overlapped = run_everything(tmp_path, "overlapped")
    assert overlapped["pipes"] > 0 and str(os.getpid()) not in overlapped["pids"]
    monkeypatch.delattr(os, "fork")
    no_fork = run_everything(tmp_path, "no_fork")
    assert no_fork["pipes"] == 0
    assert no_fork["pids"] == {str(os.getpid())}
    assert no_fork["inputs"] == serial["inputs"]
    assert no_fork["pairs"] == serial["pairs"]
    assert no_fork["checkpoint"] == overlapped["checkpoint"] == serial["checkpoint"]


def test_a_column_shorter_than_the_slice_count_builds_as_on_one_cpu(monkeypatch):
    """Pairs that all share one anchor, on 3 CPUs: the anchor column holds
    one text and the positives the rest, so the caller's anchor slice and
    the first child's are empty. Ids, slots, rows and warnings are those of
    a serial run."""
    got = []
    for cpus in (1, 3):
        forks = forks_on(monkeypatch, cpus)
        n = 3 * _fork.SPLIT_MIN_TEXTS // 2
        batch = [ContrastivePair(f"one:{i}", "one", THREE_FUNCS,
                                 f"def f{i}(a):\n    return a + {i}\n") for i in range(n)]
        batch.append(ContrastivePair("sup:0", "one", THREE_FUNCS, "x = ²\n"))
        got.append(inputs_as_bytes(CodeTower(seed=1, hash_seed=5), batch))
        assert no_child_left()
        assert len(forks) == (2 if cpus == 3 else 0)
    assert got[0] == got[1]
    ids, slot, _, warned = got[0]
    assert len(ids) == n and set(slot) == {0}
    assert [message for _, message in warned] == [
        "pair 'sup:0': positive: InvalidCharacter: invalid character '²' (U+00B2) on line 1; "
        "skipped"]
