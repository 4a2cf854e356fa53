"""The paper-figure harness seeds its link-prediction splits the same
way in every process."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.harness import split_seed

SRC = str(Path(repro.__file__).resolve().parents[1])


def _split_seed_in_subprocess(hash_seed: str) -> int:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.bench.harness import split_seed; "
         "print(split_seed('wiki_sim', 3), hash('wiki_sim'))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    seed, salted = out.stdout.split()
    return int(seed), int(salted)


def test_split_seed_is_stable_across_hash_seeds():
    (a, hash_a), (b, hash_b) = (_split_seed_in_subprocess("1"),
                                _split_seed_in_subprocess("2"))
    assert hash_a != hash_b          # the salt really differed
    assert a == b == split_seed("wiki_sim", 3)


def test_split_seed_separates_datasets_and_seeds():
    assert split_seed("wiki_sim") != split_seed("blog_sim")
    assert split_seed("wiki_sim", 1) == split_seed("wiki_sim", 0) + 1
