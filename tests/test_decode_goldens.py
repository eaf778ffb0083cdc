"""Recorded decode outputs: ``BaseCode.decode_batch`` must keep returning,
bit for bit, the ids recorded in ``decode_goldens.json``.

Each case is one code and one family of received rows; the file holds
the sha256 of the decoded ids (int64 bytes) per case.  A change to the
decode that alters any id fails here.  To re-record on purpose (and say
why in ``CHANGES.md``)::

    PYTHONPATH=src python tests/test_decode_goldens.py --record
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from awgnauth.basecode import make_antipodal_code, make_random_gaussian_code

GOLDENS = Path(__file__).with_name("decode_goldens.json")

# name -> code builder
CODES = {
    "gauss_60_6": lambda: make_random_gaussian_code(60, 6, 1.0, seed=11),
    "gauss_61_42": lambda: make_random_gaussian_code(61, 42, 0.7, seed=3),
    "gauss_256_64_null": lambda: make_random_gaussian_code(
        256, 64, 1.0, seed=0, null_message=True),
    "gauss_600_4096": lambda: make_random_gaussian_code(600, 4096, 1.0,
                                                        seed=7),
    "antipodal_64": lambda: make_antipodal_code(64, 1.0),
}
NOISES = (0.1, 2.0, 50.0)   # noise variance per unit of code power
ROWS = 1000


def received_rows(code, family):
    """The rows of one case, drawn from a generator seeded by the family's
    place in ``FAMILIES``."""
    words, count = code.codewords, code.message_count
    rng = np.random.default_rng(FAMILIES.index(family))
    if family.startswith("noise_"):
        rho = float(family[len("noise_"):]) * code.power
        ys = words[rng.integers(0, count, ROWS)]
        return ys + math.sqrt(rho) * rng.standard_normal(ys.shape)
    if family == "midpoints":   # exact midpoints of distinct codewords
        a = rng.integers(0, count, 300)
        b = (a + rng.integers(1, count, 300)) % count
        return 0.5 * (words[a] + words[b])
    # rows beyond the float32 screen's range
    ys = words[rng.integers(0, count, 50)]
    ys = ys + math.sqrt(code.power) * rng.standard_normal(ys.shape)
    return ys * 2.0 ** 121


FAMILIES = [f"noise_{rho}" for rho in NOISES] + ["midpoints", "huge"]


def digests():
    """{code name: {row family: sha256 of the decoded ids}}."""
    out = {}
    for name, build in CODES.items():
        code = build()
        out[name] = {
            family: hashlib.sha256(np.ascontiguousarray(
                code.decode_batch(received_rows(code, family)),
                dtype=np.int64).tobytes()).hexdigest()
            for family in FAMILIES}
    return out


def test_decode_ids_equal_the_recorded_goldens():
    want = json.loads(GOLDENS.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_decode_goldens.py --record")
    GOLDENS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
