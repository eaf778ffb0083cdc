"""Time each layer of a run at the shapes of the two gated workloads.

    python3 scripts/time_layers.py [--repeat K] [--quick]

Runs on one thread (the BLAS and OpenMP thread variables are set to 1
before numpy loads), on the ``src`` of this checkout, at the chunk and
block sizes that ``streams`` gives one worker, and prints one JSON
object: per shape, the best of K timings of

* the draws: ``uniforms`` and the ``ndtri`` transform (``normals`` less
  ``uniforms``), in ns per value, over a chunk;
* the per-row layers: ``auth_encode_batch`` and
  ``mmse_targeted_attack_batch`` over a chunk, ``decode_batch`` and
  ``detect_batch`` over a block of received rows, in µs per row;
* the set-up: ``make_random_gaussian_code``, ``construct_overlay``,
  ``verify_overlay`` and ``inject_noise``, in ms.

The shapes are those of ``genuine_cli`` (n = 256, M = 64, counts [8, 8])
and ``large_codebook`` (n = 600, M = 4096, counts [64, 64]); ``--quick``
puts tiny codes in their place, to check that the script runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads its BLAS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from awgnauth import (  # noqa: E402
    LevelSet, auth_encode_batch, construct_overlay, detect_batch,
    inject_noise, make_random_gaussian_code, mmse_attack_terms,
    mmse_targeted_attack_batch, verify_overlay)
from awgnauth.streams import (  # noqa: E402
    TILE_VALUES, Role, block_rows, chunk_rows, draw_buffer, normals, share,
    uniforms)

# (n, messages, counts per level, code seed) of each workload's code; the
# rest as large_codebook sets it: levels {0, 1/2}, gamma 3/4, rho_delta
# 1, delta 0.1, rho_dec 0.1 and rho_adv 0.01
SHAPES = {"genuine_cli": (256, 64, [8, 8], 0),
          "large_codebook": (600, 4096, [64, 64], 7)}
QUICK = {"genuine_cli": (60, 6, [3, 2], 0),
         "large_codebook": (64, 16, [4, 4], 7)}
RHO_DEC, RHO_ADV = 0.1, 0.01


def best(repeat: int, call: Callable[[], Any]) -> float:
    """The least wall time, in seconds, of ``repeat`` calls of ``call``."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def time_shape(n: int, messages: int, counts: list[int], seed: int,
               repeat: int) -> dict[str, Any]:
    levels = LevelSet((0.0, 0.5))
    setup = {"make_random_gaussian_code": best(repeat, lambda: (
        make_random_gaussian_code(n, messages, 1.0, seed)))}
    base = make_random_gaussian_code(n, messages, 1.0, seed)
    setup["construct_overlay"] = best(repeat, lambda: construct_overlay(
        n, levels, 0.75, counts_per_level=counts, seed=seed))
    overlay = construct_overlay(n, levels, 0.75, counts_per_level=counts,
                                seed=seed)
    setup["verify_overlay"] = best(repeat, lambda: verify_overlay(overlay))
    setup["inject_noise"] = best(repeat, lambda: inject_noise(
        base, overlay, 1.0, 0.1, seed))
    code = inject_noise(base, overlay, 1.0, 0.1, seed)

    chunk, block = chunk_rows(n), block_rows(n, messages)
    buf = draw_buffer(block, n)
    draws = {"uniforms": best(repeat, lambda: uniforms(
        seed, Role.DECODER, 0, chunk, n, out=buf[:chunk]))}
    draws["ndtri"] = best(repeat, lambda: normals(
        seed, Role.DECODER, 0, chunk, n,
        out=buf[:chunk])) - draws["uniforms"]

    ids = np.random.default_rng(seed).integers(0, messages, block)
    unit = normals(seed, Role.DELTA, 0, block, n)
    xs, scratch, ys = (np.empty((block, n)) for _ in range(3))
    received = auth_encode_batch(code, ids, unit, out=(xs, scratch, ys))
    received += math.sqrt(RHO_DEC) * normals(seed, Role.DECODER, 0, block, n)
    decoded = code.base.decode_batch(received)
    terms = mmse_attack_terms(code, 0, 1, RHO_ADV)
    out = tuple(a[:chunk] for a in (xs, scratch, ys))
    tile = share(TILE_VALUES, 1)
    rows = {"auth_encode_batch": best(repeat, lambda: auth_encode_batch(
              code, ids[:chunk], unit[:chunk], out=out)) / chunk,
          "mmse_targeted_attack_batch": best(repeat, lambda: (
              mmse_targeted_attack_batch(received[:chunk], terms,
                                         out=xs[:chunk]))) / chunk,
          "decode_batch": best(repeat, lambda: code.base.decode_batch(
              received, tile=tile)) / block,
          "detect_batch": best(repeat, lambda: detect_batch(
              code, received, decoded, RHO_DEC)) / block}
    return {"n": n, "messages": messages, "counts": counts,
            "chunk_rows": chunk, "block_rows": block,
            "ns_per_value": {k: v / (chunk * n) * 1e9
                             for k, v in draws.items()},
            "us_per_row": {k: v * 1e6 for k, v in rows.items()},
            "ms": {k: v * 1e3 for k, v in setup.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="timings per layer, of which the best is kept")
    ap.add_argument("--quick", action="store_true",
                    help="tiny codes in place of the workloads' shapes")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    shapes = QUICK if args.quick else SHAPES
    json.dump({"repeat": args.repeat, "quick": args.quick, "threads": 1,
               "shapes": {name: time_shape(*shape, args.repeat)
                          for name, shape in shapes.items()}},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
