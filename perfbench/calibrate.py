"""A fixed reference job, run as a child process next to each benchmarked
command, to gauge how fast the machine is at that moment.

It does the same kinds of work as `sitegame` (interpreter start, numpy
import, JSON parse and encode of float-heavy documents, pure-Python loops
over tuples and dicts, text formatting) on data that never changes, so its
wall time moves only with the machine. ``run.py`` divides each command's
times by the reference job's time measured beside it.

Run it alone with ``python3 perfbench/calibrate.py``; it prints a checksum.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

PLAYERS, STRATEGIES = 4, 7  # 2,401 profiles per document
ROUNDS = 6


def job() -> int:
    rng = np.random.default_rng(0)
    shape = (STRATEGIES,) * PLAYERS
    checksum = 0
    for _ in range(ROUNDS):
        values = rng.uniform(-10.0, 10.0, size=shape + (PLAYERS,))
        doc = {"shape": list(shape), "payoffs": values.reshape(-1, PLAYERS).tolist()}
        parsed = json.loads(json.dumps(doc, indent=2))
        payoffs = dict(zip(itertools.product(range(STRATEGIES), repeat=PLAYERS), map(tuple, parsed["payoffs"])))
        # Pure-Python best-response scan, as in the solvers.
        nash = 0
        for profile, payoff in payoffs.items():
            stable = True
            for i in range(PLAYERS):
                for k in range(STRATEGIES):
                    deviation = profile[:i] + (k,) + profile[i + 1 :]
                    if payoffs[deviation][i] > payoff[i]:
                        stable = False
                        break
                if not stable:
                    break
            nash += stable
        lines = [f"  {profile} : payoffs {', '.join(f'{v:.6g}' for v in payoff)}" for profile, payoff in payoffs.items()]
        checksum += nash + len("\n".join(lines)) + int(np.abs(values).sum())
    return checksum


if __name__ == "__main__":
    print(job())
