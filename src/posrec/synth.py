"""Synthetic interaction generators with controlled structure.

Three profiles:

    memorizable  every user walks the same item cycle from a per-user start,
                 so next = current + 1 (mod items); a working model can
                 memorize it outright.
    positional   two interleaved random walks, one per position parity, each
                 from its own random start; every increment is drawn fresh
                 from four values near `shift`. Every item is therefore one
                 bounded step from the item two back (its same-parity
                 predecessor) and independent of everything else, so the
                 whole sequence is predictable to within a four-way hedge --
                 but only by a model that can address "two positions back":
                 the item one back belongs to the other walk, and an
                 order-blind model cannot tell which history item is a
                 walk's tail, while sums of independent increments diffuse
                 too fast for votes from deeper history to line up.
    random       i.i.d. uniform items; the noise floor for sanity checks.

Generation is deterministic given (profile, sizes, seed).
"""

from __future__ import annotations

import numpy as np

from .data import DEFAULT_MIN_INTERACTIONS, InteractionDataset, _assemble, atomic_write
from .errors import UserError
from .numeric import Rng

PROFILES = ("memorizable", "positional", "random")

# walk increments are shift + one of these, re-drawn at every step; the
# spread keeps each step ambiguous (a four-way hedge) and stops multi-step
# offsets from concentrating anywhere a position-blind model could exploit
STEP_OFFSETS = (0, 4, 6, 10)
# the default base increment of the positional walks
SHIFT = 7


def generate_sequences(profile: str, users: int, items: int, seq_len: int,
                       seed: int, shift: int = SHIFT) -> list[np.ndarray]:
    if profile not in PROFILES:
        raise UserError(f"unknown profile '{profile}'; valid profiles: {', '.join(PROFILES)}")
    if users < 1 or items < 2 or seq_len < 2:
        raise UserError("need users >= 1, items >= 2, seq_len >= 2")
    rng = Rng(seed, 100)
    out = []
    for u in range(users):
        if profile == "memorizable":
            start = u % items
            seq = (start + np.arange(seq_len)) % items
        elif profile == "positional":
            seq = np.empty(seq_len, dtype=np.int64)
            offsets = np.asarray(STEP_OFFSETS, dtype=np.int64)
            for parity in (0, 1):
                start = int(rng.integers(0, items))
                phases = np.arange(parity, seq_len, 2)
                steps = shift + offsets[rng.integers(0, len(offsets), (phases.size,))]
                steps[0] = start  # first entry seeds the walk
                seq[phases] = np.cumsum(steps) % items
        else:
            seq = rng.integers(0, items, (seq_len,))
        out.append(seq.astype(np.int64))
    return out


def build_dataset(profile: str, users: int, items: int, seq_len: int,
                  seed: int, shift: int = SHIFT) -> InteractionDataset:
    """In-memory dataset; timestamps are the within-user positions."""
    seqs = generate_sequences(profile, users, items, seq_len, seed, shift=shift)
    rows = [(str(u), str(int(i)), float(t)) for u, seq in enumerate(seqs) for t, i in enumerate(seq)]
    return _assemble(rows, DEFAULT_MIN_INTERACTIONS, source=f"synth:{profile}")


def write_dataset(profile: str, users: int, items: int, seq_len: int,
                  seed: int, path: str, shift: int = SHIFT) -> None:
    """Write the generated log as a TSV; byte-identical for identical inputs."""
    seqs = generate_sequences(profile, users, items, seq_len, seed, shift=shift)
    with atomic_write(path) as fh:
        for u, seq in enumerate(seqs):
            for t, item in enumerate(seq):
                fh.write(f"{u}\t{int(item)}\t{t}\n")
