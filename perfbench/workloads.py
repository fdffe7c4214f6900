"""Job lists of the benchmark workloads and the checks on each job's stdout.

A job is one ``qwick`` command line.  Its stdout must match the sha256 pinned
in ``expected.json``, and where a closed form is known its term count (or
diagram summary) must equal a value computed here without qwick.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")
TERM = '"cov": '
HASH_STEP = 1 << 20


def telephone(n: int) -> int:
    """Involutions of n points: T(n) = T(n-1) + (n-1) T(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def odd_double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2))


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@functools.cache
def nonlinking_matchings(counts: tuple[int, ...]) -> int:
    """Perfect matchings that pair no two positions of the same block."""
    # the lowest unmatched position pairs with any unmatched position of
    # another block; what remains depends only on the per-block counts
    rest = list(counts)
    i = next((k for k, c in enumerate(rest) if c), None)
    if i is None:
        return 1
    rest[i] -= 1
    total = 0
    for j, c in enumerate(rest):
        if j != i and c:
            rest[j] -= 1
            total += c * nonlinking_matchings(tuple(rest))
            rest[j] += 1
    return total


@dataclass(frozen=True)
class Job:
    cmd: str
    terms: int | None = None
    summary: dict | None = None

    def argv(self) -> list[str]:
        return self.cmd.split()


# Jobs are kept to 5-30 ms so that a run holds hundreds of samples of each.
# The host this was built on runs pure Python at speeds up to about 1.8x
# apart, in phases of milliseconds to minutes; the fastest sample of a job
# is steady only if many samples are short enough to land wholly inside a
# fast phase.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "expand": (
        Job("wick to-normal --n 7", terms=telephone(7)),
        Job("wick to-wick --n 7", terms=telephone(7)),
        Job("moments --n 8", terms=odd_double_factorial(7)),
        # n is odd, so no diagram is complete
        Job("diagrams --n 7", summary={"total": telephone(7), "complete": 0}),
    ),
    "collapse": (
        Job("wick to-normal --n 8 --free", terms=fibonacci(9)),
        Job("moments --n 8 --free", terms=catalan(4)),
        Job("product --blocks 3,3,2 --expectation", terms=nonlinking_matchings((3, 3, 2))),
        Job(
            "product --blocks 2,2,2,2 --expectation",
            terms=nonlinking_matchings((2, 2, 2, 2)),
        ),
        Job("verify roundtrip --n 6"),
        Job("verify wick2-vs-recursion --n 6"),
    ),
    "oracle": (
        Job("verify c2.2 --n 3 --dim 3"),
        Job("verify c2.2 --n 4 --dim 2"),
        Job("verify t3.4 --blocks 1,2 --dim 2"),
        Job("verify t3.4 --blocks 1,2 --dim 3"),
        Job("verify gram --n 3 --dim 2"),
    ),
}


def job_list(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order the seed sets.

    The seed sets the order only.  Verify jobs keep qwick's own sample seed:
    the oracle's cost per sampled vector set varies by about a fifth from one
    sample seed to the next (zero coordinates shrink the Fock supports), which
    would swamp any code change in the figures.
    """
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def digest(chunks: list[str]) -> tuple[str, int]:
    """sha256 and UTF-8 length of the text written, hashed a slice at a time
    so the check holds no second copy of a large output."""
    h = hashlib.sha256()
    size = 0
    for chunk in chunks:
        for i in range(0, len(chunk), HASH_STEP):
            data = chunk[i : i + HASH_STEP].encode()
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


def count_text(chunks: list[str], needle: str) -> int:
    """Occurrences of needle in the concatenated chunks, without joining them."""
    total = sum(chunk.count(needle) for chunk in chunks)
    # an occurrence across a boundary lies inside the last len-1 characters
    # of one chunk plus the first len-1 of the next
    edge = len(needle) - 1
    for left, right in zip(chunks, chunks[1:]):
        total += (left[-edge:] + right[:edge]).count(needle)
    return total


def _summary(chunks: list[str]) -> dict | None:
    head = ""
    for chunk in chunks:
        head += chunk[: 4096 - len(head)]
        if len(head) >= 4096:
            break
    start = head.find('"summary": {')
    end = head.find("}", start)
    if start < 0 or end < 0:
        return None
    return json.loads(head[start + len('"summary": ') : end + 1])


def check(job: Job, chunks: list[str], rc: int, expected: dict) -> tuple[str, int, str | None]:
    """(sha256, bytes, error) for one job run; error is None when it passed."""
    sha, size = digest(chunks)
    if rc != 0:
        return sha, size, f"exit code {rc}"
    pinned = expected.get(job.cmd)
    if pinned is None or pinned["sha256"] != sha:
        return sha, size, "stdout digest mismatch"
    if job.terms is not None:
        got = count_text(chunks, TERM)
        if got != job.terms:
            return sha, size, f"{got} terms, closed form gives {job.terms}"
    if job.summary is not None:
        got = _summary(chunks)
        if got is None or any(got.get(k) != v for k, v in job.summary.items()):
            return sha, size, f"summary {got}, closed form gives {job.summary}"
    return sha, size, None
