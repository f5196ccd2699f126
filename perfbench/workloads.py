"""The benchmark's workloads: the CLI argv of every operation it times.

Each workload runs three kinds of operation:

* solve: `param` or `gen` queries, computed with `--no-cache`;
* verify: `verify` of a stored witness record from `golden/records`;
* replay: a `param ... --witness` query answered from a private cache that
  set-up fills with the stored records through `ResultCache.put`.

A run of `RUN_SECONDS` runs each solve and verify operation the number of
times given here, in an order the seed shuffles; replays are spread between
them and timed one by one.
"""

from __future__ import annotations

DET_QUERIES = [
    ["param", "det", "hypercube", "-n", "7"],
    ["param", "det", "hypercube", "-n", "8"],
    ["param", "det", "folded", "-n", "6"],
    ["param", "det", "folded", "-n", "7"],
    ["param", "det", "enhanced", "-n", "7", "-k", "3"],
    ["param", "det", "augmented", "-n", "7"],
    ["param", "det", "locally-twisted", "-n", "8"],
]

ENUM_QUERIES = [
    ["param", "dist", "power", "-n", "6", "-k", "2"],
    ["param", "dist", "hamming", "-n", "4", "-m", "3"],
    ["param", "cost", "hypercube", "-n", "5"],
    ["param", "cost", "folded", "-n", "4"],
    ["param", "dist", "enhanced", "-n", "4", "-k", "2"],
]

# Its verify repeats a ~10 s closure of the 322,560-element group, which
# would make the verify side of every workload one query.
NOT_VERIFIED = ["param", "dist", "power", "-n", "6", "-k", "2"]

TRANSITIVITY_QUERIES = [
    ["param", "transitivity", "hypercube", "-n", "9"],
    ["param", "transitivity", "folded", "-n", "8"],
    ["param", "transitivity", "augmented", "-n", "8"],
    ["param", "transitivity", "locally-twisted", "-n", "9"],
    ["param", "transitivity", "enhanced", "-n", "8", "-k", "4"],
    ["param", "transitivity", "power", "-n", "6", "-k", "2"],
    ["param", "transitivity", "hamming", "-n", "4", "-m", "3"],
]

GEN_QUERIES = [
    ["gen", "hypercube", "-n", "10", "--format", "graph6"],
    ["gen", "augmented", "-n", "10", "--format", "graph6"],
]

# Runs of each operation in a run of RUN_SECONDS; an operation's time is
# the median of its runs, which keeps a few seconds of a slow host out of
# it.  Chosen so that a run stays under about 45 s: det-structured runs each
# query three times, Q_8 (about half its time) included, but FQ_7 once;
# certify runs transitivity on Q_9 and LTQ_9 three times and the rest five;
# enumerated-groups runs each query, 2-15 s and up to 850 MB, once.
RUN_SECONDS = 30
REPEATS = {
    "det-structured": {"param det folded -n 7": 1},
    "enumerated-groups": {},
    "certify": {"param transitivity hypercube -n 9": 3,
                "param transitivity locally-twisted -n 9": 3},
}
DEFAULT_REPEATS = {"det-structured": 3, "enumerated-groups": 1, "certify": 5}
# Most verifies take milliseconds; H(4,3)'s repeats a one-second closure.
VERIFY_REPEATS = {"det-structured": 5, "enumerated-groups": 9, "certify": 9}
SLOW_VERIFY_REPEATS = {"enumerated-groups": 1, "certify": 3}
SLOW_VERIFY = [["param", "dist", "hamming", "-n", "4", "-m", "3"]]

# Records whose witness the benchmark stores and checks.
WITNESS_QUERIES = DET_QUERIES + ENUM_QUERIES


def label(argv: list[str]) -> str:
    return " ".join(argv)


def record_name(argv: list[str]) -> str:
    """File name of the stored `--witness` record of a param query."""
    return "-".join(a.lstrip("-") for a in argv[1:]) + ".json"


def _solved(workload, queries):
    return [(q, REPEATS[workload].get(label(q), DEFAULT_REPEATS[workload])) for q in queries]


def _verified(workload, queries):
    return [(q, SLOW_VERIFY_REPEATS[workload] if q in SLOW_VERIFY
             else VERIFY_REPEATS[workload])
            for q in queries if q != NOT_VERIFIED]


# name -> (solve queries with their runs, verified records with their runs,
#          replayed records)
WORKLOADS = {
    "det-structured": (_solved("det-structured", DET_QUERIES),
                       _verified("det-structured", DET_QUERIES), DET_QUERIES),
    "enumerated-groups": (_solved("enumerated-groups", ENUM_QUERIES),
                          _verified("enumerated-groups", ENUM_QUERIES), ENUM_QUERIES),
    "certify": (_solved("certify", TRANSITIVITY_QUERIES + GEN_QUERIES),
                _verified("certify", WITNESS_QUERIES),
                [q for q in WITNESS_QUERIES if q != NOT_VERIFIED]),
}
