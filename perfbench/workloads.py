"""Workload definitions: suite job lists and the CLI query universe.

Every workload is a closed loop with one client in one process; each suite
job runs with jobs=1, because with more jobs thm55 starts a process pool
that the tracer cannot see.  The seed only permutes the job order or draws
the query stream; the program receives the generated SuiteSpec fields and
argv lists and nothing else.  The weights and pairings below were chosen
so that the per-request percentiles do not sit on a gap between clusters
of request times, where a change of order would move them.
"""

import random

# (job id, SuiteSpec fields).  Each job also runs with the suite's
# documented mutation, which must be detected.
SYMBOLIC = [
    ("eq22", {"suite": "eq22", "bounds": {"p_max": 1, "m_max": 1}}),
    ("thm55", {"suite": "thm55", "surface": "p2", "bounds": {"pq_max": 5}}),
    ("thm57", {"suite": "thm57", "bounds": {"pq_max": 4}}),
    ("lem61", {"suite": "lem61"}),
    ("lem53", {"suite": "lem53"}),
    ("rmk43", {"suite": "rmk43"}),
]

ACTION = [
    ("heis-p2", {"suite": "heis", "surface": "p2", "bounds": {"m_max": 2}}),
    ("heis-p1xp1", {"suite": "heis", "surface": "p1xp1",
                    "bounds": {"m_max": 2}}),
    ("heis-k3", {"suite": "heis", "surface": "k3", "bounds": {"m_max": 2}}),
    ("heis-abelian", {"suite": "heis", "surface": "abelian",
                      "bounds": {"m_max": 2}}),
    ("thm31-p1xp1", {"suite": "thm31", "surface": "p1xp1"}),
    ("lem32-p1xp1", {"suite": "lem32", "surface": "p1xp1"}),
]

SUITE_WORKLOADS = {"symbolic": SYMBOLIC, "action": ACTION}

# The query universe: (request id, argv, draw weight).  Every request
# exits 0.  The weights are synthetic, not taken from real traffic: they
# make a few cheap requests hot, and they are fixed, so the seed changes
# which repeats are drawn and their order, not the mix.  They were tuned
# for steady metrics, from warm latencies, so that the 50th and 90th
# percentiles fall inside the latency cluster of one heavily drawn request
# (cheap p2/k3 requests at p50, the odd-class abelian character at p90)
# rather than on a gap between clusters.  The 23 cold first touches are
# under a tenth of the stream, so they set run_cpu_s, not the p90.
QUERIES = [
    ("omega-a", "omega --p 2 --q 1 --m 1 --n 1", 10),
    ("omega-b", "omega --p 3 --q 2 --m -2 --n 1", 4),
    ("chern-p2-a", "chern --k 1 --n 3 --surface p2 --class x", 12),
    ("chern-p2-b", "chern --k 2 --n 4 --surface p2 --class x", 4),
    ("chern-p1xp1", "chern --k 2 --n 4 --surface p1xp1 --class x", 6),
    ("chern-k3-u1", "chern --k 1 --n 3 --surface k3 --class u1", 10),
    ("chern-k3-x", "chern --k 2 --n 3 --surface k3 --class x", 4),
    ("chern-k3-unit", "chern --k 3 --n 5 --surface k3 --class 1", 1),
    ("chern-abelian-t1", "chern --k 2 --n 3 --surface abelian --class t1",
     12),
    ("chern-abelian-t12", "chern --k 1 --n 3 --surface abelian --class t12",
     3),
    ("cup-k3", "cup --k 0 --k 0 --n 2 --surface k3 --class u1 --class u2",
     8),
    ("cup-p2", "cup --k 1 --k 1 --n 3 --surface p2 --class x", 6),
    ("cup-abelian",
     "cup --k 0 --k 1 --n 3 --surface abelian --class t1 --class t2", 2),
    ("cup-p1xp1", "cup --k 1 --k 2 --n 4 --surface p1xp1 --class x", 3),
    ("grid-p2", "intersect --grid --n 3 --surface p2 --format csv", 3),
    ("grid-k3", "intersect --grid --n 4 --surface k3 --format csv", 1),
    ("grid-p1xp1", "intersect --grid --n 4 --surface p1xp1", 1),
    ("grid-abelian", "intersect --grid --n 3 --surface abelian", 1),
    ("dump-p2-J", "dump --op J(2,-1;x) --surface p2 --cutoff 6", 5),
    ("dump-k3-L", "dump --op L(1;x) --surface k3 --cutoff 4", 4),
    ("dump-p1xp1-G", "dump --op G(2;x) --surface p1xp1 --cutoff 5", 3),
    ("dump-p2-a", "dump --op a(-2;H) --surface p2 --cutoff 6", 6),
    ("dump-abelian-J", "dump --op J(3,0;t1) --surface abelian --cutoff 4",
     1),
]

QUERY_COUNT = 400


def suite_requests(workload, seed):
    """The workload's requests in seeded order.

    A request is one job run unmutated and mutated back to back, in
    seeded order: a check that the suite passes and that its mutation is
    caught.  Keeping the pair together keeps the time of a request from
    depending on whether the other half of the pair filled the shared
    caches first.  Returns (job id, SuiteSpec fields, mutated flags)
    triples.
    """
    rng = random.Random(seed)
    requests = []
    for jid, fields in SUITE_WORKLOADS[workload]:
        flags = [False, True]
        rng.shuffle(flags)
        requests.append((jid, fields, flags))
    rng.shuffle(requests)
    return requests


def query_stream(seed, count=QUERY_COUNT):
    """Seeded request stream: every request once, then weighted repeats.

    Touching every request once keeps the cold work the same for every
    seed; the weighted repeats are cache hits.  Returns (request id, argv)
    pairs.
    """
    rng = random.Random(seed)
    ids = [qid for qid, _, _ in QUERIES]
    weights = [w for _, _, w in QUERIES]
    stream = ids + rng.choices(ids, weights, k=count - len(ids))
    rng.shuffle(stream)
    argv = {qid: text.split() for qid, text, _ in QUERIES}
    return [(qid, argv[qid]) for qid in stream]
