"""Suppression fixture: every finding here carries a pragma."""

import random


def jittered(job):
    noise = random.random()  # statcheck: disable=DET001 -- display-only jitter, never simulated
    result = job.run()
    return result, noise + random.random()  # statcheck: disable=all -- display-only jitter


def best_effort(job):
    try:
        return job.run()
    except:  # statcheck: disable=PY002 -- any failure means "no result" by design
        return None
