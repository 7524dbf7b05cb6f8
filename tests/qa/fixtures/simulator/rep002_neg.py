"""REP002 negative: time flows in from the simulated clock."""


def _stamp(now: float) -> float:
    return now
