"""The labelled baselines the paper's serving design is compared against.

None of these is a serving path: the cost model never prices them, so
``auto`` never picks them.  Each stays runnable by name
(``Database.query(..., strategy=...)``) for experiments E2, E3 and E8,
and stays differential-tested against the reference evaluator.

* :mod:`repro.baselines.structural_join` — the stack-tree binary join
  (Al-Khalifa et al., ICDE 2002) and the join-per-edge pattern matcher
  (``structural-join``),
* :mod:`repro.baselines.pathstack` — the PathStack holistic path join
  (``pathstack``),
* :mod:`repro.baselines.twigstack` — the TwigStack holistic twig join
  (Bruno et al., SIGMOD 2002; ``twigstack``),
* :mod:`repro.baselines.navigational` — the node-at-a-time traversal
  standing in for the commercial native system of the paper's
  experiments (``navigational``).
"""
