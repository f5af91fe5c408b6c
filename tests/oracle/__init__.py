"""A definitional test oracle for detection, discovery and repair.

:mod:`oracle.definitions` restates the paper's definitions literally
over plain dict rows; the ``test_oracle_*`` suites drive the engine's
detectors, discovery and repairs on tiny hypothesis-generated relations
and compare their results with it.
"""
