"""Relaxed concurrent data structures built on two-choice load balancing.

Modules:
  rng          seeded per-thread streams and buffered draws
  balance      sequential allocation processes and potential instrumentation
  adversary    deterministic simulator of the asynchronous two-choice process
  multicounter thread-safe sharded approximate counter
  multiqueue   thread-safe relaxed queue over m timestamp-ordered queues
  dlin         relaxation-cost recorder for concurrent histories
  stm          toy word-based transactional memory with a pluggable clock
  timed        timed worker threads that return their tallies; usable CPUs
  csvfile      the one CSV writer: comment lines, header, columns
  cli          experiment driver writing CSV artifacts
"""

__version__ = "0.1.0"
