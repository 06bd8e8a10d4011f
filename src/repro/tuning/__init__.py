"""Tile-size tuning as a service.

The paper's methodology picks, per (library, routine, N), the best tile size
among a fixed candidate set (§IV-A).  :mod:`repro.tuning.service` answers
that question for remote clients: a long-running asyncio server over the
same sweep executor and point cache the offline harness uses (single-flight
deduplication, batched cold-cell dispatch, shared SQLite store), so many
clients — and many server processes — answer tuning queries from one warm
corpus with the harness's own best-cell rule.
"""
