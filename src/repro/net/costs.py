"""Every timing constant of the simulated testbed, with its fit note.

The paper's evaluation (§5) reports four quantities; each constant here
exists to reproduce one of them and says so. Changing a constant moves
the corresponding benchmark — the ablation benches rely on that.

Fit targets (from the paper):

* Table 1 — 38 ms local single-table query; 487.5 ms distributed
  2-table query on one server; 594 ms distributed 4-table query over
  two servers (the second server works in parallel, so the extra cost
  over 487.5 ms is RLS lookup + forwarding, not double the connects).
* Figure 6 — linear response growth, ~300 ms at 21 rows to ~700 ms at
  2551 rows: slope ≈ 0.158 ms/row from encode + transfer + merge.
* Figure 4 — source→warehouse ETL: extraction ≈ 1-6 s, loading ≈ 2-18 s
  over 0.4-208 kB; per-row INSERT round-trips dominate loading.
* Figure 5 — warehouse→mart materialization is several times slower
  per byte. Warehouse and marts alike load one INSERT per row; marts
  autocommit, so each row also pays the vendor commit plus
  ``AUTOCOMMIT_FLUSH_MS``.
"""

from __future__ import annotations

# -- the LAN of the testbed (two machines, 100 Mbps Ethernet) -------------------

LAN_BANDWIDTH_MBPS = 100.0
LAN_LATENCY_MS = 0.2
#: loopback for co-hosted client/server processes
LOCAL_LATENCY_MS = 0.02
LOCAL_BANDWIDTH_MBPS = 1000.0
#: how long a sender waits before declaring a partitioned peer dead
PARTITION_TIMEOUT_MS = 3000.0
#: WAN profile for the future-work wide-area experiments
WAN_BANDWIDTH_MBPS = 10.0
WAN_LATENCY_MS = 45.0

# -- Clarens web-service layer ---------------------------------------------------

#: fixed server-side cost to parse an XML-RPC envelope and dispatch a method
CLARENS_DISPATCH_MS = 6.0
#: one-time session establishment (challenge/response) per client-server pair
CLARENS_SESSION_MS = 18.0
#: envelope bytes added to every request/response message
XMLRPC_ENVELOPE_BYTES = 512
#: XML text inflation over the raw row payload
XMLRPC_INFLATION = 2.5
#: CPU cost to encode one result row into the XML response (server side)
XMLRPC_ENCODE_ROW_MS = 0.09
#: CPU cost to decode one row at the client
XMLRPC_DECODE_ROW_MS = 0.05

# -- data access service / Unity driver ---------------------------------------------

#: parsing the XSpec metadata of one participating database per query
#: ("all the related meta-data information has to be parsed", §4.2)
UNITY_METADATA_PARSE_MS = 80.0
#: query decomposition (planning) fixed cost
DECOMPOSE_MS = 6.0
#: merging/integrating rows from sub-queries into the final 2-D vector
MERGE_PER_ROW_MS = 0.03
#: building the hash table for a cross-database join, per build row
XJOIN_BUILD_ROW_MS = 0.012
#: probing, per probe row
XJOIN_PROBE_ROW_MS = 0.008

# -- POOL-RAL ---------------------------------------------------------------------------

#: one-time handle initialization (paper's wrapper method 1)
POOL_INIT_HANDLE_MS = 90.0
#: per-query overhead through the JNI wrapper + RAL dispatch
POOL_CALL_MS = 12.0

# -- federated query caching (opt-in; see repro.cache) -----------------------------------

#: serving a cached sub-result or remote answer from the in-memory store
#: (hash lookup + handing over already-decoded rows). Replaces connect +
#: execute + transfer + encode/decode on a warm hit; tune it to model
#: slower cache media.
CACHE_HIT_MS = 2.0
#: default freshness bound for cached remote answers (simulated ms) —
#: epoch bumps invalidate sooner, the TTL caps unseen remote changes
CACHE_REMOTE_TTL_MS = 30_000.0

# -- retries and circuit breakers (opt-in; see repro.resilience) ---------------------------

#: tries per backend touch, the first one included
RETRY_MAX_ATTEMPTS = 2
#: backoff before retry n is BASE * MULTIPLIER ** (n - 1), at most CAP
RETRY_BACKOFF_BASE_MS = 25.0
RETRY_BACKOFF_MULTIPLIER = 2.0
RETRY_BACKOFF_CAP_MS = 2_000.0
#: per-query budget: no backoff sleep starts that would end after it
#: (it bounds waiting, not work — failover may still move on)
RETRY_DEADLINE_MS = 20_000.0
#: consecutive failures that open a backend's breaker
BREAKER_FAILURE_THRESHOLD = 3
#: calls a half-open breaker lets through before the probe reports back
BREAKER_HALF_OPEN_PROBES = 1

# -- Replica Location Service ------------------------------------------------------------

#: server-side lookup in the table→URL map
RLS_LOOKUP_MS = 12.0
#: server-side cost to publish one table mapping
RLS_PUBLISH_MS = 2.0

# -- ETL / materialization (Figures 4 and 5) ------------------------------------------------

#: temp staging file throughput (the paper stages every transfer on disk)
DISK_WRITE_MBPS = 35.0
DISK_READ_MBPS = 55.0
#: serializing one row into the staging file's text format (the staging
#: double-handling the paper calls a bottleneck is per-row CPU, not disk)
STAGE_SERIALIZE_ROW_MS = 2.0
#: parsing one row back out of the staging file
STAGE_PARSE_ROW_MS = 1.5
#: transform CPU per row (denormalization / view flattening)
TRANSFORM_ROW_MS = 0.4
#: extraction stream-out per source row (result-set cursoring at the source)
EXTRACT_ROW_MS = 0.25
#: JDBC statement marshalling per INSERT during loads (parameter binding,
#: statement object churn — the era's drivers did this per row)
LOAD_MARSHAL_MS = 11.0
#: network round-trip per INSERT statement (request + ack at LAN latency)
LOAD_RTT_MS = 2 * LAN_LATENCY_MS
#: commit interval (rows) during warehouse loads (loader batches commits)
WAREHOUSE_COMMIT_EVERY = 100
#: autocommit adds a per-row log flush on top of the vendor commit cost
AUTOCOMMIT_FLUSH_MS = 14.0
#: opening/closing the stream for each SQL statement (paper counts this in)
STREAM_OPEN_CLOSE_MS = 30.0


def transfer_ms(nbytes: int, bandwidth_mbps: float, latency_ms: float) -> float:
    """Wire time for one message of ``nbytes`` over a link."""
    return latency_ms + (nbytes * 8.0) / (bandwidth_mbps * 1e6) * 1000.0
