// Package core implements the STM runtime and the six concurrency-control
// engines evaluated in "Remote Invalidation: Optimizing the Critical Path of
// Memory Transactions" (Hassan, Palmieri, Ravindran, IPDPS 2014):
//
//   - Mutex: a coarse global-lock baseline (the paper's Figure 1(b)).
//   - NOrec: value-based incremental validation over a single global sequence
//     lock (Dalessandro et al., PPoPP 2010) — the paper's validation-based
//     competitor.
//   - InvalSTM: commit-time invalidation (Gottschlich et al., CGO 2010), the
//     paper's Algorithm 1 — the non-remote invalidation competitor.
//   - RInvalV1: remote commit. Clients publish commit requests in cache-padded
//     slots and spin locally; a dedicated commit-server executes commits,
//     removing all CAS operations and shared-lock spinning (Algorithm 2).
//   - RInvalV2: V1 plus K invalidation-servers that run the invalidation scan
//     in parallel with the commit-server's write-back (Algorithm 3).
//   - RInvalV3: V2 plus step-ahead commit — the commit-server may run up to
//     StepsAhead commits past the slowest invalidation-server, as long as the
//     committer's own invalidation-server has caught up (Algorithm 4).
//
// V2 and V3 keep their invalidation partitions only where the
// invalidation-servers get Ps of their own (GOMAXPROCS ≥ 4 at New); below
// that they run V1's inline scan (partitionsPerStream).
//
// All engines share one object model: transactional state lives in Vars
// (boxed values published through an atomic pointer), transactions buffer
// writes (lazy versioning) and publish them at commit, and consistency is
// anchored on a global even/odd timestamp (sequence lock). The invalidation
// engines additionally give every registered thread a cache-padded slot
// holding its status word and an atomically readable read bloom filter.
//
// # Opacity
//
// Every engine guarantees opacity. For NOrec this is the classic argument:
// reads are accepted only when the global timestamp is even and unchanged
// across the value load, and the whole read set is revalidated (by value)
// whenever the timestamp moved. For the invalidation engines the argument is:
//
//  1. A reader publishes its read-filter bit *before* its final timestamp
//     stability check. Go atomics are sequentially consistent, so if the
//     reader did not observe a committer's timestamp transition, the
//     committer's subsequent filter scan observes the reader's bit.
//  2. A read is accepted only when the timestamp is even (no write-back in
//     progress) and — for V2/V3 with partitions — equal to the reader's own
//     invalidation-server timestamp, i.e. every prior commit's invalidation
//     pass over this reader's slot has completed (without partitions every
//     commit dooms inline before its write-back). Hence if any prior commit
//     conflicted with this transaction, its status word is already
//     INVALIDATED when the read checks it, and the transaction aborts before
//     observing a state newer than its earlier reads.
//
// # Epoch-guarded invalidation
//
// Status words pack a per-slot epoch with the status bits. Servers doom a
// transaction with a CAS against the exact word they observed, so an
// invalidation aimed at a finished transaction can never kill its successor.
// The reverse race (a server intersecting a freshly cleared filter) can only
// suppress a doom that is no longer needed, or doom spuriously — both safe.
package core
