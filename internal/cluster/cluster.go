// Package cluster promotes the single-process simulation service into a
// fault-tolerant coordinator/worker cluster. The coordinator is a
// serve.Server whose grid executor is remote: it shards each grid
// job into (cell, rep-range) work units — addressable from nothing
// but the base seed and the cell's grid coordinates, because every
// repetition's rng stream is a counter-based pure function of
// (CellSeed, rep) — dispatches them over HTTP/JSON to registered
// workers, and folds the returned stats.Shard payloads with the exact
// order-independent merge algebra. A 10-node answer is therefore
// byte-identical to a 1-node answer, whatever the failure history.
//
// Node failure is the common case, not the exception. The load-bearing
// robustness properties, each pinned by the cluster suite and the
// kill-tolerant distributed soak:
//
//   - Leases, not trust: a dispatched unit is owned by its worker only
//     for the lease window (the dispatch context deadline, LeaseTimeout
//     per unit the dispatch carries). A worker that dies, hangs or
//     loses connectivity simply fails the dispatch, and each of its
//     units is re-dispatched with capped exponential backoff and
//     deterministic jitter (the serve retry law).
//   - Heartbeats: the coordinator probes every registered worker; after
//     HeartbeatMisses consecutive failures the worker is marked dead and
//     stops receiving units (it resurrects on the next successful probe
//     or registration — re-registration is idempotent). A dispatch that
//     cannot connect takes the worker out of dispatch until its next
//     successful probe, so a worker that died between heartbeats does
//     not keep attracting fresh units before it is marked dead.
//   - Hedged dispatch: a dispatch outstanding on exactly one worker for
//     more than HedgeAfter per unit it carries is duplicated to a
//     different worker. Responses
//     dedup first-writer-wins by (cellSeed, start, end): the first
//     structurally valid payload is banked, every later arrival is
//     counted and dropped — a rep can never merge twice.
//   - Byzantine tolerance: every incoming shard is validated against the
//     stats codec and must claim exactly Trials() == End-Start; anything
//     suspect is rejected and that unit alone re-dispatched — its
//     siblings in the same reply still bank. A malicious or
//     corrupted worker can cost time, never correctness.
//   - Crash-safe coordination: with a journal configured on the server,
//     every banked shard is durable (through its OnShard hook), and a
//     coordinator restart resumes each unfinished job from its banked
//     shards — merging checkpoints and dispatching only the gaps — with
//     a bit-identical final table.
//
// Everything job-shaped — admission, deadlines, cancellation, the
// journal, the content-addressed result cache, /v1/jobs — is the
// embedded server's; this package adds membership and dispatch.
package cluster

import (
	"strings"

	"repro/internal/store"
)

// ProtocolVersion is the cluster wire-protocol version. Coordinator and
// worker exchange it (alongside the build version) at registration and
// on every unit request; any mismatch is rejected up front — skewed
// payloads must never merge. Version 2 made every dispatch a run of
// units (UnitRequest.More) answered by one result per unit.
const ProtocolVersion = 2

// RegisterRequest is a worker's registration handshake, as posted to
// POST /cluster/v1/register on the coordinator.
type RegisterRequest struct {
	// Addr is the worker's base URL as reachable from the coordinator.
	Addr string `json:"addr"`
	// Proto is the worker's ProtocolVersion.
	Proto int `json:"proto"`
	// Version is the worker's build version (cli.Version()): two
	// processes agree on it iff they run the same binary build, which is
	// the cheapest sufficient proof their simulation bits agree.
	Version string `json:"version"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	ID      string `json:"id"`
	Proto   int    `json:"proto"`
	Version string `json:"version"`
}

// Hello is a worker's health-probe response. The coordinator reads it
// at registration and on every heartbeat: Slots is the worker's own
// concurrent-dispatch bound (WorkerConfig.MaxInflight), the only
// capacity figure the coordinator dispatches within.
type Hello struct {
	Proto   int    `json:"proto"`
	Version string `json:"version"`
	Slots   int    `json:"slots"`
}

// UnitAddr addresses one (cell, rep-range) work unit within a job: the
// cell by its grid coordinates, the repetitions by their range.
type UnitAddr struct {
	Col    int     `json:"col"` // scheme column index into Spec.Schemes()
	U      float64 `json:"u"`
	Lambda float64 `json:"lambda"`
	Start  int     `json:"start"` // rep range [Start, End)
	End    int     `json:"end"`
}

// UnitRequest is one dispatch, as posted to POST /cluster/v1/execute on
// a worker: a run of work units of one job. The embedded UnitAddr is
// the first unit and More the rest, all sharing the job fields. A cell
// is addressed by its grid coordinates plus the base seed — the worker
// re-derives the cell seed and the per-rep streams, so the payload
// carries no state, only addresses into the deterministic computation.
// The reply is a JSON array with one UnitResult per unit, in request
// order.
type UnitRequest struct {
	Proto   int    `json:"proto"`
	Version string `json:"version"`
	Table   string `json:"table"`
	UnitAddr
	Seed uint64 `json:"seed"` // base seed of the job
	// Store is the job's tiered checkpoint store configuration, forwarded
	// verbatim so the worker simulates the exact cell semantics the
	// coordinator will merge. Nil keeps the free infinite store.
	Store *store.Config `json:"store,omitempty"`
	// More lists the dispatch's further units, in order.
	More []UnitAddr `json:"more,omitempty"`
}

// Units returns the request's units in order: the first, then More.
func (r *UnitRequest) Units() []UnitAddr {
	return append([]UnitAddr{r.UnitAddr}, r.More...)
}

// UnitResult is a worker's answer for one unit: the canonical
// stats.Shard bytes of exactly the unit's repetitions, echoing the
// identity the coordinator dedups and validates by.
type UnitResult struct {
	CellSeed uint64 `json:"cell_seed"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Data     []byte `json:"data"`
	// Auth is the hex HMAC-SHA256 tag over (cell seed, rep range, data)
	// under the cluster's shared key. Empty when the worker holds no key;
	// a keyed coordinator rejects such shards before banking.
	Auth string `json:"auth,omitempty"`
}

// normalizeAddr canonicalises a worker address into a base URL.
func normalizeAddr(addr string) string {
	addr = strings.TrimSuffix(strings.TrimSpace(addr), "/")
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

type errorBody struct {
	Error string `json:"error"`
}
