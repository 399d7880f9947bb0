// Command simd is the long-running simulation service: an HTTP/JSON
// job API over the experiment-grid and mission engines, with a bounded
// admission queue, per-job deadlines, panic isolation, retry with
// backoff, graceful drain, and crash recovery from a durable job
// journal.
//
// Usage:
//
//	simd -listen :8080
//	simd -listen :8080 -queue 128 -workers 8 -deadline 2m -drain 15s
//	simd -journal simd.journal -journal-sync 64    # durability knobs
//	simd -chaos-panic 0.1 -chaos-straggle 0.2      # self-test under chaos
//
// Submit a Table 1a grid job and fetch it:
//
//	curl -s -XPOST localhost:8080/v1/jobs \
//	  -d '{"kind":"grid","table":"1a","reps":2000,"seed":2006,"deadline_ms":60000}'
//	curl -s localhost:8080/v1/jobs/job-000001
//
// Overload answers 503 with a Retry-After header (scaled to the live
// queue and observed job durations) instead of queueing unboundedly;
// /readyz flips before that point so balancers can back off first.
//
// Crash safety: with -journal set (the default), every accepted job,
// attempt, completed grid shard and terminal outcome is appended to a
// CRC-framed write-ahead journal. On boot the journal is replayed:
// finished jobs come back queryable, unfinished jobs re-enter the queue
// with their shard checkpoints and resume bit-identically. kill -9 at
// any point loses at most the progress since the last fsync batch —
// never an accepted job. SIGINT/SIGTERM triggers a graceful drain that
// ends with a journal_clean_shutdown record; a missing one on the next
// boot means the previous process crashed. A journal that cannot be
// opened or read at boot exits with code 3 (resource).
//
// A legacy drain manifest (-manifest, from older builds) is migrated
// into the journal once at boot and renamed *.migrated.
//
// Identical grid jobs (same table, reps, seed and store config) are
// answered from a content-addressed result cache in the 202 itself.
//
// Cluster mode (-role): the same binary also runs as a fault-tolerant
// coordinator/worker cluster for grid jobs.
//
//	simd -role=coordinator -listen :8080 -journal coord.journal
//	simd -role=worker -listen :8081 -coordinator http://localhost:8080
//
// The coordinator is the same job service — same queue, deadlines,
// journal, drain and HTTP API, configured by the same flags — whose
// grid jobs run remotely: it shards each into (cell, rep-range) units,
// dispatches them to registered workers with leases, heartbeats, hedged
// retries and re-dispatch on failure, and folds the returned shard
// payloads with the exact merge algebra (an N-node answer is
// byte-identical to a 1-node answer). Workers are stateless executors;
// kill one mid-unit and the coordinator re-dispatches the lease
// elsewhere.
//
// Observability: GET /metrics serves the Prometheus text exposition of
// the job ledger, journal counters, queue gauges, job-latency histogram
// and engine counters; GET /trace streams recent run-trace events as
// JSONL (?n= limits to the newest n); GET /debug/pprof/ serves the
// standard Go profiles. /statusz reports the same counters as /metrics
// — both are views of one registry — plus journal and recovery
// sections.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/storage"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("simd: ")
	err := run(os.Args[1:])
	if err != nil {
		log.Print(err)
	}
	os.Exit(cli.ExitCode(err))
}

func run(args []string) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", ":8080", "HTTP listen address")
		queue    = fs.Int("queue", 64, "single, coordinator: admission queue depth (beyond it, submissions shed with 503)")
		workers  = fs.Int("workers", 4, "single, coordinator: concurrent job executors")
		gridW    = fs.Int("grid-workers", 1, "single: worker-pool size inside one local grid job")
		deadline = fs.Duration("deadline", time.Minute, "single, coordinator: default per-job deadline")
		maxDl    = fs.Duration("max-deadline", 10*time.Minute, "single, coordinator: cap on client-requested deadlines")
		retries  = fs.Int("retries", 2, "single, coordinator: retry budget for transient failures")
		drain    = fs.Duration("drain", 10*time.Second, "single, coordinator: shutdown drain deadline")

		journalPath = fs.String("journal", "simd.journal", "single, coordinator: durable job-journal path; accepted jobs and grid shard checkpoints survive kill -9 and resume on the next boot (empty disables crash recovery)")
		journalSync = fs.Int("journal-sync", serve.DefaultSyncEvery, "single, coordinator: cap on progress records per journal fsync batch; batches otherwise group-commit on a 250ms timer (1 = fsync every record; admissions and terminal outcomes always fsync)")
		manifest    = fs.String("manifest", "simd-manifest.json", "single, coordinator: legacy unfinished-job manifest from pre-journal builds, migrated into the journal once and renamed *.migrated (empty disables)")

		chaosPanic    = fs.Float64("chaos-panic", 0, "single, coordinator: inject synthetic panics at this rate (self-test)")
		chaosError    = fs.Float64("chaos-error", 0, "single, coordinator: inject transient failures at this rate")
		chaosCancel   = fs.Float64("chaos-cancel", 0, "single, coordinator: inject spurious cancellations at this rate")
		chaosStraggle = fs.Float64("chaos-straggle", 0, "single, coordinator: inject straggler delays at this rate")
		chaosDelay    = fs.Duration("chaos-delay", 50*time.Millisecond, "single, coordinator: straggler delay")
		chaosSeed     = fs.Uint64("chaos-seed", 1, "single, coordinator: chaos draw seed")

		role        = fs.String("role", "single", "process role: single (self-contained daemon), coordinator (the same daemon, grid jobs sharded across workers) or worker (stateless unit executor)")
		coordURL    = fs.String("coordinator", "", "worker: coordinator base URL to register with (empty skips registration)")
		advertise   = fs.String("advertise", "", "worker: base URL the coordinator should dial back (default http://127.0.0.1:<listen port>)")
		maxInflight = fs.Int("max-inflight", 0, "worker: concurrent dispatch bound (a dispatch is a run of units), advertised to the coordinator, which dispatches within it (0 = GOMAXPROCS)")
		unitReps    = fs.Int("unit-reps", 0, "coordinator: repetitions per dispatched work unit (0 = default 2000)")
		hedgeAfter  = fs.Duration("hedge-after", 2*time.Second, "coordinator: per-unit hedge threshold; a dispatch of n units outstanding n times this long goes to a second worker too (<0 disables)")
		lease       = fs.Duration("lease", 15*time.Second, "coordinator: per-unit lease; a dispatch of n units has n times this as its deadline, and expiry re-dispatches")
		heartbeat   = fs.Duration("heartbeat", 500*time.Millisecond, "coordinator: worker heartbeat probe interval")
		clusterKey  = fs.String("cluster-key", "", "shared HMAC key for shard-result authentication; set identically on coordinator and workers (empty disables)")

		showVersion = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usagef("%v", err)
	}
	if *showVersion {
		fmt.Println(cli.Version())
		return nil
	}
	if armed, err := chaos.ArmKillFromEnv(); err != nil {
		return cli.Usagef("%v", err)
	} else if armed != "" {
		log.Printf("kill point armed: %s (the process will SIGKILL itself there)", armed)
	}

	switch *role {
	case "single", "coordinator":
		// the job service below; a coordinator adds the cluster executor
	case "worker":
		return runWorker(*listen, *coordURL, *advertise, *maxInflight, []byte(*clusterKey))
	default:
		return cli.Usagef("unknown -role %q (want single, coordinator or worker)", *role)
	}

	cfg := serve.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		GridWorkers:    *gridW,
		DefaultTimeout: *deadline,
		MaxTimeout:     *maxDl,
		MaxRetries:     *retries,
		Logf:           log.Printf,
	}

	if *journalPath != "" {
		store, err := storage.OpenFileLog(*journalPath)
		if err != nil {
			return cli.Resourcef("opening journal %s: %v", *journalPath, err)
		}
		// Replay first: it cuts a torn tail off the file before the
		// manifest migration or the server appends anything.
		rec, err := serve.ReplayFileLog(store)
		if err != nil {
			return cli.Resourcef("reading journal %s: %v", *journalPath, err)
		}
		jl := serve.NewJournal(store, *journalSync)
		defer jl.Close()
		if *manifest != "" {
			size := store.Size()
			if err := migrateManifest(jl, *manifest); err != nil {
				return err
			}
			if store.Size() != size {
				if rec, err = serve.ReplayFileLog(store); err != nil {
					return cli.Resourcef("reading journal %s: %v", *journalPath, err)
				}
			}
		}
		log.Printf("journal %s: %d records (%d corrupt skipped), %d jobs, %d to resume, clean_shutdown=%v",
			*journalPath, rec.Records, rec.Corrupt, len(rec.Jobs), rec.UnfinishedJobs(), rec.CleanShutdown)
		cfg.Journal = jl
		cfg.Recovery = rec
	}

	if *chaosPanic+*chaosError+*chaosCancel+*chaosStraggle > 0 {
		inj := chaos.New(chaos.Config{
			Seed:           *chaosSeed,
			PanicProb:      *chaosPanic,
			ErrorProb:      *chaosError,
			CancelProb:     *chaosCancel,
			CancelAfter:    *chaosDelay / 2,
			StragglerProb:  *chaosStraggle,
			StragglerDelay: *chaosDelay,
		})
		cfg.Intercept = inj.Intercept
		log.Printf("chaos injection enabled: panic=%g error=%g cancel=%g straggle=%g",
			*chaosPanic, *chaosError, *chaosCancel, *chaosStraggle)
	}

	var srv *serve.Server
	var handler http.Handler
	if *role == "coordinator" {
		coord := cluster.NewWithServer(cluster.Config{
			UnitReps:          *unitReps,
			HedgeAfter:        *hedgeAfter,
			LeaseTimeout:      *lease,
			HeartbeatInterval: *heartbeat,
			Key:               []byte(*clusterKey),
			Logf:              log.Printf,
		}, cfg)
		// After the drain below (or on a listen failure) this stops the
		// heartbeats; unfinished jobs resume from the journal.
		defer coord.Close()
		srv, handler = coord.Server(), coord.Handler()
	} else {
		srv = serve.New(cfg)
		handler = srv.Handler()
	}
	httpSrv := &http.Server{Addr: *listen, Handler: handler}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("%s listening on %s (queue %d, %d workers, %v default deadline)",
			*role, *listen, *queue, *workers, *deadline)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("received %v, draining (deadline %v)", got, *drain)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	m, err := srv.Shutdown(drainCtx)
	if err != nil {
		log.Printf("drain error: %v", err)
	}
	if len(m.Jobs) > 0 {
		log.Printf("%d jobs unfinished (drained=%v), resumable from the journal", len(m.Jobs), m.Drained)
	} else {
		log.Printf("drained cleanly")
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelHTTP()
	if herr := httpSrv.Shutdown(httpCtx); herr != nil && err == nil {
		err = herr
	}
	c := srv.Counters()
	log.Printf("final: accepted=%d shed=%d completed=%d failed=%d canceled=%d retries=%d panics=%d",
		c.Accepted, c.Shed, c.Completed, c.Failed, c.Canceled, c.Retries, c.Panics)
	return err
}

// migrateManifest replays a pre-journal drain manifest into the journal
// once: each unfinished job becomes an accepted record (journal replay
// deduplicates by ID, so a crash between append and rename is
// harmless), then the file is renamed *.migrated so it never replays
// again. A missing file is the normal case and free.
func migrateManifest(jl *serve.Journal, path string) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return cli.Resourcef("reading legacy manifest %s: %v", path, err)
	}
	var m serve.Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return cli.Resourcef("parsing legacy manifest %s: %v", path, err)
	}
	for _, e := range m.Jobs {
		if err := jl.AppendAccepted(e.ID, e.Spec); err != nil {
			return cli.Resourcef("migrating %s into the journal: %v", e.ID, err)
		}
		if e.Attempts > 0 {
			if err := jl.AppendAttempt(e.ID, e.Attempts); err != nil {
				return cli.Resourcef("migrating %s into the journal: %v", e.ID, err)
			}
		}
	}
	if err := os.Rename(path, path+".migrated"); err != nil {
		return cli.Resourcef("renaming migrated manifest %s: %v", path, err)
	}
	log.Printf("migrated %d unfinished jobs from legacy manifest %s (renamed to %s.migrated)",
		len(m.Jobs), path, path)
	return nil
}
