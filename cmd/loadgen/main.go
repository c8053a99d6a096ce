// Command loadgen replays a workload pattern against a running
// soteria-serve instance and reports simulated latency percentiles and
// throughput. The report (stdout) is deterministic for a fixed seed, op
// count and server shard count — at any -workers or -conns setting, and
// the same for both front ends — because every statistic derives from
// the per-shard simulated clocks; wall-clock progress goes to stderr.
// Every read of a line the run itself wrote is checked against the run's
// content oracle, so a stale or corrupted line fails the run.
//
// Typical invocations:
//
//	loadgen -addr 127.0.0.1:9650 -workload hashmap -ops 100000 -workers 4
//	loadgen -workload btree -ops 50000 -seed 7 -snapshot snap.json
//
// -conns switches from -workers stop-and-wait connections (one op in
// flight per shard) to pipelined ones: each keeps a window of batch
// frames in flight.
//
//	loadgen -conns 4 -pipeline 8 -batch 64 -ops 100000
//
// Against a tenant-mode server (soteria-serve -tenants N), -tenants
// switches to the multi-tenant generator: it attaches to tenants 1..N
// with the tokens soteria-serve printed at start-up (-tenant-tokens),
// runs one closed-loop stream per tenant over the tenant's whole extent
// (one session each — the protocol binds a session to its tenant at
// attach, which answers the extent size; its reads and writes are then
// ordinary one-entry batch frames with tenant-local addresses) and
// reports per-tenant latency plus a Jain fairness index. An online key
// rotation can be armed mid-run, over the rotating tenant's own session,
// to measure its cost under load:
//
//	loadgen -tenants 4 -tenant-tokens T1,T2,T3,T4 -ops 20000
//	loadgen -tenants 4 -tenant-tokens T1,T2,T3,T4 -rotate-tenant 2 -rotate-at 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"soteria/internal/devnet"
	"soteria/internal/loadgen"
	"soteria/internal/telemetry"
	"soteria/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9650", "soteria-serve address")
		workers   = flag.Int("workers", 4, "concurrent closed-loop workers (capped at the server's shard count)")
		ops       = flag.Int("ops", 10000, "total operation budget, split across shards")
		seed      = flag.Int64("seed", 1, "seed for every per-shard request stream")
		wlName    = flag.String("workload", "hashmap", fmt.Sprintf("access pattern to replay, one of %v", workload.Names()))
		footprint = flag.Uint64("footprint", 0, "per-shard data footprint in bytes (0 = whole shard)")
		snapshot  = flag.String("snapshot", "", "write the server's post-run telemetry snapshot here (- = stdout)")
		opTimeout = flag.Duration("op-timeout", 30*time.Second, "per-attempt request deadline")
		retries   = flag.Int("retries", 5, "max attempts per operation (-1 = unlimited within -retry-budget)")
		budget    = flag.Duration("retry-budget", 30*time.Second, "max wall time per operation, backoff included")

		conns     = flag.Int("conns", 0, "pipelined connections; > 0 switches to the windowed batching front end")
		pipeline  = flag.Int("pipeline", 8, "batch frames in flight per pipelined connection")
		batchSize = flag.Int("batch", 64, "max operations per batch frame")

		tenants      = flag.Int("tenants", 0, "drive this many tenant streams against a tenant-mode server (0 = flat device)")
		tenantTokens = flag.String("tenant-tokens", "", "comma-separated hex tokens of tenants 1..N, as soteria-serve -tenants N printed them (required with -tenants)")
		rotateTenant = flag.Uint("rotate-tenant", 0, "arm an online key rotation for this tenant mid-run (0 = none)")
		rotateAt     = flag.Int("rotate-at", 0, "completed-op count that triggers the rotation (0 = half of -ops)")
		rotateStride = flag.Int("rotate-stride", 8, "lines re-encrypted per interleaved rotation step")
	)
	flag.Parse()

	// All connections report into one registry so the resilience table
	// aggregates the whole run.
	resilience := telemetry.NewRegistry()
	dialClient := func() (*devnet.Client, error) {
		return devnet.DialWith(*addr, devnet.Options{
			OpTimeout: *opTimeout,
			Retry: devnet.RetryPolicy{
				MaxAttempts: *retries,
				MaxElapsed:  *budget,
			},
			Telemetry: resilience,
		})
	}
	dial := func() (loadgen.Conn, error) { return dialClient() }

	if *tenants > 0 {
		runTenants(dialClient, *tenants, *tenantTokens, *ops, *seed, *wlName,
			uint32(*rotateTenant), *rotateAt, *rotateStride)
		return
	}

	params := loadgen.Params{
		Dial:       dial,
		Workers:    *workers,
		Ops:        *ops,
		Seed:       *seed,
		Workload:   *wlName,
		Footprint:  *footprint,
		Resilience: resilience,
	}
	if *conns > 0 {
		params.DialPipe = func(h loadgen.PipeHandler) (loadgen.PipeConn, error) {
			return devnet.DialPipe(*addr, devnet.PipeHandler(h), devnet.PipeOptions{
				Options: devnet.Options{
					OpTimeout: *opTimeout,
					Retry: devnet.RetryPolicy{
						MaxAttempts: *retries,
						MaxElapsed:  *budget,
					},
					Telemetry: resilience,
				},
				Window:   *pipeline,
				MaxBatch: *batchSize,
			})
		}
		params.Workers = *conns
		params.Pipeline = *pipeline
		params.Batch = *batchSize
	}

	start := time.Now()
	rep, snap, err := loadgen.Run(params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	// Wall-clock numbers vary run to run; keep them off the
	// machine-parsable stream.
	opsDone := rep.Read.Count + rep.Write.Count + rep.Barriers
	fmt.Fprintf(os.Stderr, "loadgen: %d ops over %d shards in %v wall (%.0f ops/s), %d reads verified\n",
		opsDone, rep.Shards, wall.Round(time.Millisecond), float64(opsDone)/wall.Seconds(), rep.Verified)

	if err := rep.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if *snapshot != "" {
		if *snapshot == "-" {
			os.Stdout.Write(snap)
		} else if err := os.WriteFile(*snapshot, snap, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: write snapshot: %v\n", err)
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: telemetry snapshot written to %s\n", *snapshot)
		}
	}
}

// runTenants attaches to the tenants soteria-serve provisioned at
// start-up, then runs the multi-tenant generator: one session per tenant
// stream.
func runTenants(dial func() (*devnet.Client, error), tenants int,
	tokens string, ops int, seed int64, wlName string, rotTenant uint32, rotAt, rotStride int) {
	if tokens == "" {
		fmt.Fprintf(os.Stderr, "loadgen: -tenants needs -tenant-tokens: start the server with soteria-serve -tenants %d and pass the tokens it prints\n", tenants)
		os.Exit(1)
	}
	given := strings.Split(tokens, ",")
	if len(given) != tenants {
		fmt.Fprintf(os.Stderr, "loadgen: -tenant-tokens names %d tenants, -tenants is %d\n", len(given), tenants)
		os.Exit(1)
	}
	specs := make([]loadgen.TenantSpec, tenants)
	for i := range specs {
		id := uint32(i + 1)
		token, err := strconv.ParseUint(strings.TrimSpace(given[i]), 16, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: tenant %d token %q: %v\n", id, given[i], err)
			os.Exit(1)
		}
		specs[i] = loadgen.TenantSpec{ID: id, Token: token}
	}

	start := time.Now()
	rep, err := loadgen.RunTenants(loadgen.TenantParams{
		Dial:         func() (loadgen.TenantConn, error) { return dial() },
		Tenants:      specs,
		Ops:          ops,
		Seed:         seed,
		Workload:     wlName,
		RotateTenant: rotTenant,
		RotateAt:     rotAt,
		RotateStride: rotStride,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	var done uint64
	for _, p := range rep.Per {
		done += p.Ops
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d tenant ops in %v wall (%.0f ops/s)\n",
		done, wall.Round(time.Millisecond), float64(done)/wall.Seconds())
	if err := rep.WriteMarkdown(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}
