// Command soteria-serve runs the sharded secure-NVM device as a network
// service: a TCP front-end speaking the devnet length-prefixed binary
// protocol, plus an optional live metrics endpoint and a telemetry
// snapshot on shutdown. Pair it with cmd/loadgen.
//
// Typical invocations:
//
//	soteria-serve -addr 127.0.0.1:9650 -shards 4 -mode src
//	soteria-serve -shards 8 -metrics-addr 127.0.0.1:9651 -metrics final.prom
//	soteria-serve -tenants 4 -tenant-lines 256 -metrics-addr 127.0.0.1:9651
//
// With -tenants N the same device is wrapped in a tenant service and the
// server runs in multi-tenant mode: the registry accepts tenant ids 1..N,
// a connection attaches to one tenant with OpTenantAttach (after
// provisioning over the wire's operator plane: TenantCreate — cmd/loadgen
// -tenants does this itself) and its batch frames, stop-and-wait or
// pipelined, then run in that tenant's space with tenant-local addresses;
// batch frames from a connection that never attached are denied.
// -provision M additionally provisions tenants 1..M at startup
// and prints their access tokens to stderr, one per line, for the
// operator to hand out. Online key rotation runs over the operator
// plane (TenantRotate/TenantStep), and the metrics endpoint gains
// /tenants (registry listing) and /tenant-metrics?id=N (one tenant's
// counters).
//
// SIGINT/SIGTERM shuts down gracefully: in-flight requests are answered,
// connections drained, the device flushed, and the -metrics snapshot
// written before exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/telemetry"
	"soteria/internal/tenant"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9650", "TCP listen address for the device protocol")
		shards      = flag.Int("shards", 4, "independent controller shards (line count must divide evenly)")
		modeName    = flag.String("mode", "src", "protection scheme: nonsecure|baseline|src|sac")
		capacity    = flag.Uint64("capacity", config.TestSystem().NVM.CapacityBytes, "device data capacity in bytes")
		metricsFile = flag.String("metrics", "", "write the final telemetry snapshot here on shutdown (.prom = Prometheus text, else JSON, - = stdout)")
		metricsAddr = flag.String("metrics-addr", "", "serve live metrics over HTTP at this address (/metrics Prometheus, /metrics.json JSON, /healthz, /readyz)")
		readStall   = flag.Duration("read-stall", 5*time.Second, "drop a peer that stalls this long mid-frame")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "drop a connection idle this long between requests (negative disables)")
		maxInFlight = flag.Int("max-inflight", 64, "server-wide cap on concurrently executing requests; excess is shed with a busy/retry-after response (negative disables)")
		tenants     = flag.Int("tenants", 0, "run in multi-tenant mode accepting this many tenant ids (0 = flat device)")
		provision   = flag.Int("provision", 0, "provision tenants 1..N at startup and print their tokens")
		tenantLines = flag.Uint64("tenant-lines", 256, "extent size, in 64-byte lines, of each startup-provisioned tenant")
		tenantQuota = flag.Uint("tenant-quota", 0, "hard per-window op budget of each startup-provisioned tenant (0 = unlimited)")
		masterKey   = flag.String("master-key", "soteria-serve-tenant-master", "master key rooting every tenant key domain")
		verbose     = flag.Bool("v", false, "log connection lifecycle")
	)
	flag.Parse()

	mode, err := memctrl.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	cfg := config.TestSystem()
	cfg.NVM.CapacityBytes = *capacity

	dev, err := device.New(device.Options{
		System:    cfg,
		Mode:      mode,
		Key:       []byte("soteria-serve-key"),
		Shards:    *shards,
		Telemetry: true,
	})
	if err != nil {
		fatal(err)
	}
	info := dev.Info()

	// Tenant mode wraps the same device in a tenant.Service and hands the
	// server no flat device: every data op must then come through a tenant
	// key domain.
	var svc *tenant.Service
	flat := dev
	if *tenants > 0 {
		svc, err = tenant.New(dev, tenant.Options{
			MasterKey:  []byte(*masterKey),
			MaxTenants: *tenants,
			Telemetry:  true,
		})
		if err != nil {
			fatal(err)
		}
		if *provision > *tenants {
			fatal(fmt.Errorf("-provision %d exceeds -tenants %d", *provision, *tenants))
		}
		for id := 1; id <= *provision; id++ {
			token, err := svc.Provision(uint32(id), *tenantLines, uint32(*tenantQuota))
			if err != nil {
				fatal(fmt.Errorf("provision tenant %d: %w", id, err))
			}
			fmt.Fprintf(os.Stderr, "soteria-serve: tenant %d token %016x\n", id, token)
		}
		flat = nil
	}

	// The server's own resilience counters (shed, panics, dedup hits) live
	// in a separate registry from the device's, so wire telemetry
	// snapshots stay byte-identical to local ones; the metrics endpoint
	// exposes both.
	serverReg := telemetry.NewRegistry()
	sopts := devnet.ServerOptions{
		ReadStall:   *readStall,
		IdleTimeout: *idleTimeout,
		MaxInFlight: *maxInFlight,
		Telemetry:   serverReg,
		Tenants:     svc,
	}
	if *verbose {
		sopts.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	srv := devnet.NewServerWith(flat, sopts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if svc != nil {
		fmt.Fprintf(os.Stderr, "soteria-serve: %s device, %d shards, %d bytes, %d tenants, listening on %s\n",
			info.Mode, info.Shards, info.CapacityBytes, *tenants, ln.Addr())
	} else {
		fmt.Fprintf(os.Stderr, "soteria-serve: %s device, %d shards, %d bytes, listening on %s\n",
			info.Mode, info.Shards, info.CapacityBytes, ln.Addr())
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			dev.Snapshot().WritePrometheus(w, "")
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			dev.Snapshot().WriteJSON(w)
		})
		if svc != nil {
			mux.HandleFunc("/tenants", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(svc.Tenants())
			})
			mux.HandleFunc("/tenant-metrics", func(w http.ResponseWriter, r *http.Request) {
				id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 32)
				if err != nil {
					http.Error(w, "tenant-metrics: ?id=<tenant> required", http.StatusBadRequest)
					return
				}
				snap, err := svc.Snapshot(uint32(id))
				if err != nil {
					http.Error(w, err.Error(), http.StatusNotFound)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				snap.WriteJSON(w)
			})
		}
		mux.HandleFunc("/server-metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			serverReg.Snapshot().WritePrometheus(w, "")
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			// Liveness: the process answers.
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			// Readiness: serving and the device is up.
			h := srv.Health()
			w.Header().Set("Content-Type", "application/json")
			if !h.Ready {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			json.NewEncoder(w).Encode(h)
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "soteria-serve: metrics endpoint: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "soteria-serve: metrics on http://%s/metrics\n", *metricsAddr)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "soteria-serve: %v, draining\n", s)
	case err := <-done:
		fmt.Fprintf(os.Stderr, "soteria-serve: accept loop ended: %v\n", err)
	}

	srv.Shutdown()
	if err := dev.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "soteria-serve: final flush: %v\n", err)
	}
	if *metricsFile != "" {
		if err := dev.Snapshot().WriteFile(*metricsFile, ""); err != nil {
			fmt.Fprintf(os.Stderr, "soteria-serve: write metrics: %v\n", err)
		} else if *metricsFile != "-" {
			fmt.Fprintf(os.Stderr, "soteria-serve: telemetry snapshot written to %s\n", *metricsFile)
		}
	}
	if err := dev.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "soteria-serve: %v\n", err)
	os.Exit(1)
}
