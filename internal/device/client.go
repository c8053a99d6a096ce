package device

import (
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Client is the device-service API, satisfied both by *Device (in-process)
// and by devnet.Client (over the wire), so harnesses and load generators
// run unchanged against either. Latencies are simulated time on the
// owning shard's clock.
type Client interface {
	// Read services one 64-byte read at a line-aligned device address.
	Read(addr uint64) (nvm.Line, sim.Time, error)
	// Write services one 64-byte write.
	Write(addr uint64, data *nvm.Line) (sim.Time, error)
	// Drain waits until the shard owning addr has drained its WPQ.
	Drain(addr uint64) error
	// Flush is the device-wide durability barrier.
	Flush() error
	// Crash cuts power across the whole device.
	Crash() error
	// Recover rebuilds every shard and reports what each reconstructed.
	Recover() (*RecoveryReport, error)
	// Close releases the client (and, for *Device, shuts the device down).
	Close() error
}

var _ Client = (*Device)(nil)
