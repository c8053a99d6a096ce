package device

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors of the device layer. BusyError and PowerError carry
// detail but match these sentinels through errors.Is, so callers can
// branch without type assertions.
var (
	// ErrBusy: the service shed the request under load. The device itself
	// never does — a caller waits for its shard's lock — so the concrete
	// error is a *BusyError built by a layer above it: devnet's in-flight
	// cap or the tenant service's fair-share gate.
	ErrBusy = errors.New("device: busy")
	// ErrClosed: the device has been shut down.
	ErrClosed = errors.New("device: closed")
	// ErrRetired: the request was admitted before a crash barrier and
	// discarded unexecuted — exactly what a power cut does to queued
	// commands. The operation never ran; retry after Recover.
	ErrRetired = errors.New("device: request retired by crash barrier")
	// ErrPowerLoss: a simulated power loss (inject.PowerLoss) fired while
	// the request was executing. The concrete error is a *PowerError.
	ErrPowerLoss = errors.New("device: power loss during operation")
)

// BusyError is the typed backpressure signal of the layers above the
// device: the request was shed, not executed, and may be retried after
// RetryAfter.
type BusyError struct {
	// Shard names the gate that shed the request: -1 the server's
	// in-flight cap, -2 the tenant fair-share gate.
	Shard int
	// Pending is the load observed at rejection (requests in flight, or
	// the ops the tenant has used this window).
	Pending int
	// RetryAfter is the suggested wall-clock backoff before retrying.
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("device: busy (gate %d, %d pending, retry after %v)", e.Shard, e.Pending, e.RetryAfter)
}

// Is matches ErrBusy.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// PowerError reports that a simulated power loss cut the operation at a
// write boundary. The device refuses further data operations until
// Crash()+Recover() bring it back.
type PowerError struct {
	// Shard is the shard that was executing when power was lost.
	Shard int
	// Boundary is the injector's write-boundary index, for repro lines.
	Boundary int
}

func (e *PowerError) Error() string {
	return fmt.Sprintf("device: power loss on shard %d at write boundary %d", e.Shard, e.Boundary)
}

// Is matches ErrPowerLoss.
func (e *PowerError) Is(target error) bool { return target == ErrPowerLoss }

// PanicError wraps a non-PowerLoss panic recovered from a shard operation.
// The storage stack promises that a simulated power cut is the only
// legitimate panic, so seeing this error is itself an invariant violation
// the chaos harness reports.
type PanicError struct {
	Shard int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("device: shard %d panicked: %v", e.Shard, e.Value)
}
