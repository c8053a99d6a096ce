package devnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/tenant"
)

// TenantQuotaError is the typed, non-retryable quota rejection a client
// operation surfaces when the addressed tenant exhausted its per-window
// budget. It is the tenant layer's *tenant.QuotaError reconstructed from
// StatusQuota — aliased here so wire-facing code can name it without
// importing the tenant package.
type TenantQuotaError = tenant.QuotaError

// FrameError reports a protocol-level failure on the wire: a corrupted
// checksum, an oversized or malformed frame, or a response that does not
// answer the in-flight request. The connection that produced it is
// poisoned (the stream can no longer be trusted to be in sync), so the
// client drops it and retries over a fresh one.
type FrameError struct {
	Reason string
}

func (e *FrameError) Error() string { return "devnet: " + e.Reason }

// Class partitions the error surface of a devnet operation by how a
// caller should react. Loadgen and the chaos harness branch on it; the
// client's retry loop is driven by it.
type Class int

const (
	// ClassFatal: retrying cannot help (semantic rejection, closed
	// device, unknown server error). Surface it.
	ClassFatal Class = iota
	// ClassTransport: the connection failed or produced garbage before a
	// trustworthy response arrived. The operation may or may not have
	// executed — safe to retry only because the server deduplicates by
	// (session, seq).
	ClassTransport
	// ClassBusy: typed backpressure (the server's max-in-flight cap, or
	// the tenant fair-share gate). The operation did not execute; honor the
	// retry-after hint.
	ClassBusy
	// ClassRetired: the request was retired unexecuted by a crash
	// barrier. Retry after the device recovers.
	ClassRetired
	// ClassDown: the device is crashed or lost power. Retryable only in
	// supervised deployments where something will run recovery
	// (RetryPolicy.RetryDown); otherwise it goes back to the caller. The
	// wire offers no recovery: the process that owns the device runs it.
	ClassDown
	// ClassQuota: the tenant's hard per-window operation budget is
	// exhausted. NOT retryable — unlike ClassBusy backpressure the budget
	// does not refill on any timescale a retry loop should wait for, so
	// the client surfaces the typed *TenantQuotaError immediately and the
	// caller sheds or re-plans load.
	ClassQuota
)

func (c Class) String() string {
	switch c {
	case ClassFatal:
		return "fatal"
	case ClassTransport:
		return "transport"
	case ClassBusy:
		return "busy"
	case ClassRetired:
		return "retired"
	case ClassDown:
		return "down"
	case ClassQuota:
		return "quota"
	default:
		return "?"
	}
}

// ClassOf classifies any error produced by a devnet operation.
func ClassOf(err error) Class {
	switch {
	case err == nil:
		return ClassFatal
	case errors.Is(err, tenant.ErrQuota):
		return ClassQuota
	case errors.Is(err, device.ErrBusy):
		return ClassBusy
	case errors.Is(err, device.ErrRetired):
		return ClassRetired
	case errors.Is(err, memctrl.ErrCrashed), errors.Is(err, device.ErrPowerLoss):
		return ClassDown
	case errors.Is(err, device.ErrClosed):
		return ClassFatal
	}
	var fe *FrameError
	if errors.As(err, &fe) {
		return ClassTransport
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return ClassTransport
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return ClassTransport
	}
	return ClassFatal
}

// isTimeout reports whether err is a network deadline expiring.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// OpError is returned when the client's retry budget ran out. It wraps
// the last underlying error, so errors.Is/As still see the typed cause.
type OpError struct {
	// Op names the operation ("write", "tenant-create", ...).
	Op string
	// Attempts is how many times the operation was tried.
	Attempts int
	// Elapsed is the wall-clock time spent, including backoff waits.
	Elapsed time.Duration
	// Err is the last error observed.
	Err error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("devnet: %s gave up after %d attempts in %v: %v", e.Op, e.Attempts, e.Elapsed.Round(time.Millisecond), e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }
