package devnet

import (
	"errors"
	"fmt"
	"time"

	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/tenant"
)

// The wire error codec: the one place a typed device/tenant error becomes
// a (status, body) pair and back. A stand-alone response carries the pair
// after the response header (respFromErr), a batch response carries one
// per failed op (appendBatchErr); both call encodeErr, and the client
// decodes either with statusError.

// encodeErr maps err onto its wire status and appends the status's typed
// body to dst. Anything without a status of its own travels as
// StatusError with its message.
func encodeErr(err error, dst []byte) (status uint8, body []byte) {
	var (
		busy  *device.BusyError
		power *device.PowerError
		quota *tenant.QuotaError
		auth  *tenant.AuthError
		integ *tenant.IntegrityError
	)
	switch {
	case errors.As(err, &quota):
		return StatusQuota, putU32(putU32(putU32(dst, quota.Tenant), quota.Used), quota.Budget)
	case errors.As(err, &auth):
		return StatusTenantDenied, putU32(dst, auth.Tenant)
	case errors.As(err, &integ):
		return StatusTenantIntegrity, putU64(putU32(dst, integ.Tenant), integ.Line)
	case errors.As(err, &busy):
		dst = putU32(putU32(dst, uint32(int32(busy.Shard))), uint32(busy.Pending))
		return StatusBusy, putU64(dst, uint64(busy.RetryAfter.Nanoseconds()))
	case errors.As(err, &power):
		return StatusPowerLoss, putU64(putU32(dst, uint32(int32(power.Shard))), uint64(power.Boundary))
	case errors.Is(err, memctrl.ErrCrashed):
		return StatusCrashed, dst
	case errors.Is(err, device.ErrRetired):
		return StatusRetired, dst
	case errors.Is(err, device.ErrClosed):
		return StatusClosed, dst
	default:
		return StatusError, append(dst, err.Error()...)
	}
}

// statusError reconstructs the typed error from a wire status and body
// (nil for StatusOK). A body of the wrong length for its status, or an
// unknown status, is a *FrameError.
func statusError(status uint8, body []byte) error {
	var want int
	switch status {
	case StatusOK:
		return nil
	case StatusError:
		return fmt.Errorf("devnet: server: %s", body)
	case StatusCrashed, StatusClosed, StatusRetired:
		want = 0
	case StatusTenantDenied:
		want = 4
	case StatusPowerLoss, StatusQuota, StatusTenantIntegrity:
		want = 12
	case StatusBusy:
		want = 16
	default:
		return &FrameError{Reason: fmt.Sprintf("unknown status %d", status)}
	}
	if len(body) != want {
		return &FrameError{Reason: fmt.Sprintf("status %d carries a %d-byte body, want %d", status, len(body), want)}
	}
	switch status {
	case StatusCrashed:
		return memctrl.ErrCrashed
	case StatusClosed:
		return device.ErrClosed
	case StatusRetired:
		return device.ErrRetired
	case StatusTenantDenied:
		return &tenant.AuthError{Tenant: beU32(body)}
	case StatusPowerLoss:
		return &device.PowerError{Shard: int(int32(beU32(body))), Boundary: int(beU64(body[4:]))}
	case StatusQuota:
		return &tenant.QuotaError{Tenant: beU32(body), Used: beU32(body[4:]), Budget: beU32(body[8:])}
	case StatusTenantIntegrity:
		return &tenant.IntegrityError{Tenant: beU32(body), Line: beU64(body[4:])}
	default: // StatusBusy
		return &device.BusyError{
			Shard:      int(int32(beU32(body))),
			Pending:    int(beU32(body[4:])),
			RetryAfter: time.Duration(beU64(body[8:])),
		}
	}
}
