package tenant

import (
	"errors"
	"fmt"
)

// Sentinel errors of the tenant layer. The concrete errors below carry
// detail but match these sentinels through errors.Is, so callers (and the
// devnet status mapping) can branch without type assertions.
var (
	// ErrQuota: the tenant exhausted its hard operation budget for the
	// current quota window. The concrete error is a *QuotaError. Unlike
	// BusyError backpressure this is NOT retryable: the budget does not
	// refill until the window rolls, so a tight retry loop only burns its
	// budget (see devnet.ClassQuota).
	ErrQuota = errors.New("tenant: operation quota exhausted")
	// ErrAuth: the presented tenant token does not authenticate the
	// tenant, or the session is not bound to the tenant it addressed.
	ErrAuth = errors.New("tenant: authentication failed")
	// ErrIntegrity: no (key epoch, guard MAC) combination authenticates
	// the stored line — the typed failure a cross-tenant or cross-epoch
	// read attempt must produce. The concrete error is an *IntegrityError.
	ErrIntegrity = errors.New("tenant: line failed MAC verification")
	// ErrNoSuchTenant: the tenant id is not provisioned.
	ErrNoSuchTenant = errors.New("tenant: no such tenant")
	// ErrExists: the tenant id is already provisioned.
	ErrExists = errors.New("tenant: already provisioned")
	// ErrRotating: the operation cannot start while a rotation is already
	// in progress for the tenant.
	ErrRotating = errors.New("tenant: key rotation already in progress")
)

// QuotaError is the hard admission rejection: the tenant used its whole
// per-window operation budget. Distinct from device.BusyError (fair-share
// backpressure, retryable) by construction and by wire status.
type QuotaError struct {
	// Tenant is the rejected tenant id.
	Tenant uint32
	// Used is the number of operations admitted in the current window.
	Used uint32
	// Budget is the tenant's per-window operation budget.
	Budget uint32
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %d: quota exhausted (%d/%d ops this window)", e.Tenant, e.Used, e.Budget)
}

// Is matches ErrQuota.
func (e *QuotaError) Is(target error) bool { return target == ErrQuota }

// AuthError reports a failed tenant authentication. Tenant 0 (never a
// valid id) is a data op from a connection that attached to no tenant.
type AuthError struct {
	Tenant uint32
}

func (e *AuthError) Error() string {
	if e.Tenant == 0 {
		return "tenant: connection is not attached to a tenant"
	}
	return fmt.Sprintf("tenant %d: authentication failed", e.Tenant)
}

// Is matches ErrAuth.
func (e *AuthError) Is(target error) bool { return target == ErrAuth }

// IntegrityError reports that a tenant-layer line failed authentication
// under every admissible (epoch, guard MAC) combination. It is what a
// cross-tenant read attempt observes: foreign ciphertext never verifies
// under the attacker's key domain.
type IntegrityError struct {
	// Tenant is the key domain the open was attempted under.
	Tenant uint32
	// Line is the tenant-local line index.
	Line uint64
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("tenant %d: line %d failed MAC verification", e.Tenant, e.Line)
}

// Is matches ErrIntegrity.
func (e *IntegrityError) Is(target error) bool { return target == ErrIntegrity }

// RangeError reports a tenant-local address outside the tenant's extent —
// the namespace-confinement barrier that makes one tenant's addresses
// unable to even name another tenant's lines.
type RangeError struct {
	Tenant uint32
	// Addr is the offending tenant-local byte address.
	Addr uint64
	// Lines is the tenant's extent size in 64-byte lines.
	Lines uint64
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("tenant %d: address %#x beyond extent of %d lines", e.Tenant, e.Addr, e.Lines)
}
