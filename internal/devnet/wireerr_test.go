package devnet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/tenant"
)

// TestWireErrorCodecRoundTrip sends every typed error through both
// framings — a stand-alone response and a per-op batch result — and
// checks that the client rebuilds the same error from either, that the
// two framings carry the same (status, body), and that a body of any
// other length is rejected as a *FrameError.
func TestWireErrorCodecRoundTrip(t *testing.T) {
	busy := &device.BusyError{Shard: -1, Pending: 7, RetryAfter: 1500 * time.Microsecond}
	power := &device.PowerError{Shard: 3, Boundary: 41}
	quota := &tenant.QuotaError{Tenant: 9, Used: 12, Budget: 12}
	auth := &tenant.AuthError{Tenant: 5}
	integ := &tenant.IntegrityError{Tenant: 2, Line: 1 << 40}
	cases := []struct {
		name   string
		err    error // what the server holds
		want   error // what the client rebuilds
		status uint8
	}{
		{"busy", busy, busy, StatusBusy},
		{"power", power, power, StatusPowerLoss},
		{"quota", quota, quota, StatusQuota},
		{"auth", auth, auth, StatusTenantDenied},
		{"integrity", integ, integ, StatusTenantIntegrity},
		{"crashed", memctrl.ErrCrashed, memctrl.ErrCrashed, StatusCrashed},
		{"retired", device.ErrRetired, device.ErrRetired, StatusRetired},
		{"closed", device.ErrClosed, device.ErrClosed, StatusClosed},
		{"wrapped", fmt.Errorf("shard 2: %w", busy), busy, StatusBusy},
		{"plain", errors.New("address out of range"), errors.New("devnet: server: address out of range"), StatusError},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := parseResponse(respFromErr(11, c.err))
			if err != nil {
				t.Fatal(err)
			}
			it, err := parseBatchResults(appendBatchErr(putU32(nil, 1), c.err))
			if err != nil {
				t.Fatal(err)
			}
			st, lat, body, err := it.next()
			if err != nil || lat != 0 || it.trailing() != 0 {
				t.Fatalf("batch entry: lat %d, %d trailing bytes, %v", lat, it.trailing(), err)
			}
			if resp.seq != 11 || resp.status != c.status || st != c.status || string(resp.body) != string(body) {
				t.Fatalf("framings disagree: response (seq %d, status %d, %x), batch (status %d, %x), want status %d",
					resp.seq, resp.status, resp.body, st, body, c.status)
			}

			got := statusError(st, body)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("decoded %#v, want %#v", got, c.want)
			}
			if ClassOf(got) != ClassOf(c.err) {
				t.Fatalf("class changed on the wire: %v -> %v", ClassOf(c.err), ClassOf(got))
			}
			if c.status == StatusError {
				return // free-form body: every length is well-formed
			}

			for _, bad := range [][]byte{body[:len(body)/2], append(append([]byte(nil), body...), 0)} {
				if len(bad) == len(body) {
					continue // an empty body has no shorter form
				}
				var fe *FrameError
				if err := statusError(st, bad); !errors.As(err, &fe) {
					t.Fatalf("%d-byte body (want %d) decoded as %v, want *FrameError", len(bad), len(body), err)
				}
			}
		})
	}
	var fe *FrameError
	if err := statusError(StatusTenantIntegrity+1, nil); !errors.As(err, &fe) {
		t.Fatalf("unknown status decoded as %v, want *FrameError", err)
	}
	if err := statusError(StatusOK, nil); err != nil {
		t.Fatalf("StatusOK decoded as %v", err)
	}
}
