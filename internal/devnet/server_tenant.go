package devnet

import (
	"fmt"

	"soteria/internal/tenant"
)

// handleTenant executes one tenant-plane request against the configured
// tenant service. Attach binds the connection, which is what routes its
// batch frames into the tenant's space (handleBatch), and answers the
// tenant's extent size. Rotate and step are
// the bound tenant's own acts: a frame from an unbound connection, or one
// naming another tenant, is denied and executes nothing. Provisioning is
// not a wire op; the service's owner does it at start-up.
func (s *Server) handleTenant(req wireRequest, bound *uint32) []byte {
	seq := req.seq
	svc := s.opts.Tenants
	if svc == nil {
		return respErr(seq, fmt.Errorf("tenant ops are not enabled on this server"))
	}
	f, err := ParseTenantFrame(req.op, req.body)
	if err != nil {
		s.frameErrors.Inc()
		return respErr(seq, err)
	}
	if f.Op == OpTenantAttach {
		lines, err := svc.Authenticate(f.Tenant, f.Token)
		if err != nil {
			*bound = 0
			return respFromErr(seq, err)
		}
		*bound = f.Tenant
		return respOK(seq, 0, putU64(nil, lines))
	}
	if *bound == 0 || f.Tenant != *bound {
		return respFromErr(seq, &tenant.AuthError{Tenant: f.Tenant})
	}
	if f.Op == OpTenantRotate {
		if err := svc.Rotate(f.Tenant); err != nil {
			return respFromErr(seq, err)
		}
		return respOK(seq, 0, nil)
	}
	// OpTenantStep, the only op left that ParseTenantFrame accepts.
	rotated, done, err := svc.RotateStep(f.Tenant, int(f.Max))
	if err != nil {
		return respFromErr(seq, err)
	}
	body := []byte{0}
	if done {
		body[0] = 1
	}
	return respOK(seq, 0, putU32(body, uint32(rotated)))
}
