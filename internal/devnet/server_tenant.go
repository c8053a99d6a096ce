package devnet

import (
	"errors"
	"fmt"

	"soteria/internal/tenant"
)

// handleTenant executes one tenant-plane request against the configured
// tenant service. Attach binds the connection, which is what routes its
// batch frames into the tenant's space (handleBatch); the admin ops
// (create, rotate, step) are operator-plane and need no binding.
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
	switch f.Op {
	case OpTenantAttach:
		if err := svc.Authenticate(f.Tenant, f.Token); err != nil {
			*bound = 0
			return respFromErr(seq, err)
		}
		*bound = f.Tenant
		return respOK(seq, 0, nil)
	case OpTenantCreate:
		token, err := svc.Provision(f.Tenant, f.Lines, f.Quota)
		if err != nil {
			return respFromErr(seq, err)
		}
		return respOK(seq, 0, putU64(nil, token))
	case OpTenantRotate:
		if err := svc.Rotate(f.Tenant); err != nil {
			return respFromErr(seq, err)
		}
		return respOK(seq, 0, nil)
	case OpTenantStep:
		rotated, done, err := svc.RotateStep(f.Tenant, int(f.Max))
		if err != nil && !errors.Is(err, tenant.ErrNotRotating) {
			return respFromErr(seq, err)
		}
		st, serr := svc.RotateStatus(f.Tenant)
		if serr != nil {
			return respFromErr(seq, serr)
		}
		body := make([]byte, 0, 13)
		if done || !st.Rotating {
			body = append(body, 1)
		} else {
			body = append(body, 0)
		}
		body = putU32(body, uint32(rotated))
		return respOK(seq, 0, putU64(body, st.Cursor))
	default:
		return respErr(seq, fmt.Errorf("unknown tenant op %d", f.Op))
	}
}
