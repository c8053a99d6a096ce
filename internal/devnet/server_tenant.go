package devnet

import (
	"errors"
	"fmt"

	"soteria/internal/tenant"
)

// TenantInfo is the JSON body of an OpTenantInfo response.
type TenantInfo struct {
	ID        uint32 `json:"id"`
	Epoch     uint32 `json:"epoch"`
	Rotating  bool   `json:"rotating"`
	Cursor    uint64 `json:"cursor"`
	DataLines uint64 `json:"data_lines"`
	QuotaOps  uint32 `json:"quota_ops"`
}

// TenantRecord is the JSON element of an OpTenantList response.
type TenantRecord struct {
	ID        uint32 `json:"id"`
	Epoch     uint32 `json:"epoch"`
	Rotating  bool   `json:"rotating"`
	DataLines uint64 `json:"data_lines"`
	QuotaOps  uint32 `json:"quota_ops"`
}

// handleTenant executes one tenant-plane request against the configured
// tenant service. Attach binds the connection, which is what routes its
// batch frames into the tenant's space (handleBatch); the admin ops
// (create, rotate, step, info, list, metrics) are operator-plane and need
// no binding, matching the flat protocol's stance that Crash/Recover are
// trusted-operator ops.
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
		return respDone(seq, 0, svc.Rotate(f.Tenant))
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
	case OpTenantInfo:
		rec, err := svc.Info(f.Tenant)
		if err != nil {
			return respFromErr(seq, err)
		}
		st, err := svc.RotateStatus(f.Tenant)
		if err != nil {
			return respFromErr(seq, err)
		}
		return respJSON(seq, TenantInfo{
			ID: rec.ID, Epoch: rec.Epoch, Rotating: st.Rotating,
			Cursor: st.Cursor, DataLines: rec.DataLines, QuotaOps: rec.QuotaOps,
		})
	case OpTenantList:
		recs := svc.Tenants()
		out := make([]TenantRecord, 0, len(recs))
		for _, r := range recs {
			out = append(out, TenantRecord{
				ID: r.ID, Epoch: r.Epoch, Rotating: r.Rotating,
				DataLines: r.DataLines, QuotaOps: r.QuotaOps,
			})
		}
		return respJSON(seq, out)
	case OpTenantMetrics:
		snap, err := svc.Snapshot(f.Tenant)
		if err != nil {
			return respFromErr(seq, err)
		}
		return respSnapshot(seq, snap)
	default:
		return respErr(seq, fmt.Errorf("unknown tenant op %d", f.Op))
	}
}
