package devnet

import (
	"fmt"

	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// reattach is the link's on-connect hook: it replays the stored tenant
// binding on a replacement connection before anything is retransmitted
// over it, or the server would reject the data op the retransmission is
// trying to land. Session 0 and sequence 0: the attach must execute on
// this connection (the server keeps it out of the dedup window anyway),
// and it is not one of the client's numbered operations.
func (c *Client) reattach() error {
	if !c.attached {
		return nil
	}
	f := TenantFrame{Op: OpTenantAttach, Tenant: c.tenantID, Token: c.tenantTok}
	buf := append(newRequestFrame(nil, OpTenantAttach, 0, 0), f.Encode()...)
	sealFrame(buf)
	if err := c.l.write(buf); err != nil {
		return err
	}
	resp, err := c.l.read(0)
	if err != nil {
		return err
	}
	return statusError(resp.status, resp.body)
}

// doTenant is do for a tenant-plane op, its body rendered by the one
// tenant frame codec.
func (c *Client) doTenant(opName string, f TenantFrame) (sim.Time, []byte, error) {
	return c.do(opName, f.Op, f.Encode())
}

// AttachTenant authenticates this client's connection as tenant id and
// remembers the binding, transparently re-attaching after every
// reconnect. Data ops (TenantRead/TenantWrite) require it.
func (c *Client) AttachTenant(id uint32, token uint64) error {
	c.mu.Lock()
	c.attached, c.tenantID, c.tenantTok = true, id, token
	c.mu.Unlock()
	_, _, err := c.doTenant("tenant-attach", TenantFrame{Op: OpTenantAttach, Tenant: id, Token: token})
	if err != nil {
		c.mu.Lock()
		c.attached = false
		c.mu.Unlock()
	}
	return err
}

// TenantRead services one 64-byte read in the attached tenant's space.
func (c *Client) TenantRead(id uint32, addr uint64) (nvm.Line, sim.Time, error) {
	return lineOf(c.doTenant("tenant-read", TenantFrame{Op: OpTenantRead, Tenant: id, Addr: addr}))
}

// TenantWrite services one 64-byte write in the attached tenant's space.
// Retries are exactly-once through the server's dedup window, like flat
// writes. A quota rejection surfaces as a *TenantQuotaError and is NOT
// retried: the budget will not refill inside a retry loop's horizon.
func (c *Client) TenantWrite(id uint32, addr uint64, data *nvm.Line) (sim.Time, error) {
	lat, _, err := c.doTenant("tenant-write", TenantFrame{Op: OpTenantWrite, Tenant: id, Addr: addr, Line: *data})
	return lat, err
}

// TenantCreate provisions a tenant (operator plane) and returns its
// access token.
func (c *Client) TenantCreate(id uint32, lines uint64, quotaOps uint32) (uint64, error) {
	_, body, err := c.doTenant("tenant-create", TenantFrame{Op: OpTenantCreate, Tenant: id, Lines: lines, Quota: quotaOps})
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		return 0, &FrameError{Reason: fmt.Sprintf("tenant create returned %d bytes", len(body))}
	}
	return beU64(body), nil
}

// TenantRotate begins an online key rotation (operator plane).
func (c *Client) TenantRotate(id uint32) error {
	_, _, err := c.doTenant("tenant-rotate", TenantFrame{Op: OpTenantRotate, Tenant: id})
	return err
}

// TenantRotateStep advances a rotation sweep by up to max lines,
// reporting progress (operator plane).
func (c *Client) TenantRotateStep(id uint32, max uint32) (rotated uint32, cursor uint64, done bool, err error) {
	_, body, err := c.doTenant("tenant-step", TenantFrame{Op: OpTenantStep, Tenant: id, Max: max})
	if err != nil {
		return 0, 0, false, err
	}
	if len(body) != 13 {
		return 0, 0, false, &FrameError{Reason: fmt.Sprintf("tenant step returned %d bytes", len(body))}
	}
	return beU32(body[1:]), beU64(body[5:]), body[0] != 0, nil
}

// TenantInfo fetches one tenant's record and rotation progress.
func (c *Client) TenantInfo(id uint32) (TenantInfo, error) {
	var info TenantInfo
	f := TenantFrame{Op: OpTenantInfo, Tenant: id}
	return info, c.doJSON("tenant-info", f.Op, f.Encode(), &info)
}

// TenantList fetches the provisioned tenants (operator plane).
func (c *Client) TenantList() ([]TenantRecord, error) {
	var out []TenantRecord
	f := TenantFrame{Op: OpTenantList}
	return out, c.doJSON("tenant-list", f.Op, f.Encode(), &out)
}

// TenantMetrics fetches one tenant's telemetry snapshot.
func (c *Client) TenantMetrics(id uint32) (*telemetry.Snapshot, error) {
	snap := &telemetry.Snapshot{}
	f := TenantFrame{Op: OpTenantMetrics, Tenant: id}
	return snap, c.doJSON("tenant-metrics", f.Op, f.Encode(), snap)
}
