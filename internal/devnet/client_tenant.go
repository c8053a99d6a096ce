package devnet

import "fmt"

// doTenant is do for a tenant-plane op, its body rendered by the one
// tenant frame codec.
func (c *Client) doTenant(opName string, f TenantFrame) ([]byte, error) {
	return c.do(opName, f.Op, f.Encode())
}

// AttachTenant authenticates this client's connection as tenant id. From
// then on Read, Write and Drain take tenant-local addresses and run in
// the tenant's space; the link re-attaches after every reconnect.
func (c *Client) AttachTenant(id uint32, token uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.what = "tenant-attach"
	return c.l.attachTenant(id, token)
}

// TenantCreate provisions a tenant (operator plane) and returns its
// access token.
func (c *Client) TenantCreate(id uint32, lines uint64, quotaOps uint32) (uint64, error) {
	body, err := c.doTenant("tenant-create", TenantFrame{Op: OpTenantCreate, Tenant: id, Lines: lines, Quota: quotaOps})
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
	_, err := c.doTenant("tenant-rotate", TenantFrame{Op: OpTenantRotate, Tenant: id})
	return err
}

// TenantRotateStep advances a rotation sweep by up to max lines,
// reporting progress (operator plane).
func (c *Client) TenantRotateStep(id uint32, max uint32) (rotated uint32, cursor uint64, done bool, err error) {
	body, err := c.doTenant("tenant-step", TenantFrame{Op: OpTenantStep, Tenant: id, Max: max})
	if err != nil {
		return 0, 0, false, err
	}
	if len(body) != 13 {
		return 0, 0, false, &FrameError{Reason: fmt.Sprintf("tenant step returned %d bytes", len(body))}
	}
	return beU32(body[1:]), beU64(body[5:]), body[0] != 0, nil
}
