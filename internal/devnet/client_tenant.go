package devnet

import "fmt"

// doTenant is do for a tenant-plane op, its body rendered by the one
// tenant frame codec.
func (c *Client) doTenant(opName string, f TenantFrame) ([]byte, error) {
	return c.do(opName, f.Op, f.Encode())
}

// AttachTenant authenticates this client's connection as tenant id and
// returns the tenant's extent size in lines. From then on Read, Write and
// Drain take tenant-local addresses and run in the tenant's space; the
// link re-attaches after every reconnect.
func (c *Client) AttachTenant(id uint32, token uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.what = "tenant-attach"
	return c.l.attachTenant(id, token)
}

// TenantRotate begins an online key rotation of tenant id, which must be
// the tenant this client is attached as.
func (c *Client) TenantRotate(id uint32) error {
	_, err := c.doTenant("tenant-rotate", TenantFrame{Op: OpTenantRotate, Tenant: id})
	return err
}

// TenantRotateStep advances the attached tenant id's rotation sweep by up
// to max lines, reporting the lines it re-encrypted and whether the
// rotation is complete.
func (c *Client) TenantRotateStep(id uint32, max uint32) (rotated uint32, done bool, err error) {
	body, err := c.doTenant("tenant-step", TenantFrame{Op: OpTenantStep, Tenant: id, Max: max})
	if err != nil {
		return 0, false, err
	}
	if len(body) != 5 {
		return 0, false, &FrameError{Reason: fmt.Sprintf("tenant step returned %d bytes", len(body))}
	}
	return beU32(body[1:]), body[0] != 0, nil
}
