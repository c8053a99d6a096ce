package devnet

// BreakConnForTest severs the client's current connection without
// clearing it, simulating a transport failure the next operation will
// discover mid-exchange. Test-only.
func (c *Client) BreakConnForTest() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.l.conn != nil {
		c.l.conn.Close()
	}
}
