package devnet

import (
	"soteria/internal/device"
	"soteria/internal/telemetry"
)

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

// PanicOnSnapshotForTest makes the server's control target a stub whose
// Snapshot panics, so an OpSnapshot request panics inside the handler.
// Test-only.
func (s *Server) PanicOnSnapshotForTest() { s.ctl = panickingControl{} }

type panickingControl struct{}

func (panickingControl) Info() device.Info             { return device.Info{} }
func (panickingControl) Down() bool                    { return false }
func (panickingControl) Snapshot() *telemetry.Snapshot { panic("snapshot stub") }
