// Package sim provides the tiny timing substrate shared by the performance
// model: a picosecond-resolution clock and a bank-busy resource model. The
// reproduction is trace-driven rather than cycle-accurate, so the only
// global ordering primitive needed is a monotonically advancing clock that
// components charge latencies against.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated instant measured in integer picoseconds. Using an
// integer avoids float drift across billions of events; 2^63 ps is roughly
// 106 days of simulated time, far beyond any run we perform.
type Time int64

// FromDuration converts a wall-clock duration into simulated picoseconds.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds() * 1000) }

// Duration converts a simulated instant back into a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t/1000) * time.Nanosecond }

// Picoseconds returns the raw picosecond count.
func (t Time) Picoseconds() int64 { return int64(t) }

// String renders the time in nanoseconds for human consumption.
func (t Time) String() string { return fmt.Sprintf("%dns", t/1000) }

// Clock is the global simulation clock. The zero value starts at time zero.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative advances are ignored so
// that out-of-order latency reports cannot move time backwards.
func (c *Clock) Advance(d Time) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock to t if t is in the future.
func (c *Clock) AdvanceTo(t Time) {
	if t > c.now {
		c.now = t
	}
}

// CyclesToTime converts a cycle count at the given frequency into simulated
// picoseconds, rounding to the nearest picosecond.
func CyclesToTime(cycles float64, hz float64) Time {
	return Time(cycles * 1e12 / hz)
}

// Banks models a set of independently busy resources (NVM banks). A request
// to bank b issued at time t starts at max(t, free[b]) and occupies the bank
// for its service latency.
type Banks struct {
	free []Time
}

// NewBanks returns a bank model with n banks, all free at time zero.
func NewBanks(n int) *Banks {
	if n <= 0 {
		n = 1
	}
	return &Banks{free: make([]Time, n)}
}

// N returns the number of banks.
func (b *Banks) N() int { return len(b.free) }

// BankFor maps a line address to a bank by low-order interleaving.
func (b *Banks) BankFor(lineAddr uint64) int { return int(lineAddr % uint64(len(b.free))) }

// Schedule reserves bank `bank` for `service` starting no earlier than
// `earliest` and returns the completion time.
func (b *Banks) Schedule(bank int, earliest Time, service Time) (done Time) {
	start := earliest
	if b.free[bank] > start {
		start = b.free[bank]
	}
	done = start + service
	b.free[bank] = done
	return done
}

// NextFree returns the time at which the given bank becomes idle.
func (b *Banks) NextFree(bank int) Time { return b.free[bank] }

// Reset marks every bank free at time zero.
func (b *Banks) Reset() {
	for i := range b.free {
		b.free[i] = 0
	}
}
