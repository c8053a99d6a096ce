// Package sim provides the tiny timing substrate shared by the performance
// model: a picosecond time type and a bank-busy resource model. The
// reproduction is trace-driven rather than cycle-accurate, and there is no
// global clock: each component (a controller, a device shard, a CPU model)
// keeps its own current time and charges latencies against it, and a
// caller passes that time into the next call.
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

// Banks models a set of independently busy resources (NVM banks). A request
// to bank b issued at time t starts at max(t, free[b]) and occupies the bank
// for its service latency.
type Banks struct {
	free []Time
	// mask is n-1 when the bank count n is a power of two (every shipped
	// configuration), so BankFor masks instead of dividing; -1 otherwise.
	mask int64
}

// NewBanks returns a bank model with n banks, all free at time zero.
func NewBanks(n int) *Banks {
	if n <= 0 {
		n = 1
	}
	mask := int64(-1)
	if n&(n-1) == 0 {
		mask = int64(n - 1)
	}
	return &Banks{free: make([]Time, n), mask: mask}
}

// N returns the number of banks.
func (b *Banks) N() int { return len(b.free) }

// BankFor maps a line address to a bank by low-order interleaving.
func (b *Banks) BankFor(lineAddr uint64) int {
	if b.mask >= 0 {
		return int(lineAddr & uint64(b.mask))
	}
	return int(lineAddr % uint64(len(b.free)))
}

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
