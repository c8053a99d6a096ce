package memctrl

import (
	"fmt"

	"soteria/internal/ctrenc"
)

// Osiris counter recovery (Ye et al., MICRO 2018), as Soteria uses it
// (Table 1: "for counter recovery, we use the state-of-the-art scheme,
// Osiris").
//
// Encryption counters cached on chip may be ahead of their stale NVM copy
// when power fails. The controller bounds the number of in-cache increments
// between write-backs to osirisLimit, so recovery can try the stale value
// plus 0..limit increments and accept the candidate that passes an
// independent check — here, the per-block data MAC that was persisted
// together with every ciphertext write. Because each data block carries its
// own MAC, every minor counter of a 64-ary split-counter block is
// recoverable independently, and the major counter's low bits are restored
// from the shadow entry. Triad reuses recoverValue one level up.

// recoverValue searches stale, stale+1, ..., stale+limit for the first
// value accepted by verify. ok is false when no candidate passes — the
// counter was updated more times than the bound allows (a controller bug)
// or the verification target itself is corrupt.
func recoverValue(stale uint64, limit int, verify func(v uint64) bool) (uint64, bool) {
	for d := 0; d <= limit; d++ {
		if v := stale + uint64(d); verify(v) {
			return v, true
		}
	}
	return 0, false
}

// restoreLSB returns the smallest value >= stale whose low 16 bits equal
// lsb. This reconstructs a full counter from its stale memory copy plus the
// 16-bit LSBs kept in a Soteria shadow entry; it is exact as long as the
// counter advanced fewer than 2^16 times since its last write-back, which
// the controller guarantees by forcing a write-back before the LSBs can
// wrap (§3.2.1 of the paper argues 2^16 in-cache updates without eviction
// is already "extremely rare").
func restoreLSB(stale uint64, lsb uint16) uint64 {
	high := stale >> 16
	cand := high<<16 | uint64(lsb)
	if cand < stale {
		cand += 1 << 16
	}
	return cand
}

// recoverCounterBlock reconstructs the up-to-date counters of a
// split-counter block: the major counter from its shadow LSBs, then each
// minor independently by bounded trials against verify, which checks a
// candidate counter for one slot (typically by recomputing the covered data
// block's MAC). Slots whose verification never passes are reported in
// failed (their covered data blocks are unrecoverable). The result's MAC
// field is zero.
func recoverCounterBlock(stale ctrenc.CounterBlock, majorLSB uint16, limit int, verify func(slot int, counter uint64) bool) (rec ctrenc.CounterBlock, failed []int, err error) {
	if limit < 0 {
		return rec, nil, fmt.Errorf("osiris: negative trial limit %d", limit)
	}
	rec.Major = restoreLSB(stale.Major, majorLSB)
	rec.Minors = stale.Minors
	majorBumped := rec.Major != stale.Major
	for slot := range rec.Minors {
		start := uint64(stale.Minors[slot])
		if majorBumped {
			// A major bump re-encrypted the page and zeroed minors;
			// the stale minors are meaningless, so search from 0.
			start = 0
		}
		v, ok := recoverValue(start, limit, func(m uint64) bool {
			if m > 63 {
				return false
			}
			return verify(slot, rec.Major<<6|m)
		})
		if !ok {
			failed = append(failed, slot)
			continue
		}
		rec.Minors[slot] = uint8(v)
	}
	return rec, failed, nil
}
