package device

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// ImageDigests returns, in shard order, a digest of each shard's NVM image
// as its public queries report it: device statistics and, for every
// materialized line in ascending order, its address, wear and raw cells.
func ImageDigests(d *Device) []string {
	out := make([]string, len(d.shards))
	for i, s := range d.shards {
		s.mu.Lock()
		dev := s.ctrl.Device()
		st := dev.Stats()
		b := binary.LittleEndian.AppendUint64(nil, st.Reads)
		b = binary.LittleEndian.AppendUint64(b, st.Writes)
		b = binary.LittleEndian.AppendUint64(b, st.CorrectedLines)
		b = binary.LittleEndian.AppendUint64(b, st.UncorrectableHits)
		dev.ForEachTouched(func(a uint64) {
			raw := dev.ReadRaw(a)
			b = binary.LittleEndian.AppendUint64(b, a)
			b = binary.LittleEndian.AppendUint64(b, dev.WearOf(a))
			b = append(b, raw[:]...)
		})
		s.mu.Unlock()
		sum := sha256.Sum256(b)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}
