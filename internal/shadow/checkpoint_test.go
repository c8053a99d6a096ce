package shadow

import (
	"bytes"
	"testing"

	"soteria/internal/ctrenc"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Restoring either table reads zero device lines — the BMT's trusted node
// copy travels in the checkpoint — reproduces the checkpoint bytes, and
// leaves a table whose next writes move the root exactly as the source's.
func TestRestoreReadsNoDeviceLine(t *testing.T) {
	eng := ctrenc.MustNewEngine([]byte("shadow-test"))
	const slots = 32

	t.Run("table", func(t *testing.T) {
		tb, dev := setup(t, true)
		for i := 0; i < 12; i++ {
			if err := tb.Write(i, sampleEntry(uint64(i)*0x40)); err != nil {
				t.Fatal(err)
			}
		}
		w := &sim.SnapW{}
		tb.Checkpoint(w)
		reads := dev.Stats().Reads
		rt, err := RestoreTable(eng, devStore{dev}, 0, slots, slots*nvm.LineSize, Options{Duplicate: true}, sim.NewSnapR(w.Data()))
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().Reads - reads; got != 0 {
			t.Fatalf("RestoreTable read %d device lines", got)
		}
		w2 := &sim.SnapW{}
		rt.Checkpoint(w2)
		if !bytes.Equal(w.Data(), w2.Data()) {
			t.Fatal("checkpoint of the restored table differs")
		}
		for _, tbl := range []*Table{tb, rt} {
			if err := tbl.Write(20, sampleEntry(0x9000)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Invalidate(3); err != nil {
				t.Fatal(err)
			}
		}
		if tb.Root() != rt.Root() {
			t.Fatal("restored table's root diverged")
		}
	})

	t.Run("content", func(t *testing.T) {
		dev, err := nvm.NewDevice(1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		treeBase := uint64(slots * ContentLinesPerSlot * nvm.LineSize)
		ct, err := NewContentTable(eng, devStore{dev}, 0, slots, treeBase)
		if err != nil {
			t.Fatal(err)
		}
		var img nvm.Line
		for i := 0; i < 12; i++ {
			img[0] = byte(i)
			if err := ct.Write(i, uint64(i)*0x40, &img); err != nil {
				t.Fatal(err)
			}
		}
		w := &sim.SnapW{}
		ct.Checkpoint(w)
		reads := dev.Stats().Reads
		rt, err := RestoreContentTable(eng, devStore{dev}, 0, slots, treeBase, sim.NewSnapR(w.Data()))
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().Reads - reads; got != 0 {
			t.Fatalf("RestoreContentTable read %d device lines", got)
		}
		w2 := &sim.SnapW{}
		rt.Checkpoint(w2)
		if !bytes.Equal(w.Data(), w2.Data()) {
			t.Fatal("checkpoint of the restored content table differs")
		}
		img[0] = 0xEE
		for _, tbl := range []*ContentTable{ct, rt} {
			if err := tbl.Write(20, 0x9000, &img); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Invalidate(3); err != nil {
				t.Fatal(err)
			}
		}
		if ct.Root() != rt.Root() {
			t.Fatal("restored content table's root diverged")
		}
	})
}
