package faultsim

import (
	"testing"

	"soteria/internal/config"
)

// Block seeds must differ across blocks and depend on the master seed.
func TestBlockSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for b := 0; b < 1000; b++ {
		s := blockSeed(42, b)
		if seen[s] {
			t.Fatalf("block seed collision at block %d", b)
		}
		seen[s] = true
	}
	if blockSeed(1, 0) == blockSeed(2, 0) {
		t.Fatal("block seed ignores the master seed")
	}
}

// BlockRunner bookkeeping: trials partition exactly into blocks.
func TestBlockRunnerPartition(t *testing.T) {
	br, err := NewBlockRunner(Options{
		Config: config.Table4(), TotalFIT: 10, Trials: 1000, BlockSize: 300,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if br.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", br.NumBlocks())
	}
	total := 0
	for b := 0; b < br.NumBlocks(); b++ {
		n := br.BlockTrials(b)
		if n <= 0 || n > 300 {
			t.Fatalf("block %d has %d trials", b, n)
		}
		total += n
	}
	if total != 1000 {
		t.Fatalf("blocks cover %d trials, want 1000", total)
	}
}
