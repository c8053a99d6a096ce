package memctrl

import (
	"fmt"
	"slices"
	"sort"

	"soteria/internal/metacache"
)

// strategy is the metadata-persistence policy of the controller: what extra
// state is persisted on every metadata mutation, what survives a crash, and
// how a consistent image is rebuilt from it. The data path (encryption,
// MACs, the clone fault handler, the WPQ) is shared; a strategy only hooks
// the points where persistence decisions are made.
//
// Hook contract (all hooks run with the controller lock-free and
// single-threaded, like everything else):
//
//   - install runs once at construction under bootstrap (writes bypass the
//     WPQ and the books) and builds the strategy's persistent structures.
//   - onDirty fires after a metadata block was modified in cache (counter
//     bump, parent bump, recovery reseed). It may write tracking state but
//     must not evict.
//   - commitLeaf fires inside the sealed data-commit (and page-reencrypt)
//     transaction for the leaf counter block of the written data; whatever
//     it persists commits atomically with the ciphertext and data MAC.
//   - onDirty and commitLeaf name the block by its home address and by the
//     metadata-cache slot it is resident at (its shadow-table slot), so a
//     hook reaches the way without probing the cache.
//   - needsForce bounds in-cache counter drift: returning true forces a
//     write-back of the leaf after the sealed commit.
//   - afterOp runs at the end of every data operation, outside any seal;
//     deferred maintenance (e.g. Triad's relaxed-level write-backs) goes
//     here.
//   - onCrash captures whatever must survive into the strategy's persistent
//     registers; everything else is lost.
//   - recover rebuilds a verified image. It must clear c.crashed and
//     c.recovering itself (before reseeding the cache) and emit the
//     "recover-done" note on success.
//
// A strategy that tracks blocks in a shadow table installs it as c.shadow.
// The controller retires a block's entry itself (untrack) once the block's
// write-back group is pushed or its update is lost, and TrackedSlots,
// ShadowStats and AttachTelemetry read the table directly.
type strategy interface {
	name() string
	// shadowLines returns how many NVM lines of shadow region the layout
	// must reserve for cacheSlots tracked blocks (0 = no shadow region).
	shadowLines(cacheSlots uint64) uint64
	install(c *Controller) error
	onDirty(c *Controller, home uint64, way int)
	commitLeaf(c *Controller, home uint64, way int) error
	needsForce(c *Controller, blk *metacache.Block, slot int) bool
	afterOp(c *Controller) error
	onCrash(c *Controller)
	recover(c *Controller) (*RecoveryReport, error)
}

// DefaultStrategy is the strategy selected by an empty Options.Strategy.
const DefaultStrategy = "soteria"

// strategyFactories is the registry of metadata-persistence schemes, in
// presentation order. A new scheme is one entry here away from the full
// chaos conformance suite and the cross-scheme experiment table.
var strategyFactories = []struct {
	name string
	make func() strategy
}{
	{"soteria", func() strategy { return &shadowStrategy{} }},
	{"anubis-shadow", func() strategy { return &shadowStrategy{content: true} }},
	{"triad-nvm", func() strategy { return &triadStrategy{persistLevels: 1} }},
	{"triad-nvm-2", func() strategy { return &triadStrategy{persistLevels: 2} }},
}

// Strategies lists the registered metadata-persistence strategies in
// presentation order.
func Strategies() []string {
	out := make([]string, len(strategyFactories))
	for i, f := range strategyFactories {
		out[i] = f.name
	}
	return out
}

// newStrategy instantiates the named strategy ("" selects the default).
func newStrategy(name string) (strategy, error) {
	if name == "" {
		name = DefaultStrategy
	}
	for _, f := range strategyFactories {
		if f.name == name {
			return f.make(), nil
		}
	}
	return nil, fmt.Errorf("memctrl: unknown strategy %q (registered: %v)", name, Strategies())
}

// validateStrategyOptions rejects option combinations that only make sense
// for the Soteria shadow scheme.
func validateStrategyOptions(s strategy, opt Options) error {
	if s.name() == "soteria" {
		return nil
	}
	if opt.EagerTreeUpdate {
		return fmt.Errorf("memctrl: EagerTreeUpdate is a soteria-only ablation (strategy %q)", s.name())
	}
	if opt.DisableShadowHalfRepair {
		return fmt.Errorf("memctrl: DisableShadowHalfRepair needs Soteria duplicated entries (strategy %q)", s.name())
	}
	return nil
}

// StrategyReliability describes the named strategy's persistent footprint
// for reliability modeling (faultsim scheme sizing): the shadow-region line
// count implied by a tracked-slot budget, and the Triad persisted-level
// threshold. persistLevels is 0 for schemes that persist every tree level
// on write-back (no level is recomputable at recovery); for Triad it is N,
// meaning levels strictly above N+1 are rebuilt wholesale while level N+1
// seeds the bounded counter search.
func StrategyReliability(name string, trackedSlots uint64) (shadowLines uint64, persistLevels int, err error) {
	s, err := newStrategy(name)
	if err != nil {
		return 0, 0, err
	}
	if t, ok := s.(*triadStrategy); ok {
		persistLevels = t.persistLevels
	}
	return s.shadowLines(trackedSlots), persistLevels, nil
}

// reseedRecovered reinstalls reconstructed blocks as dirty cache contents
// (which re-tracks them at their new slots), retires each block's
// superseded tracking slots, and flushes through the ordinary lazy
// write-back machinery, leaving NVM self-consistent. Shared by every
// tracking-table strategy.
//
// Each block's old slots are retired immediately after its re-insert, not
// at the end: once the flush starts folding in counter bumps, a stale entry
// left valid at the old slot would describe content older than what lands
// in NVM, and a nested crash would let the next recovery roll the block —
// and silently its already-flushed children — back to it. Between a
// re-insert and its retirement the duplicate entries are content-identical,
// so a crash in that window is harmless.
//
// Order matters: ascending old slot. A claim takes the lowest free way
// first, so the i-th re-seeded block lands at way i of its set, and any
// still-valid entry at that slot would belong to a block with a smaller
// minimum slot — re-inserted earlier, its old slots already retired. The
// re-insert therefore never overwrites a live entry.
func (c *Controller) reseedRecovered(recovered map[uint64]metacache.Block, slotsOf map[uint64][]uint64) error {
	c.crashed = false
	c.recovering = false
	c.note("recover-reseed")
	order := make([]uint64, 0, len(recovered))
	for addr := range recovered {
		order = append(order, addr)
	}
	sort.Slice(order, func(i, j int) bool {
		return slices.Min(slotsOf[order[i]]) < slices.Min(slotsOf[order[j]])
	})
	for _, addr := range order {
		b, err := c.claimWay(addr)
		if err != nil {
			return err
		}
		if b != nil {
			*b = recovered[addr]
		}
		way := c.mcache.SlotOf(addr)
		c.mcache.MarkDirty(way)
		c.strat.onDirty(c, addr, way)
		for _, s := range slotsOf[addr] {
			if int(s) != way {
				c.invalidateSlot(int(s))
			}
		}
	}
	c.FlushAll(c.now)
	return nil
}

// wipeSlots clears tracking slots as recovery cleanup: each one describes
// content that now matches memory (or was already counted lost), so the
// wipe writes bypass the WPQ books like other recovery bookkeeping. The
// slot of a block still dirty in cache is kept: the flush was refused
// with ErrSetCapacity, and that entry is what tracks the block.
func (c *Controller) wipeSlots(slotLists ...[]uint64) error {
	held := make(map[uint64]bool)
	for _, addr := range c.mcache.DirtyLines() {
		held[uint64(c.mcache.SlotOf(addr))] = true
	}
	c.bootstrap = true
	defer func() { c.bootstrap = false }()
	for _, slots := range slotLists {
		for _, s := range slots {
			if held[s] {
				continue
			}
			c.seal("shadow-op")
			err := c.shadow.Reset(s)
			c.unseal("shadow-op")
			if err != nil {
				return err
			}
		}
	}
	return nil
}
