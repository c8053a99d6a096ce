// Package memctrl is the secure NVM memory controller — the component the
// whole paper is about. It composes every substrate in this repository:
//
//   - counter-mode encryption with split counters (internal/ctrenc),
//   - a lazily updated SGX-style Tree of Counters (internal/itree),
//   - the volatile metadata cache (internal/metacache),
//   - Anubis shadow tracking (internal/shadow): Soteria's duplicated
//     counter-LSB entries, or full-image entries for the anubis-shadow
//     strategy, with Osiris counter recovery (osiris.go),
//   - Soteria metadata cloning and fault handling (internal/core),
//   - an ADR write-pending queue over a fault-injectable, ECC-protected
//     NVM device (internal/wpq, internal/nvm, internal/ecc).
//
// The controller is byte-accurate (data really is encrypted, MACed,
// verified and recovered) and simultaneously maintains the timing model the
// performance figures are measured on.
package memctrl

import (
	"errors"
	"fmt"
	"strings"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/ctrenc"
	"soteria/internal/ecc"
	"soteria/internal/inject"
	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/nvm"
	"soteria/internal/shadow"
	"soteria/internal/sim"
	"soteria/internal/wpq"
)

// Mode selects the protection scheme, matching the schemes compared in
// Fig 10 and Fig 11 of the paper.
type Mode int

// Controller modes.
const (
	// ModeNonSecure is a plain NVM controller: no encryption, no
	// integrity tree, no shadow region.
	ModeNonSecure Mode = iota
	// ModeBaseline is the paper's Secure Baseline: counter-mode
	// encryption, lazily updated ToC, Anubis cache tracking — no
	// clones, single-copy shadow entries.
	ModeBaseline
	// ModeSRC is Soteria Relaxed Cloning.
	ModeSRC
	// ModeSAC is Soteria Aggressive Cloning.
	ModeSAC
)

func (m Mode) String() string {
	switch m {
	case ModeNonSecure:
		return "non-secure"
	case ModeBaseline:
		return "secure-baseline"
	case ModeSRC:
		return "soteria-SRC"
	case ModeSAC:
		return "soteria-SAC"
	default:
		return "?"
	}
}

// ParseMode reads a mode name as the command-line tools take it, in any
// case: nonsecure (non-secure, ns), baseline (secure-baseline), src or
// sac.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "nonsecure", "non-secure", "ns":
		return ModeNonSecure, nil
	case "baseline", "secure-baseline":
		return ModeBaseline, nil
	case "src":
		return ModeSRC, nil
	case "sac":
		return ModeSAC, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want nonsecure|baseline|src|sac)", s)
}

// Policy returns the clone policy a mode implies.
func (m Mode) Policy() core.ClonePolicy {
	switch m {
	case ModeSRC:
		return core.SRC()
	case ModeSAC:
		return core.SAC()
	default:
		return core.Baseline()
	}
}

// WriteCat categorizes NVM writes for the Fig 10b breakdown.
type WriteCat int

// NVM write categories.
const (
	WCData WriteCat = iota
	WCDataMAC
	WCShadow
	WCMetadata // home-copy metadata write-back
	WCClone    // Soteria clone writes
	WCRecovery
	wcCount
)

func (w WriteCat) String() string {
	return [...]string{"data", "data-mac", "shadow", "metadata", "clone", "recovery"}[w]
}

// Stats aggregates controller activity.
type Stats struct {
	MemRequests   uint64
	DataReads     uint64
	DataWrites    uint64
	ColdReads     uint64
	NVMWrites     [wcCount]uint64
	NVMReads      uint64
	WPQForwards   uint64
	PageReencrypt uint64
	ForcedWB      uint64
	RecoveredOK   uint64
	RecoveryLost  uint64
}

// Add accumulates o into s, field by field (a device sums its shards).
func (s *Stats) Add(o Stats) {
	s.MemRequests += o.MemRequests
	s.DataReads += o.DataReads
	s.DataWrites += o.DataWrites
	s.ColdReads += o.ColdReads
	for i := range s.NVMWrites {
		s.NVMWrites[i] += o.NVMWrites[i]
	}
	s.NVMReads += o.NVMReads
	s.WPQForwards += o.WPQForwards
	s.PageReencrypt += o.PageReencrypt
	s.ForcedWB += o.ForcedWB
	s.RecoveredOK += o.RecoveredOK
	s.RecoveryLost += o.RecoveryLost
}

// TotalNVMWrites sums all write categories.
func (s Stats) TotalNVMWrites() uint64 {
	var t uint64
	for _, v := range s.NVMWrites {
		t += v
	}
	return t
}

// Errors surfaced by the controller.
var (
	// ErrUnverifiable: a metadata node (and all of its clones, if any)
	// is dead; the covered region cannot be verified.
	ErrUnverifiable = errors.New("memctrl: metadata unverifiable")
	// ErrTamper: integrity verification failed with clean ECC on all
	// copies — an active attack signature.
	ErrTamper = errors.New("memctrl: integrity violation (tamper/replay)")
	// ErrDataError: the data block itself holds an uncorrectable error.
	ErrDataError = errors.New("memctrl: uncorrectable data error")
	// ErrMACMismatch: the data MAC check failed.
	ErrMACMismatch = errors.New("memctrl: data MAC mismatch")
	// ErrCrashed: the controller needs Recover() before use.
	ErrCrashed = errors.New("memctrl: controller crashed; call Recover")
	// ErrNotCrashed: Recover was called on a live controller.
	ErrNotCrashed = errors.New("memctrl: Recover called without a crash")
	// ErrSetCapacity: a metadata block must be filled into a cache set
	// whose every way is pinned by the operation in progress. The
	// operation stops before it changes what it was refused; no
	// acknowledged update is lost, and a retry may succeed.
	ErrSetCapacity = errors.New("memctrl: metadata cache set has no unpinned way")
)

// Options tune non-default controller behaviour.
type Options struct {
	// EagerTreeUpdate switches the ToC from the paper's lazy update to
	// the eager scheme of §2.5: every data write propagates fresh MACs
	// along the whole branch to the root. The root is always current, so
	// no Anubis shadow tracking is needed (and none is performed) — but
	// every write turns into a branch of write-backs, the "extreme
	// slowdown" the paper cites as the reason to go lazy. Exposed for
	// the ablation experiment.
	EagerTreeUpdate bool
	// DisableShadowHalfRepair plumbs shadow.Options.DisableHalfRepair
	// through: recovery skips the duplicated-half repair, deliberately
	// breaking Soteria's shadow resilience. Debug/chaos-harness only.
	DisableShadowHalfRepair bool
	// Strategy selects the metadata-persistence scheme (what is persisted
	// on metadata mutations, what survives a crash, how recovery rebuilds
	// a verified image). Empty selects DefaultStrategy ("soteria"); see
	// Strategies() for the registered schemes.
	Strategy string
}

// Controller is the secure memory controller front-end. It is not
// goroutine-safe: the simulation is single-threaded by design.
type Controller struct {
	cfg    config.SystemConfig
	mode   Mode
	policy core.ClonePolicy
	layout *itree.Layout
	dev    *nvm.Device
	banks  *sim.Banks
	q      *wpq.Queue
	eng    *ctrenc.Engine
	mcache *metacache.Cache
	fh     *core.FaultHandler
	strat  strategy

	// shadow is the tracking table of the shadow strategies, in their
	// entry format; nil for Triad. Its lines and its BMT's leaf MACs
	// (on-chip SRAM, not NVM) survive power loss; Crash drops the rest.
	shadow *shadow.Table

	// Persistent on-chip state (survives power loss in the ADR domain):
	// the ToC root node.
	root itree.Node

	readLat, writeLat sim.Time
	fwdLat            sim.Time
	eager             bool

	now        sim.Time
	crashed    bool
	recovering bool
	bootstrap  bool
	// stats counts every event since construction; Stats reports the
	// growth since atReset, the books as the last ResetStats left them.
	stats, atReset Stats
	cascade        int
	opt            Options
	tel            telemetryHooks

	// hook observes seal/note events (chaos injection); sealDepth tracks
	// nesting so helpers stay balanced across early returns.
	hook      inject.Hook
	sealDepth int

	// fills holds the verified NVM lines of fetches waiting for their
	// cache way (pending-fill registers, innermost last). Claiming the way
	// can write back a dirty victim, and that cascade can write the very
	// block being fetched back to NVM with newer counters; writebackBlock
	// then overwrites the pending line with what it persisted, so the fill
	// never decodes content older than memory. Lines are held by value,
	// and a fetch reads its line straight into its register.
	fills []pendingFill

	// wbAddrs/wbWrites are write-back scratch, reused across calls: the
	// copy-address list and its atomic write group are fully consumed by
	// PushAtomic before anything can re-enter writebackBlock.
	wbAddrs  []uint64
	wbWrites []wpq.Write
}

// New constructs a controller in the given mode over a fresh NVM device.
func New(cfg config.SystemConfig, mode Mode, key []byte, opt Options) (*Controller, error) {
	return newController(cfg, mode, mode.Policy(), key, opt)
}

// NewWithPolicy constructs a secure controller with an explicit clone
// policy (used by depth-sweep ablations). Shadow entries are duplicated
// (Soteria style) whenever the policy clones anything.
func NewWithPolicy(cfg config.SystemConfig, policy core.ClonePolicy, key []byte, opt Options) (*Controller, error) {
	mode := ModeSRC
	if policy.Depth(1, 9) == 1 && policy.Depth(9, 9) == 1 {
		mode = ModeBaseline
	}
	return newController(cfg, mode, policy, key, opt)
}

func newController(cfg config.SystemConfig, mode Mode, policy core.ClonePolicy, key []byte, opt Options) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	c := &Controller{
		cfg:      cfg,
		mode:     mode,
		policy:   policy,
		readLat:  sim.FromDuration(cfg.NVM.ReadLatency),
		writeLat: sim.FromDuration(cfg.NVM.WriteLatency),
		fwdLat:   sim.FromDuration(cfg.NVM.ReadLatency) / 10,
		eager:    opt.EagerTreeUpdate,
		opt:      opt,
	}
	strat, err := newStrategy(opt.Strategy)
	if err != nil {
		return nil, err
	}
	if err := validateStrategyOptions(strat, opt); err != nil {
		return nil, err
	}
	c.strat = strat
	c.banks = sim.NewBanks(cfg.NVM.Banks)

	if mode == ModeNonSecure {
		dev, err := nvm.NewDevice(cfg.NVM.CapacityBytes, ecc.NewChipkill())
		if err != nil {
			return nil, err
		}
		c.dev = dev
		q, err := wpq.New(dev, c.banks, cfg.NVM.WPQEntries, c.writeLat)
		if err != nil {
			return nil, err
		}
		c.q = q
		return c, nil
	}

	mcfg := cfg.Security.MetadataCache
	shadowLines := c.strat.shadowLines(uint64(mcfg.Sets() * mcfg.Ways))

	layout, err := policy.Layout(itree.Params{
		DataBytes:     cfg.NVM.CapacityBytes,
		CounterArity:  cfg.Security.CounterArity,
		TreeArity:     cfg.Security.TreeArity,
		ShadowEntries: shadowLines,
	})
	if err != nil {
		return nil, err
	}
	c.layout = layout
	c.fills = make([]pendingFill, 0, fillRegisters)

	dev, err := nvm.NewDevice(roundUp(layout.Total, nvm.LineSize), ecc.NewChipkill())
	if err != nil {
		return nil, err
	}
	c.dev = dev
	q, err := wpq.New(dev, c.banks, cfg.NVM.WPQEntries, c.writeLat)
	if err != nil {
		return nil, err
	}
	c.q = q

	eng, err := ctrenc.NewEngine(key)
	if err != nil {
		return nil, err
	}
	c.eng = eng

	mc, err := metacache.New(mcfg, layout.TopLevel())
	if err != nil {
		return nil, err
	}
	c.mcache = mc

	// Strategy installation initializes its tracking structures (e.g. the
	// shadow table and its BMT); those boot-time writes go straight to the
	// device without timing charges or statistics.
	c.bootstrap = true
	err = c.strat.install(c)
	c.bootstrap = false
	if err != nil {
		return nil, err
	}

	c.fh = core.NewFaultHandler(devMem{dev}, layout)
	return c, nil
}

// osirisLimit bounds a counter's in-cache increments between forced
// write-backs, so Osiris recovery tries at most osirisLimit+1 candidates.
const osirisLimit = 8

func roundUp(v, m uint64) uint64 { return (v + m - 1) / m * m }

// SetHook installs the chaos-injection hook on the controller and on every
// layer below it (WPQ, device). Passing nil removes it everywhere.
func (c *Controller) SetHook(h inject.Hook) {
	c.hook = h
	c.q.SetHook(h)
	c.dev.SetWriteHook(h)
}

// seal begins a crash-atomic transaction: device writes until the matching
// unseal are committed from the ADR domain as one unit and must not be
// torn by the injection hook.
func (c *Controller) seal(label string) {
	c.sealDepth++
	if c.hook != nil {
		c.hook.Event(inject.Event{Kind: inject.SealBegin, Label: label})
	}
}

func (c *Controller) unseal(label string) {
	c.sealDepth--
	if c.hook != nil {
		c.hook.Event(inject.Event{Kind: inject.SealEnd, Label: label})
	}
}

// note emits a free-form phase marker to the hook.
func (c *Controller) note(label string) {
	if c.hook != nil {
		c.hook.Event(inject.Event{Kind: inject.Note, Label: label})
	}
}

// Mode returns the controller's protection mode.
func (c *Controller) Mode() Mode { return c.mode }

// TrackedSlots lists the shadow slots currently holding valid entries —
// the blocks the strategy is tracking right now. Empty in non-secure mode,
// after a crash until Recover reads the table back (the valid flags are
// volatile), and for strategies that keep no shadow table. The chaos
// harness uses it to aim shadow-entry faults at entries that actually
// matter.
func (c *Controller) TrackedSlots() []uint64 {
	if c.shadow == nil {
		return nil
	}
	return c.shadow.ValidSlots()
}

// Layout exposes the NVM address map (nil in non-secure mode).
func (c *Controller) Layout() *itree.Layout { return c.layout }

// Device exposes the underlying NVM for fault injection in tests and
// experiments.
func (c *Controller) Device() *nvm.Device { return c.dev }

// Stats returns the controller statistics since the last ResetStats.
func (c *Controller) Stats() Stats {
	s, z := c.stats, c.atReset
	s.MemRequests -= z.MemRequests
	s.DataReads -= z.DataReads
	s.DataWrites -= z.DataWrites
	s.ColdReads -= z.ColdReads
	for i := range s.NVMWrites {
		s.NVMWrites[i] -= z.NVMWrites[i]
	}
	s.NVMReads -= z.NVMReads
	s.WPQForwards -= z.WPQForwards
	s.PageReencrypt -= z.PageReencrypt
	s.ForcedWB -= z.ForcedWB
	s.RecoveredOK -= z.RecoveredOK
	s.RecoveryLost -= z.RecoveryLost
	return s
}

// MetaStats returns the metadata cache statistics (zero value in
// non-secure mode).
func (c *Controller) MetaStats() metacache.Stats {
	if c.mcache == nil {
		return metacache.Stats{}
	}
	return c.mcache.Stats()
}

// WPQStats returns the write-pending-queue statistics.
func (c *Controller) WPQStats() wpq.Stats { return c.q.Stats() }

// FaultStats returns the Soteria fault-handler statistics (zero value in
// non-secure mode).
func (c *Controller) FaultStats() core.Stats {
	if c.fh == nil {
		return core.Stats{}
	}
	return c.fh.Stats()
}

// ShadowStats returns shadow-table statistics since construction or the
// last crash (zero value in non-secure mode and for strategies without a
// shadow table).
func (c *Controller) ShadowStats() shadow.Stats {
	if c.shadow == nil {
		return shadow.Stats{}
	}
	return c.shadow.Stats()
}

// devMem adapts the device for the fault handler (repair writes bypass the
// WPQ: recovery is off the critical path).
type devMem struct{ dev *nvm.Device }

func (m devMem) ReadLine(addr uint64) (nvm.Line, bool) {
	r := m.dev.Read(addr)
	return r.Data, r.Uncorrectable
}

func (m devMem) WriteLine(addr uint64, line *nvm.Line) { m.dev.Write(addr, line) }

// shadowStore adapts WPQ-routed I/O for the shadow table; writes are
// counted in the shadow category and coalesce in the WPQ.
type shadowStore struct{ c *Controller }

func (c *Controller) shadowStore() shadow.Store { return shadowStore{c} }

func (s shadowStore) ReadLine(addr uint64) ([nvm.LineSize]byte, error) {
	r := s.c.dev.Read(addr)
	if r.Uncorrectable {
		return r.Data, fmt.Errorf("memctrl: uncorrectable shadow line %#x", addr)
	}
	return r.Data, nil
}

// WriteLine writes one shadow-table line, the Anubis "shadow log" cost.
// The BMT over the table never comes here: its leaf MACs are ADR-backed
// on-chip SRAM, like the WPQ, and persist without NVM write bandwidth.
func (s shadowStore) WriteLine(addr uint64, data *[nvm.LineSize]byte) {
	s.c.pushWrite(addr, data, WCShadow)
}

func (s shadowStore) ReadRaw(addr uint64) (nvm.Line, []int, bool) {
	r := s.c.dev.Read(addr)
	if r.Uncorrectable {
		return s.c.dev.ReadRaw(addr), r.BadWords, true
	}
	return r.Data, nil, false
}

// pushWrite routes one line write through the WPQ, updating the category
// accounting (coalesced writes cost no NVM write). During bootstrap the
// write bypasses the WPQ and the books.
func (c *Controller) pushWrite(addr uint64, data *nvm.Line, cat WriteCat) {
	if c.bootstrap {
		c.dev.Write(addr, data)
		return
	}
	now, coalesced := c.q.PushReport(c.now, addr, data)
	if !coalesced {
		c.stats.NVMWrites[cat]++
	}
	c.now = now
}

// ResetStats zeroes the controller's and the fault handler's statistics,
// so experiments can discard warm-up effects. The metadata cache, WPQ and
// NVM device books are not reset: they, and so cpusim.Result's Meta and
// WPQ (like its own L1/L2/LLC stats), include the warm-up. Exported
// telemetry counts on across the reset.
func (c *Controller) ResetStats() {
	c.atReset = c.stats
	if c.fh != nil {
		c.fh.ResetStats()
	}
}

// readNVM reads one line, forwarding from the WPQ when the write is still
// pending, otherwise charging the bank read latency.
func (c *Controller) readNVM(addr uint64) nvm.ReadResult {
	c.chargeReadLatency(addr)
	return c.dev.Read(addr)
}
