package tenant

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"soteria/internal/ctrenc"
	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// Options configures a Service.
type Options struct {
	// MasterKey roots every tenant key domain (required). It is
	// deliberately separate from the device's own encryption key: the
	// device layer is the "hardware" at-rest protection, the tenant layer
	// is the per-tenant domain on top.
	MasterKey []byte
	// MaxTenants bounds tenant ids (1..MaxTenants) and sizes the registry
	// region. Default DefaultMaxTenants. Fixed at first format; opening an
	// existing registry with a different value is rejected.
	MaxTenants int
	// QuotaWindow is the length, in admitted operations service-wide, of
	// one quota window. Hard budgets (Record.QuotaOps) and fair-share
	// throttling both reset when the window rolls. Default 1024.
	QuotaWindow int
	// FairBurst is the burst factor of fair-share admission: with T
	// active tenants, one tenant may take at most FairBurst/T of a
	// window before being throttled with a retryable BusyError. Default 2.
	FairBurst int
	// Telemetry enables the per-tenant metric registries.
	Telemetry bool
}

func (o *Options) fill() error {
	if len(o.MasterKey) == 0 {
		return fmt.Errorf("tenant: MasterKey is required")
	}
	if o.MaxTenants <= 0 {
		o.MaxTenants = DefaultMaxTenants
	}
	if o.QuotaWindow <= 0 {
		o.QuotaWindow = 1024
	}
	if o.FairBurst <= 0 {
		o.FairBurst = 2
	}
	return nil
}

// tenantState is one provisioned tenant's in-memory state: the persistent
// record plus the volatile quota/rotation bookkeeping and metric handles.
type tenantState struct {
	rec Record

	// windowID/usedOps implement the deterministic quota window: usedOps
	// resets lazily when the service-wide op clock enters a new window.
	windowID uint64
	usedOps  uint32
	// rotCursor is the rotation sweep position. Volatile on purpose: the
	// sweep is idempotent (it only rewrites lines still under the old
	// epoch), so after a crash it simply restarts from zero.
	rotCursor uint64

	reg            *telemetry.Registry
	reads          *telemetry.Counter
	writes         *telemetry.Counter
	quotaRejects   *telemetry.Counter
	busyRejects    *telemetry.Counter
	rotatedLines   *telemetry.Counter
	integrityFails *telemetry.Counter
	latencyPS      *telemetry.Histogram
}

// Service is the multi-tenant secure-memory service over one device. All
// methods are safe for concurrent use (one internal mutex serializes them,
// so the device underneath sees a single closed-loop caller and stays
// deterministic).
//
// Crash-safety protocol of the data path — the invariant the per-tenant
// chaos oracle checks:
//
//  1. A write seals the plaintext under the tenant's current epoch key
//     with a fresh per-line write counter and the current boot
//     generation, writes the ciphertext into the STALE physical slot
//     (each tenant line has two, selected by counter parity; the stale
//     one holds the two-writes-old version nothing references), then
//     commits with a single guard-entry write (prev slot <- old cur, cur
//     slot <- new MAC+counter+generation). Each device write is
//     individually crash-atomic and durable once acknowledged, so the
//     guard write is the atomic commit point: a crash before it leaves
//     the old guard pointing at intact old ciphertext in the other slot,
//     a crash after it exposes the new value whose data already landed.
//  2. A read accepts the line under the guard's cur OR prev slot (each
//     naming its own physical slot by parity), under the current epoch
//     and — only while a rotation is in progress — the previous epoch.
//  3. Anything else fails with a typed *IntegrityError — which is exactly
//     what a cross-tenant or cross-epoch open attempt produces, since
//     foreign ciphertext never authenticates under the reader's keys.
//
// The boot generation (persisted in the superblock, bumped on every
// reopen) is mixed into the counter word so a write retried after a crash
// never reuses the one-time pad of its torn pre-crash attempt.
type Service struct {
	mu     sync.Mutex
	dev    *device.Device
	opts   Options
	master *ctrenc.Engine

	capLines uint64
	sb       superblock
	recs     []*tenantState // indexed by tenant id; 0 unused
	active   int

	// engines caches the per-(tenant, epoch) data engines; pure key
	// derivations, rebuilt on demand.
	engines map[uint64]*ctrenc.Engine
	// guards caches guard lines (volatile write-through cache; dropped on
	// crash/recover). Entries are committed only after the device
	// acknowledged the corresponding write, so the cache never runs ahead
	// of durable state.
	guards map[uint64]*nvm.Line

	// opClock counts admitted operations service-wide; opClock /
	// QuotaWindow is the current quota window id.
	opClock uint64

	// scratch buffers keep the sealed ciphertext and guard-line updates
	// off the heap on the steady-state path (the device's Write interface
	// takes a pointer, which would otherwise force a stack line to
	// escape).
	scratchData  nvm.Line
	scratchGuard nvm.Line
}

// New opens (or formats) the tenant registry on a device. The device must
// be up; the caller keeps ownership (Close does not close it).
func New(dev *device.Device, opts Options) (*Service, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if dev.Down() {
		return nil, fmt.Errorf("tenant: device is down; recover it first")
	}
	capLines := dev.Info().CapacityBytes / nvm.LineSize
	if need := uint64(opts.MaxTenants) + 2; capLines < need {
		return nil, fmt.Errorf("tenant: device of %d lines cannot hold a %d-tenant registry", capLines, opts.MaxTenants)
	}
	master, err := ctrenc.NewEngine(opts.MasterKey)
	if err != nil {
		return nil, err
	}
	s := &Service{
		dev:      dev,
		opts:     opts,
		master:   master,
		capLines: capLines,
		engines:  map[uint64]*ctrenc.Engine{},
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// keyCheck is the master-key fingerprint stored in the superblock.
func (s *Service) keyCheck() uint64 {
	sub := s.master.DeriveSubkey("tenant-keycheck", 0, 0)
	return binary.LittleEndian.Uint64(sub[:8])
}

// token derives tenant id's access token from the master key. Epoch 0 on
// purpose: rotating a tenant's data keys must not invalidate its
// credentials.
func (s *Service) token(id uint32) uint64 {
	sub := s.master.DeriveSubkey("tenant-auth", uint64(id), 0)
	return binary.LittleEndian.Uint64(sub[:8])
}

// load (re)builds the in-memory registry from the device: the superblock
// (formatting a fresh device) and every provisioned record. Volatile
// caches are dropped; the op clock is preserved.
func (s *Service) load() error {
	line0, _, err := s.dev.Read(0)
	if err != nil {
		return fmt.Errorf("tenant: read superblock: %w", err)
	}
	if line0 == (nvm.Line{}) {
		// Fresh device: format. The arena starts right after the registry.
		s.sb = superblock{
			maxTenants: uint32(s.opts.MaxTenants),
			capLines:   s.capLines,
			nextFree:   uint64(s.opts.MaxTenants) + 1,
			keyCheck:   s.keyCheck(),
			gen:        1,
		}
		enc := s.sb.encode()
		if _, err := s.dev.Write(0, &enc); err != nil {
			return fmt.Errorf("tenant: format superblock: %w", err)
		}
	} else {
		sb, err := decodeSuperblock(&line0)
		if err != nil {
			return err
		}
		if sb.keyCheck != s.keyCheck() {
			return fmt.Errorf("tenant: master key does not match the registry")
		}
		if int(sb.maxTenants) != s.opts.MaxTenants {
			return fmt.Errorf("tenant: registry sized for %d tenants, options say %d", sb.maxTenants, s.opts.MaxTenants)
		}
		if sb.capLines != s.capLines {
			return fmt.Errorf("tenant: registry formatted for %d lines, device has %d", sb.capLines, s.capLines)
		}
		s.sb = sb
		// Reopening (boot, or crash recovery): advance the boot generation
		// durably before any data write, fencing off every pre-crash
		// counter word a torn write might have consumed.
		s.sb.gen++
		if err := s.persistSuper(); err != nil {
			return err
		}
	}
	s.recs = make([]*tenantState, s.opts.MaxTenants+1)
	s.active = 0
	s.guards = map[uint64]*nvm.Line{}
	for id := 1; id <= s.opts.MaxTenants; id++ {
		l, _, err := s.dev.Read(uint64(id) * nvm.LineSize)
		if err != nil {
			return fmt.Errorf("tenant: read record %d: %w", id, err)
		}
		if l == (nvm.Line{}) {
			continue
		}
		rec, err := decodeRecord(&l)
		if err != nil {
			return fmt.Errorf("tenant: record %d: %w", id, err)
		}
		if rec.ID != uint32(id) {
			return fmt.Errorf("tenant: record line %d names tenant %d", id, rec.ID)
		}
		if rec.AuthCheck != s.token(rec.ID) {
			return fmt.Errorf("tenant: record %d token does not derive from the master key", id)
		}
		s.install(rec)
	}
	return nil
}

// install builds the in-memory state for one record.
func (s *Service) install(rec Record) *tenantState {
	ts := &tenantState{rec: rec}
	if s.opts.Telemetry {
		ts.reg = telemetry.NewRegistry()
		ts.reads = ts.reg.Counter("tenant_reads_total")
		ts.writes = ts.reg.Counter("tenant_writes_total")
		ts.quotaRejects = ts.reg.Counter("tenant_quota_rejects_total")
		ts.busyRejects = ts.reg.Counter("tenant_fair_share_rejects_total")
		ts.rotatedLines = ts.reg.Counter("tenant_rotated_lines_total")
		ts.integrityFails = ts.reg.Counter("tenant_integrity_failures_total")
		ts.latencyPS = ts.reg.Histogram("tenant_op_latency_ps", telemetry.ExpBounds(40))
	}
	s.recs[rec.ID] = ts
	if rec.Active {
		s.active++
	}
	return ts
}

// persistRecord writes ts's record line through the device (durable at
// ack — the crash-safety unit of every registry state transition).
func (s *Service) persistRecord(ts *tenantState) error {
	enc := ts.rec.encode()
	if _, err := s.dev.Write(uint64(ts.rec.ID)*nvm.LineSize, &enc); err != nil {
		return fmt.Errorf("tenant: persist record %d: %w", ts.rec.ID, err)
	}
	return nil
}

// persistSuper writes the superblock.
func (s *Service) persistSuper() error {
	enc := s.sb.encode()
	if _, err := s.dev.Write(0, &enc); err != nil {
		return fmt.Errorf("tenant: persist superblock: %w", err)
	}
	return nil
}

// Provision creates tenant id with a dataLines-line extent and the given
// hard quota (0 = unlimited), returning its access token. The allocator
// reserves space in the superblock before the record becomes visible, so
// a crash between the two writes leaks the reservation but can never
// hand two tenants overlapping extents.
func (s *Service) Provision(id uint32, dataLines uint64, quotaOps uint32) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 || int(id) > s.opts.MaxTenants {
		return 0, fmt.Errorf("tenant: id %d out of range [1,%d]", id, s.opts.MaxTenants)
	}
	if s.recs[id] != nil {
		return 0, fmt.Errorf("%w: id %d", ErrExists, id)
	}
	if dataLines == 0 {
		return 0, fmt.Errorf("tenant: extent must be at least one line")
	}
	rec := Record{
		ID: id, Active: true, Epoch: 1, QuotaOps: quotaOps,
		BaseLine: s.sb.nextFree, DataLines: dataLines,
		AuthCheck: s.token(id),
	}
	need := rec.extentLines()
	if rec.BaseLine+need > s.capLines {
		return 0, fmt.Errorf("tenant: extent of %d lines does not fit (%d free)", need, s.capLines-s.sb.nextFree)
	}
	s.sb.nextFree += need
	if err := s.persistSuper(); err != nil {
		s.sb.nextFree -= need
		return 0, err
	}
	ts := s.install(rec)
	if err := s.persistRecord(ts); err != nil {
		s.recs[id] = nil
		s.active--
		return 0, err
	}
	return rec.AuthCheck, nil
}

// Authenticate verifies an access token for tenant id.
func (s *Service) Authenticate(id uint32, token uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.lookup(id)
	if err != nil {
		return &AuthError{Tenant: id}
	}
	if token != ts.rec.AuthCheck {
		return &AuthError{Tenant: id}
	}
	return nil
}

// Tenants lists the provisioned records in id order.
func (s *Service) Tenants() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, ts := range s.recs {
		if ts != nil {
			out = append(out, ts.rec)
		}
	}
	return out
}

// lookup resolves an active tenant (callers hold s.mu).
func (s *Service) lookup(id uint32) (*tenantState, error) {
	if id == 0 || int(id) >= len(s.recs) || s.recs[id] == nil || !s.recs[id].rec.Active {
		return nil, ErrNoSuchTenant
	}
	return s.recs[id], nil
}

// admit runs the admission path for one data operation: resolve the
// tenant, confine the address to its extent, then apply the hard quota
// and the fair-share throttle. On success the tenant-local line index is
// returned and the op is charged to the current window.
func (s *Service) admit(id uint32, addr uint64) (*tenantState, uint64, error) {
	ts, err := s.lookup(id)
	if err != nil {
		return nil, 0, err
	}
	if addr%nvm.LineSize != 0 {
		return nil, 0, &RangeError{Tenant: id, Addr: addr, Lines: ts.rec.DataLines}
	}
	line := addr / nvm.LineSize
	if line >= ts.rec.DataLines {
		return nil, 0, &RangeError{Tenant: id, Addr: addr, Lines: ts.rec.DataLines}
	}
	window := uint64(s.opts.QuotaWindow)
	if w := s.opClock / window; w != ts.windowID {
		ts.windowID = w
		ts.usedOps = 0
	}
	// Hard quota: a non-retryable, typed rejection. The budget refills
	// only when the window rolls, so retrying is pure waste — which is
	// why the devnet client classifies it ClassQuota and gives up at once.
	if ts.rec.QuotaOps > 0 && ts.usedOps >= ts.rec.QuotaOps {
		ts.quotaRejects.Inc()
		return nil, 0, &QuotaError{Tenant: id, Used: ts.usedOps, Budget: ts.rec.QuotaOps}
	}
	// Fair-share admission rides the existing BusyError backpressure:
	// with T active tenants contending, one tenant may burst to
	// FairBurst/T of a window before being throttled with a retryable
	// BusyError (shard -2 marks the tenant gate, like -1 marks the
	// server's in-flight cap). A lone tenant is never throttled.
	if s.active > 1 {
		share := uint32(uint64(s.opts.FairBurst) * window / uint64(s.active))
		if share == 0 {
			share = 1
		}
		if ts.usedOps >= share {
			ts.busyRejects.Inc()
			left := window - s.opClock%window
			return nil, 0, &device.BusyError{
				Shard:      -2,
				Pending:    int(ts.usedOps),
				RetryAfter: time.Duration(left) * 10 * time.Microsecond,
			}
		}
	}
	ts.usedOps++
	s.opClock++
	return ts, line, nil
}

// dataEngine returns the cached crypto engine of one (tenant, epoch) key
// domain, deriving it from the master key on first use.
func (s *Service) dataEngine(id, epoch uint32) *ctrenc.Engine {
	k := uint64(id)<<32 | uint64(epoch)
	if e := s.engines[k]; e != nil {
		return e
	}
	sub := s.master.DeriveSubkey("tenant-data", uint64(id), uint64(epoch))
	e := ctrenc.MustNewEngine(sub[:])
	s.engines[k] = e
	return e
}

// ctrWord packs (epoch, boot generation, write counter) into the counter
// word fed to the OTP and MAC: unique per encryption within a key domain,
// so the pad is never reused — including across a crash-retry, which
// repeats the counter but under a fresh generation. Epoch and generation
// are truncated to 16 bits; both count rare operator-scale events
// (rotations, reboots), so wrap-around is out of scale.
func ctrWord(epoch, gen, ctr uint32) uint64 {
	return uint64(epoch&0xffff)<<48 | uint64(gen&0xffff)<<32 | uint64(ctr)
}

// guardLineRef returns the cached guard line, reading it through the
// device on a miss. The latency of a device read (cache miss) is added to
// *lat; a hit costs nothing, modeling controller-resident metadata.
func (s *Service) guardLineRef(gLine uint64, lat *sim.Time) (*nvm.Line, error) {
	if l := s.guards[gLine]; l != nil {
		return l, nil
	}
	data, t, err := s.dev.Read(gLine * nvm.LineSize)
	if err != nil {
		return nil, err
	}
	*lat += t
	l := new(nvm.Line)
	*l = data
	s.guards[gLine] = l
	return l, nil
}

// Write services one 64-byte tenant write: admission, then the sealed
// guard-first/data-second protocol under the tenant's current epoch.
func (s *Service) Write(id uint32, addr uint64, data *nvm.Line) (sim.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, line, err := s.admit(id, addr)
	if err != nil {
		return 0, err
	}
	lat, err := s.writeLine(ts, line, data, ts.rec.Epoch)
	if err != nil {
		return lat, err
	}
	ts.writes.Inc()
	ts.latencyPS.Observe(uint64(lat))
	return lat, nil
}

// writeLine seals and stores one tenant line under the given epoch: the
// ciphertext goes into the stale physical slot (counter parity) first,
// then one guard-entry write (prev <- cur, cur <- new) commits it. Both
// are acknowledged device writes; the guard cache commits only after the
// guard ack, so it never runs ahead of durable state.
func (s *Service) writeLine(ts *tenantState, line uint64, data *nvm.Line, epoch uint32) (sim.Time, error) {
	var lat sim.Time
	gLine, gOff := ts.rec.guardLine(line)
	gl, err := s.guardLineRef(gLine, &lat)
	if err != nil {
		return lat, err
	}
	ge := getGuardEntry(gl, gOff)
	newCtr := ge.curCtr + 1
	gen := s.sb.gen
	eng := s.dataEngine(ts.rec.ID, epoch)
	w := ctrWord(epoch, gen, newCtr)
	s.scratchData = eng.Encrypt(line, w, (*[nvm.LineSize]byte)(data))
	mac := eng.MAC(ctrenc.DomainTenant, line, w, s.scratchData[:])

	// Data first. The target slot (newCtr's parity) is the one the guard's
	// prev entry references — destroying it is safe because under
	// data-first ordering the cur entry always names ciphertext that was
	// durable before the guard named it, so recovery never needs prev.
	t, err := s.dev.Write(ts.rec.dataLine(line, newCtr)*nvm.LineSize, &s.scratchData)
	lat += t
	if err != nil {
		return lat, err
	}

	s.scratchGuard = *gl
	putGuardEntry(&s.scratchGuard, gOff, guardEntry{
		curMAC: mac, prevMAC: ge.curMAC,
		curCtr: newCtr, prevCtr: ge.curCtr,
		curGen: gen, prevGen: ge.curGen,
	})
	t, err = s.dev.Write(gLine*nvm.LineSize, &s.scratchGuard)
	lat += t
	if err != nil {
		return lat, err
	}
	*gl = s.scratchGuard
	return lat, nil
}

// Read services one 64-byte tenant read, lazily re-encrypting lines still
// under the previous epoch while a rotation is in progress (the
// read/write-back rotation path).
func (s *Service) Read(id uint32, addr uint64) (nvm.Line, sim.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, line, err := s.admit(id, addr)
	if err != nil {
		return nvm.Line{}, 0, err
	}
	data, lat, _, err := s.readLine(ts, line, true)
	if err != nil {
		return nvm.Line{}, lat, err
	}
	ts.reads.Inc()
	ts.latencyPS.Observe(uint64(lat))
	return data, lat, nil
}

// readLine loads, authenticates and decrypts one tenant line. The guard's
// cur and prev entries (each naming its physical slot by counter parity)
// are tried under the current epoch and — only while rotating — the
// previous epoch; the first match decides. The cur trial under the
// current epoch is the steady-state path and costs exactly one data read;
// further slots load lazily. With rewrite set, a line that matched under
// the previous epoch is re-sealed under the current one in place (lazy
// rotation). rotated reports that rewrite.
func (s *Service) readLine(ts *tenantState, line uint64, rewrite bool) (out nvm.Line, lat sim.Time, rotated bool, err error) {
	gLine, gOff := ts.rec.guardLine(line)
	gl, err := s.guardLineRef(gLine, &lat)
	if err != nil {
		return nvm.Line{}, lat, false, err
	}
	ge := getGuardEntry(gl, gOff)
	if !ge.written() {
		// Never written: reads back as zeros, no MAC to check.
		return nvm.Line{}, lat, false, nil
	}

	curEpoch := ts.rec.Epoch
	epochs := [2]uint32{curEpoch, 0}
	nEpochs := 1
	if ts.rec.Rotating && curEpoch > 1 {
		epochs[1] = curEpoch - 1
		nEpochs = 2
	}
	var slotData [2]nvm.Line
	var slotRead [2]bool
	for ei := 0; ei < nEpochs; ei++ {
		e := epochs[ei]
		eng := s.dataEngine(ts.rec.ID, e)
		// cur entry, then prev entry (prev is vestigial for crash
		// recovery under data-first ordering, but kept admissible so the
		// guard entry stays self-describing).
		macs := [2]uint64{ge.curMAC, ge.prevMAC}
		ctrs := [2]uint32{ge.curCtr, ge.prevCtr}
		gens := [2]uint32{ge.curGen, ge.prevGen}
		for si := 0; si < 2; si++ {
			if ctrs[si] == 0 {
				continue
			}
			p := ctrs[si] & 1
			if !slotRead[p] {
				d, t, err := s.dev.Read(ts.rec.dataLine(line, p) * nvm.LineSize)
				lat += t
				if err != nil {
					return nvm.Line{}, lat, false, err
				}
				slotData[p] = d
				slotRead[p] = true
			}
			w := ctrWord(e, gens[si], ctrs[si])
			if eng.MAC(ctrenc.DomainTenant, line, w, slotData[p][:]) == macs[si] {
				out = eng.Decrypt(line, w, (*[nvm.LineSize]byte)(&slotData[p]))
				return s.finishRead(ts, line, out, lat, e, curEpoch, rewrite)
			}
		}
	}
	ts.integrityFails.Inc()
	return nvm.Line{}, lat, false, &IntegrityError{Tenant: ts.rec.ID, Line: line}
}

// finishRead applies the lazy-rotation write-back when the line matched
// under a stale epoch.
func (s *Service) finishRead(ts *tenantState, line uint64, out nvm.Line, lat sim.Time, matched, cur uint32, rewrite bool) (nvm.Line, sim.Time, bool, error) {
	if matched == cur || !rewrite {
		return out, lat, false, nil
	}
	t, err := s.writeLine(ts, line, &out, cur)
	lat += t
	if err != nil {
		return nvm.Line{}, lat, false, err
	}
	ts.rotatedLines.Inc()
	return out, lat, true, nil
}

// --- device-plane passthroughs ---------------------------------------------

// DeviceInfo describes the underlying device.
func (s *Service) DeviceInfo() device.Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Info()
}

// Down reports whether the underlying device is in the post-crash state.
func (s *Service) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Down()
}

// Flush is the device-wide durability barrier.
func (s *Service) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Flush()
}

// Crash cuts power across the whole device.
func (s *Service) Crash() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Crash()
}

// Recover rebuilds the device after a crash, drops every volatile tenant
// cache (the guard cache may be ahead of or behind the recovered image)
// and reloads the registry from the device — the tenant layer's analogue
// of a reboot. Quota windows and rotation cursors restart; the rotation
// protocol is built so that restarting the sweep from zero is safe.
func (s *Service) Recover() (*device.RecoveryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.dev.Recover()
	if err != nil {
		return rep, err
	}
	if err := s.load(); err != nil {
		return rep, err
	}
	return rep, nil
}

// VerifyAll re-verifies the device's own integrity protection across the
// full physical image (registry, guard tables and tenant ciphertext all
// live under it).
func (s *Service) VerifyAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.VerifyAll()
}

// DeviceSnapshot merges the device's per-shard telemetry registries.
func (s *Service) DeviceSnapshot() *telemetry.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dev.Snapshot()
}

// Snapshot returns tenant id's metric registry snapshot (empty when
// telemetry is disabled).
func (s *Service) Snapshot(id uint32) (*telemetry.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if ts.reg == nil {
		return &telemetry.Snapshot{}, nil
	}
	return ts.reg.Snapshot(), nil
}

// Close marks the service closed. The device stays with its owner.
func (s *Service) Close() error { return nil }
