// Package netchaos is the network arm of the chaos harness: a seeded,
// frame-aware TCP fault-injection proxy that sits between devnet
// clients and a server, plus an in-process supervisor that kills and
// restarts the server mid-workload. Together they extend the
// acknowledged-write oracle across the network boundary — the chaos
// sweeps drive real load through real sockets while the proxy injects
// latency, throttling, corruption, resets, mid-frame truncation and
// full partitions, and assert that every acknowledged write survives
// and no retried write applies twice.
//
// Fault decisions derive from a seed and per-connection/per-byte
// counters, never from wall-clock sampling, so a schedule injects the
// same kinds of faults at the same stream positions run after run.
package netchaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is one fault configuration. The zero value is transparent
// pass-through; each field arms one fault family. A Schedule is a
// sequence of named Faults phases the harness steps through.
type Faults struct {
	// Name labels the phase in reports.
	Name string
	// Latency delays every relayed chunk; Jitter adds a seeded random
	// extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBPS throttles each direction to roughly this many bytes
	// per second (0 = unlimited).
	BandwidthBPS int
	// CorruptEvery flips one byte in roughly every N relayed payload
	// bytes (0 = off). Frame headers are left intact so the endpoint
	// detects the damage via its payload checksum instead of losing
	// framing sync.
	CorruptEvery int
	// ResetAfterBytes severs a connection (RST) once it has relayed this
	// many bytes in total (0 = off). Every reconnect gets the same
	// budget, so long transfers keep getting cut.
	ResetAfterBytes int
	// TruncateEveryNthFrame forwards only the first half of every Nth
	// relayed frame and then severs the connection (0 = off) — the
	// mid-frame cut that exercises partial-read handling.
	TruncateEveryNthFrame int
	// RefuseEveryNthConn resets every Nth accepted connection before
	// relaying anything (0 = off).
	RefuseEveryNthConn int
	// Partition refuses all new connections and severs existing ones
	// until cleared.
	Partition bool
}

// String renders the armed fault families.
func (f Faults) String() string {
	if f.Name != "" {
		return f.Name
	}
	return "clean"
}

// Stats counts what the proxy actually injected. All fields are
// monotonic; read them with Proxy.Stats.
type Stats struct {
	Conns           uint64
	Refused         uint64
	Resets          uint64
	CorruptedBytes  uint64
	TruncatedFrames uint64
	BytesRelayed    uint64
	FramesRelayed   uint64
}

type counters struct {
	conns, refused, resets, corrupted, truncated, bytes, frames atomic.Uint64
}

// Proxy is the fault-injecting TCP relay. It listens on a loopback
// port, forwards each accepted connection to the target, and applies
// the currently armed Faults to both directions. Faults can be swapped
// at any time; existing connections pick up the change at their next
// frame.
type Proxy struct {
	target string
	seed   int64
	ln     net.Listener
	logf   func(format string, args ...any)

	mu     sync.Mutex
	faults Faults
	conns  map[net.Conn]struct{}
	closed bool

	connSeq atomic.Uint64
	stats   counters
	wg      sync.WaitGroup
}

// New starts a proxy in front of target on an ephemeral loopback port.
func New(target string, seed int64, logf func(format string, args ...any)) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	p := &Proxy{target: target, seed: seed, ln: ln, logf: logf, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients dial instead of the real server.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetFaults arms a fault configuration. Arming a partition severs every
// existing connection immediately.
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	var sever []net.Conn
	if f.Partition {
		for c := range p.conns {
			sever = append(sever, c)
		}
	}
	p.mu.Unlock()
	for _, c := range sever {
		hardClose(c)
	}
	p.logf("netchaos: faults -> %s", f)
}

// Clear disarms every fault.
func (p *Proxy) Clear() { p.SetFaults(Faults{Name: "clean"}) }

func (p *Proxy) currentFaults() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Stats snapshots the injected-fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:           p.stats.conns.Load(),
		Refused:         p.stats.refused.Load(),
		Resets:          p.stats.resets.Load(),
		CorruptedBytes:  p.stats.corrupted.Load(),
		TruncatedFrames: p.stats.truncated.Load(),
		BytesRelayed:    p.stats.bytes.Load(),
		FramesRelayed:   p.stats.frames.Load(),
	}
}

// Close stops accepting, severs every relay, and waits for them.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		hardClose(c)
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.connSeq.Add(1)
		f := p.currentFaults()
		if f.Partition || (f.RefuseEveryNthConn > 0 && idx%uint64(f.RefuseEveryNthConn) == 0) {
			p.stats.refused.Add(1)
			hardClose(conn)
			continue
		}
		upstream, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			p.logf("netchaos: conn %d: target unreachable: %v", idx, err)
			p.stats.refused.Add(1)
			hardClose(conn)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			hardClose(conn)
			hardClose(upstream)
			return
		}
		p.conns[conn] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.mu.Unlock()
		p.stats.conns.Add(1)
		p.wg.Add(1)
		go p.relayPair(conn, upstream, idx)
	}
}

func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// relayPair runs both directions of one proxied connection and tears
// everything down when either side dies or a fault severs it.
func (p *Proxy) relayPair(client, upstream net.Conn, idx uint64) {
	defer p.wg.Done()
	var once sync.Once
	var total atomic.Uint64 // bytes relayed on this connection, both directions
	kill := func() {
		once.Do(func() {
			hardClose(client)
			hardClose(upstream)
		})
	}
	var inner sync.WaitGroup
	inner.Add(2)
	run := func(src, dst net.Conn, dirSalt int64) {
		defer inner.Done()
		defer kill()
		l := &link{
			p:     p,
			rng:   rand.New(rand.NewSource(p.seed ^ int64(idx*0x9e3779b97f4a7c15) ^ dirSalt)),
			total: &total,
		}
		l.relay(src, dst)
	}
	go run(client, upstream, 0x5bf03635)
	go run(upstream, client, 0x2545f491)
	inner.Wait()
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, upstream)
	p.mu.Unlock()
}

// link is one direction of one proxied connection.
type link struct {
	p      *Proxy
	rng    *rand.Rand
	total  *atomic.Uint64
	frames uint64
	sinceC int // bytes since last injected corruption
}

// frameHeaderSize mirrors devnet's framing: [u32 len][u32 crc]. The
// proxy only needs the length to stay frame-aligned; it never validates
// the checksum (that is the endpoints' job).
const frameHeaderSize = 8

// maxSaneFrame mirrors the endpoints' frame cap; a longer claim means
// the stream is garbage, and the relay severs it.
const maxSaneFrame = 16 << 20

// relay forwards frames from src to dst, injecting the armed faults.
// Any error on either side returns (the caller severs the pair).
func (l *link) relay(src, dst net.Conn) {
	hdr := make([]byte, frameHeaderSize)
	var payload []byte
	for {
		f := l.p.currentFaults()
		if f.Partition {
			l.p.stats.resets.Add(1)
			return
		}
		src.SetReadDeadline(time.Now().Add(30 * time.Second))
		if _, err := readFull(src, hdr); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:4]))
		if n > maxSaneFrame {
			l.p.logf("netchaos: insane frame length %d, severing", n)
			l.p.stats.resets.Add(1)
			return
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := readFull(src, payload); err != nil {
			return
		}
		l.frames++
		l.p.stats.frames.Add(1)

		out := append(append(make([]byte, 0, frameHeaderSize+n), hdr...), payload...)
		truncate := f.TruncateEveryNthFrame > 0 && l.frames%uint64(f.TruncateEveryNthFrame) == 0 && n >= 2
		if truncate {
			out = out[:frameHeaderSize+n/2]
		} else if f.CorruptEvery > 0 {
			// Flip bytes at seeded positions, payload only: the length
			// field stays honest so framing never desyncs — the endpoint
			// sees a checksum mismatch, not a garbage length.
			l.sinceC += n
			for l.sinceC >= f.CorruptEvery && n > 0 {
				l.sinceC -= f.CorruptEvery
				pos := frameHeaderSize + l.rng.Intn(n)
				out[pos] ^= 1 << uint(l.rng.Intn(8))
				l.p.stats.corrupted.Add(1)
			}
		}

		if err := l.pace(dst, out, f); err != nil {
			return
		}
		l.p.stats.bytes.Add(uint64(len(out)))
		if truncate {
			l.p.stats.truncated.Add(1)
			l.p.stats.resets.Add(1)
			return
		}
		if f.ResetAfterBytes > 0 && l.total.Add(uint64(len(out))) >= uint64(f.ResetAfterBytes) {
			l.total.Store(0)
			l.p.stats.resets.Add(1)
			return
		}
	}
}

// pace writes out in chunks, applying latency, jitter and bandwidth
// shaping per chunk.
func (l *link) pace(dst net.Conn, out []byte, f Faults) error {
	const chunk = 1024
	for off := 0; off < len(out); off += chunk {
		end := off + chunk
		if end > len(out) {
			end = len(out)
		}
		var delay time.Duration
		if f.Latency > 0 {
			delay += f.Latency
		}
		if f.Jitter > 0 {
			delay += time.Duration(l.rng.Int63n(int64(f.Jitter)))
		}
		if f.BandwidthBPS > 0 {
			delay += time.Duration(end-off) * time.Second / time.Duration(f.BandwidthBPS)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		dst.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := dst.Write(out[off:end]); err != nil {
			return err
		}
	}
	return nil
}

func readFull(c net.Conn, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		n, err := c.Read(buf[got:])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// Repro renders the proxy's identity for failure reports.
func (p *Proxy) Repro() string {
	return fmt.Sprintf("netchaos proxy seed %d -> %s", p.seed, p.target)
}
