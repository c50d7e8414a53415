// Package chaosnet is a fault-injecting TCP proxy for hardening
// network servers: it forwards byte streams between clients and a
// target address while imposing latency, jitter, bandwidth caps,
// mid-write connection resets, half-open stalls, and full partitions.
//
// The proxy is the adversary in the overload e2e suite — it sits in
// front of a jiscd listener and makes the network misbehave in the
// ways production networks actually do, so the tests can assert the
// server's invariants (bounded memory, exact drop accounting, clean
// drain) hold under abuse rather than only on a loopback in a good
// mood.
//
// Faults are applied per direction, per chunk (a bounded read of at
// most ChunkBytes). All randomness derives from Config.Seed, so a
// failing test names one integer to reproduce the fault schedule.
package chaosnet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects which faults the proxy injects. The zero value is a
// transparent proxy: no latency, no cap, no resets.
type Config struct {
	// Seed drives every random decision (jitter, reset coin flips).
	// Zero is a valid seed.
	Seed int64

	// Latency is a fixed one-way delay added to every forwarded chunk,
	// both directions. Jitter adds a uniform random extra in [0,
	// Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration

	// BytesPerSec caps forwarding throughput per direction; 0 means
	// uncapped. The cap is enforced by pacing: after forwarding a
	// chunk the pump sleeps long enough that the connection's average
	// rate never exceeds the cap.
	BytesPerSec int64

	// ChunkBytes is the forwarding granularity (max bytes moved per
	// read); 0 means 1024. Small chunks interact with latency to
	// simulate a slow, choppy link.
	ChunkBytes int

	// ResetAfterBytes hard-resets a connection (RST, not FIN — the
	// peer sees ECONNRESET mid-write) once its client→server pump has
	// forwarded at least this many bytes. 0 disables.
	ResetAfterBytes int64

	// ResetProb is a per-chunk probability in [0,1] of hard-resetting
	// the connection, independent of ResetAfterBytes.
	ResetProb float64

	// StallAfterBytes half-opens a connection once its client→server
	// pump has forwarded at least this many bytes: the proxy keeps
	// both sockets open but forwards nothing further in either
	// direction. The peers see a silent peer, not an error — the
	// nastiest failure mode. 0 disables.
	StallAfterBytes int64
}

// Stats counts what the proxy has done, for test assertions.
type Stats struct {
	Conns          uint64 // connections accepted
	Resets         uint64 // connections hard-reset by fault injection
	Stalls         uint64 // connections half-opened by fault injection
	BytesToServer  uint64
	BytesToClient  uint64
	PartitionDrops uint64 // dials refused or conns killed by partition
}

// Proxy is a fault-injecting TCP forwarder. Create with New, stop with
// Close.
type Proxy struct {
	cfg    Config
	ln     net.Listener
	target string

	partitioned atomic.Bool
	closed      atomic.Bool

	mu    sync.Mutex
	links map[*link]struct{}
	seq   int64 // connection counter, seeds per-link rngs

	conns          atomic.Uint64
	resets         atomic.Uint64
	stalls         atomic.Uint64
	bytesToServer  atomic.Uint64
	bytesToClient  atomic.Uint64
	partitionDrops atomic.Uint64

	wg sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client net.Conn
	server net.Conn
	// done closes exactly once, whatever ends the link first.
	done     chan struct{}
	doneOnce sync.Once
	// stalled flips once and never back; pumps park on done after it.
	stalled atomic.Bool
}

func (l *link) finish() { l.doneOnce.Do(func() { close(l.done) }) }

// New starts a proxy listening on addr (use "127.0.0.1:0" for an
// ephemeral port) and forwarding every connection to target.
func New(addr, target string, cfg Config) (*Proxy, error) {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1024
	}
	if cfg.ResetProb < 0 || cfg.ResetProb > 1 {
		return nil, errors.New("chaosnet: ResetProb outside [0,1]")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg, ln: ln, target: target, links: map[*link]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — point clients here.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// SetPartitioned toggles a full partition. Partitioned, the proxy
// hard-kills every active connection and refuses new ones (accept then
// immediate close — the client sees a connection that dies instantly,
// as across a real partition with RST-generating middleboxes). Healing
// the partition lets new connections through again; the killed ones
// stay dead.
func (p *Proxy) SetPartitioned(v bool) {
	p.partitioned.Store(v)
	if !v {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for l := range p.links {
		p.partitionDrops.Add(1)
		hardClose(l.client)
		hardClose(l.server)
		l.finish()
	}
}

// Partitioned reports the current partition state.
func (p *Proxy) Partitioned() bool { return p.partitioned.Load() }

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:          p.conns.Load(),
		Resets:         p.resets.Load(),
		Stalls:         p.stalls.Load(),
		BytesToServer:  p.bytesToServer.Load(),
		BytesToClient:  p.bytesToClient.Load(),
		PartitionDrops: p.partitionDrops.Load(),
	}
}

// Close stops accepting, kills every live link, and waits for the
// pump goroutines to exit — after Close returns the proxy has leaked
// nothing.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.mu.Lock()
	for l := range p.links {
		hardClose(l.client)
		hardClose(l.server)
		l.finish()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if p.partitioned.Load() {
			p.partitionDrops.Add(1)
			hardClose(c)
			continue
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			hardClose(c)
			continue
		}
		p.conns.Add(1)
		l := &link{client: c, server: s, done: make(chan struct{})}
		p.mu.Lock()
		seq := p.seq
		p.seq++
		if p.closed.Load() || p.partitioned.Load() {
			// A partition that went up while this dial was being
			// proxied has already swept p.links; registering the link
			// now would let it outlive the partition.
			if p.partitioned.Load() {
				p.partitionDrops.Add(1)
			}
			p.mu.Unlock()
			hardClose(c)
			hardClose(s)
			continue
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()

		p.wg.Add(2)
		// Independent rngs per pump: the two directions must not
		// contend on one rand source, and the schedule stays a pure
		// function of (Seed, connection index, direction).
		go p.pump(l, c, s, &p.bytesToServer, true, rand.New(rand.NewSource(p.cfg.Seed^(seq*2+1))))
		go p.pump(l, s, c, &p.bytesToClient, false, rand.New(rand.NewSource(p.cfg.Seed^(seq*2+2))))
	}
}

// pump moves chunks src→dst until the link dies, injecting the
// configured faults. toServer marks the client→server direction, which
// owns the byte-threshold reset and stall triggers (thresholds against
// ingest volume, the quantity the tests control).
func (p *Proxy) pump(l *link, src, dst net.Conn, total *atomic.Uint64, toServer bool, rng *rand.Rand) {
	defer p.wg.Done()
	defer p.unlink(l)
	buf := make([]byte, p.cfg.ChunkBytes)
	var forwarded int64
	for {
		select {
		case <-l.done:
			return
		default:
		}
		if l.stalled.Load() {
			<-l.done // half-open: hold the sockets, forward nothing
			return
		}
		// Bound the read so a stall/partition decision is never more
		// than one chunk away.
		src.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.delay(rng); d > 0 {
				select {
				case <-l.done:
					return
				case <-time.After(d):
				}
			}
			if l.stalled.Load() {
				<-l.done
				return
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				l.finish()
				return
			}
			forwarded += int64(n)
			total.Add(uint64(n))
			if toServer && p.maybeFault(l, forwarded, rng) {
				return
			}
			if p.cfg.BytesPerSec > 0 {
				pace := time.Duration(float64(n) / float64(p.cfg.BytesPerSec) * float64(time.Second))
				select {
				case <-l.done:
					return
				case <-time.After(pace):
				}
			}
		}
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue // deadline tick: re-check done/stall and read again
			}
			if err == io.EOF {
				// Graceful half-close: propagate the FIN and let the
				// other pump keep running.
				if cw, ok := dst.(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
					return
				}
			}
			l.finish()
			return
		}
	}
}

// maybeFault applies the reset and stall triggers; true means the pump
// must exit.
func (p *Proxy) maybeFault(l *link, forwarded int64, rng *rand.Rand) bool {
	if p.cfg.StallAfterBytes > 0 && forwarded >= p.cfg.StallAfterBytes && !l.stalled.Swap(true) {
		p.stalls.Add(1)
		<-l.done
		return true
	}
	reset := p.cfg.ResetAfterBytes > 0 && forwarded >= p.cfg.ResetAfterBytes
	if !reset && p.cfg.ResetProb > 0 && rng.Float64() < p.cfg.ResetProb {
		reset = true
	}
	if reset {
		p.resets.Add(1)
		hardClose(l.client)
		hardClose(l.server)
		l.finish()
		return true
	}
	return false
}

// delay computes the per-chunk latency+jitter.
func (p *Proxy) delay(rng *rand.Rand) time.Duration {
	d := p.cfg.Latency
	if p.cfg.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(p.cfg.Jitter)))
	}
	return d
}

func (p *Proxy) unlink(l *link) {
	l.finish()
	l.client.Close()
	l.server.Close()
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
}

// hardClose sends RST instead of FIN where the transport allows it, so
// the peer sees ECONNRESET mid-write rather than a graceful EOF.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
