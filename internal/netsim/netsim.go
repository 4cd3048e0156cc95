package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// LinkParams describes one class of link.
type LinkParams struct {
	// BaseDelay is the one-way propagation plus switching delay.
	BaseDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// BytesPerSec is the link bandwidth for transmission delay
	// (size/BytesPerSec); zero means infinite bandwidth.
	BytesPerSec int64
}

// Delay returns the one-way delivery delay for a message of size bytes.
func (p LinkParams) Delay(size int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay
	if p.Jitter > 0 && rng != nil {
		d += time.Duration(rng.Int63n(int64(p.Jitter)))
	}
	if p.BytesPerSec > 0 {
		d += time.Duration(int64(time.Second) * int64(size) / p.BytesPerSec)
	}
	return d
}

// Params describes the whole fabric plus the per-message CPU cost model
// used by the simulator (the "2006 Java stack" part of the calibration; the
// cryptographic costs live in the crypto package).
type Params struct {
	// LAN is the asynchronous network between replica nodes and clients.
	LAN LinkParams
	// Pair is the fast reliable network between paired nodes.
	Pair LinkParams
	// SendCPUBase/SendCPUPerKB model the sender-side CPU cost of pushing
	// one message out (marshalling, syscalls, RMI/TCP stack).
	SendCPUBase  time.Duration
	SendCPUPerKB time.Duration
	// RecvCPUBase/RecvCPUPerKB model the receiver-side cost of accepting
	// and decoding one message before protocol handling.
	RecvCPUBase  time.Duration
	RecvCPUPerKB time.Duration
}

// SendCost returns the modelled sender CPU cost for size bytes.
func (p Params) SendCost(size int) time.Duration {
	return p.SendCPUBase + time.Duration(int64(p.SendCPUPerKB)*int64(size)/1024)
}

// RecvCost returns the modelled receiver CPU cost for size bytes.
func (p Params) RecvCost(size int) time.Duration {
	return p.RecvCPUBase + time.Duration(int64(p.RecvCPUPerKB)*int64(size)/1024)
}

// LANDefaults returns the calibrated model of the paper's testbed: a
// 100 Mbit switched LAN of 2.80 GHz Pentium IV nodes running a JDK 1.5
// protocol stack. The CPU constants are tuned so the CT baseline commits
// in ~10 ms at f=2 in steady state, the paper's reported figure.
func LANDefaults() Params {
	return Params{
		LAN: LinkParams{
			BaseDelay:   120 * time.Microsecond,
			Jitter:      30 * time.Microsecond,
			BytesPerSec: 12_500_000, // 100 Mbit/s
		},
		Pair: LinkParams{
			BaseDelay:   60 * time.Microsecond,
			Jitter:      15 * time.Microsecond,
			BytesPerSec: 12_500_000,
		},
		SendCPUBase:  380 * time.Microsecond,
		SendCPUPerKB: 320 * time.Microsecond,
		RecvCPUBase:  520 * time.Microsecond,
		RecvCPUPerKB: 320 * time.Microsecond,
	}
}

// WANDefaults returns a wide-area profile for shaped-TCP experiments:
// ~20 ms propagation with a few ms of jitter on inter-node links and a
// 10 MB/s bandwidth cap, with the intra-pair links kept metropolitan
// (the paper's pairs share a site). Use with harness
// Options{TCPShaping: true} to run WAN-profile experiments on the real
// TCP substrate.
func WANDefaults() Params {
	return Params{
		LAN: LinkParams{
			BaseDelay:   20 * time.Millisecond,
			Jitter:      3 * time.Millisecond,
			BytesPerSec: 10_000_000,
		},
		Pair: LinkParams{
			BaseDelay:   2 * time.Millisecond,
			Jitter:      500 * time.Microsecond,
			BytesPerSec: 12_500_000,
		},
		SendCPUBase:  380 * time.Microsecond,
		SendCPUPerKB: 320 * time.Microsecond,
		RecvCPUBase:  520 * time.Microsecond,
		RecvCPUPerKB: 320 * time.Microsecond,
	}
}

// MetroDefaults returns a metropolitan-area profile between LAN and WAN:
// a few ms of propagation between sites, sub-ms inside a pair's site.
// The scenario campaign sweeps LAN → metro → WAN with the same workload.
func MetroDefaults() Params {
	return Params{
		LAN: LinkParams{
			BaseDelay:   4 * time.Millisecond,
			Jitter:      800 * time.Microsecond,
			BytesPerSec: 12_500_000,
		},
		Pair: LinkParams{
			BaseDelay:   600 * time.Microsecond,
			Jitter:      150 * time.Microsecond,
			BytesPerSec: 12_500_000,
		},
		SendCPUBase:  380 * time.Microsecond,
		SendCPUPerKB: 320 * time.Microsecond,
		RecvCPUBase:  520 * time.Microsecond,
		RecvCPUPerKB: 320 * time.Microsecond,
	}
}

// ProfileNames lists the named link profiles in sweep order.
func ProfileNames() []string { return []string{"lan", "metro", "wan"} }

// Profile returns a named link profile: "lan", "metro" or "wan".
func Profile(name string) (Params, bool) {
	switch name {
	case "lan":
		return LANDefaults(), true
	case "metro":
		return MetroDefaults(), true
	case "wan":
		return WANDefaults(), true
	}
	return Params{}, false
}

// Fabric is the connectivity state: which links exist, which are cut, and
// traffic counters. It is safe for concurrent use (the live runtime sends
// from many goroutines).
type Fabric struct {
	params Params
	topo   types.Topology

	mu       sync.Mutex
	rng      *rand.Rand
	cut      map[[2]types.NodeID]bool
	lag      map[[2]types.NodeID]time.Duration
	isolated map[types.NodeID]bool
	counts   map[message.Type]*LinkCounter
	total    LinkCounter
}

// LinkCounter accumulates message and byte counts.
type LinkCounter struct {
	Messages int64
	Bytes    int64
}

// New returns a fabric for the topology with a deterministic jitter stream
// seeded by seed.
func New(params Params, topo types.Topology, seed int64) *Fabric {
	return &Fabric{
		params:   params,
		topo:     topo,
		rng:      rand.New(rand.NewSource(seed)),
		cut:      make(map[[2]types.NodeID]bool),
		lag:      make(map[[2]types.NodeID]time.Duration),
		isolated: make(map[types.NodeID]bool),
		counts:   make(map[message.Type]*LinkCounter),
	}
}

// Params returns the fabric's parameters.
func (f *Fabric) Params() Params { return f.params }

// IsPairLink reports whether from->to is an intra-pair fast link.
func (f *Fabric) IsPairLink(from, to types.NodeID) bool {
	p, ok := f.topo.PairOf(from)
	return ok && p == to
}

// Delay returns the delivery delay for a message of the given wire size
// and whether it is deliverable at all (false when the link is cut or an
// endpoint is isolated). Self-delivery is instantaneous and never cut.
func (f *Fabric) Delay(from, to types.NodeID, size int) (time.Duration, bool) {
	if from == to {
		return 0, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cut[linkKey(from, to)] || f.isolated[from] || f.isolated[to] {
		return 0, false
	}
	link := f.params.LAN
	if f.IsPairLink(from, to) {
		link = f.params.Pair
	}
	return link.Delay(size, f.rng) + f.lag[linkKey(from, to)], true
}

// Record counts one sent message; runtimes call it for every transmission
// that leaves a node (self-deliveries are not counted, matching how the
// paper counts messages "injected into the system").
func (f *Fabric) Record(t message.Type, size int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counts[t]
	if c == nil {
		c = &LinkCounter{}
		f.counts[t] = c
	}
	c.Messages++
	c.Bytes += int64(size)
	f.total.Messages++
	f.total.Bytes += int64(size)
}

// Cut severs the bidirectional link between a and b.
func (f *Fabric) Cut(a, b types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cut[linkKey(a, b)] = true
	f.cut[linkKey(b, a)] = true
}

// Heal restores the bidirectional link between a and b.
func (f *Fabric) Heal(a, b types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cut, linkKey(a, b))
	delete(f.cut, linkKey(b, a))
}

// Lag adds d to every delivery delay from one node to another (one
// direction; 0 removes it): a slow link, where Cut is a broken one.
func (f *Fabric) Lag(from, to types.NodeID, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d == 0 {
		delete(f.lag, linkKey(from, to))
		return
	}
	f.lag[linkKey(from, to)] = d
}

// Isolate disconnects every link of id (a network-level crash).
func (f *Fabric) Isolate(id types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.isolated[id] = true
}

// Rejoin reconnects a previously isolated node.
func (f *Fabric) Rejoin(id types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.isolated, id)
}

// Totals returns the aggregate traffic counter.
func (f *Fabric) Totals() LinkCounter {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// CountsByType returns a copy of the per-message-type counters.
func (f *Fabric) CountsByType() map[message.Type]LinkCounter {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[message.Type]LinkCounter, len(f.counts))
	for t, c := range f.counts {
		out[t] = *c
	}
	return out
}

// ResetCounters zeroes the traffic counters (used between measurement
// warm-up and the measured window).
func (f *Fabric) ResetCounters() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts = make(map[message.Type]*LinkCounter)
	f.total = LinkCounter{}
}

// FormatCounts renders the per-type counters as a stable, sorted table.
func (f *Fabric) FormatCounts() string {
	counts := f.CountsByType()
	keys := make([]message.Type, 0, len(counts))
	for t := range counts {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, t := range keys {
		c := counts[t]
		fmt.Fprintf(&b, "%-14s %8d msgs %12d bytes\n", t, c.Messages, c.Bytes)
	}
	return b.String()
}

func linkKey(from, to types.NodeID) [2]types.NodeID { return [2]types.NodeID{from, to} }
