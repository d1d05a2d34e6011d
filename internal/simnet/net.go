// Package simnet models the networks the paper's architecture lives on:
// Fibre Channel fabrics between controller blades and disks, host-side
// Ethernet, the PCI-X funnel of Figure 1, and inter-site WAN links.
//
// A Network is a graph of nodes joined by duplex links, each with a
// bandwidth and a propagation delay. Messages are store-and-forward with
// FIFO serialization per link, so bandwidth ceilings and queueing delays
// emerge naturally — which is exactly what the paper's Figure-1 arithmetic
// (4 blades × 2×2 Gb/s FC ≈ one 10 Gb/s stream) depends on.
package simnet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Addr names a node on the network.
type Addr string

// LinkSpec describes one direction of a link.
type LinkSpec struct {
	// BandwidthBps is the transmission rate in bits per second.
	// Zero means infinite (no serialization delay).
	BandwidthBps int64
	// Latency is the propagation delay.
	Latency sim.Duration
}

// Common link specifications from the paper's era.
var (
	// FC1G and FC2G are the 1 and 2 Gb/s Fibre Channel rates of §2.3.
	FC1G = LinkSpec{BandwidthBps: 1_000_000_000, Latency: 5 * sim.Microsecond}
	FC2G = LinkSpec{BandwidthBps: 2_000_000_000, Latency: 5 * sim.Microsecond}
	// GbE10 is the 10 Gigabit Ethernet port of Figure 1.
	GbE10 = LinkSpec{BandwidthBps: 10_000_000_000, Latency: 10 * sim.Microsecond}
	// PCIX is the shared PCI-X bus the striped controllers take turns on.
	PCIX = LinkSpec{BandwidthBps: 8_500_000_000, Latency: 1 * sim.Microsecond}
)

// WAN returns a wide-area link with the given one-way latency and bandwidth.
func WAN(oneWay sim.Duration, bps int64) LinkSpec {
	return LinkSpec{BandwidthBps: bps, Latency: oneWay}
}

// FaultPlan injects partial-failure behaviour into a link: each message
// crossing a faulted hop may be dropped, duplicated, or delayed, with the
// decisions drawn from the kernel's seeded RNG so a faulted run is exactly
// reproducible. The zero FaultPlan injects nothing.
type FaultPlan struct {
	// DropProb is the probability a message is lost in transit (the link
	// still carries it; the receiver simply never sees it).
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message suffers extra delay, drawn
	// uniformly from [0, MaxExtraDelay].
	DelayProb float64
	// MaxExtraDelay bounds the injected delay (also used to stagger the
	// second copy of a duplicated message).
	MaxExtraDelay sim.Duration
}

// Active reports whether the plan injects any fault at all.
func (fp FaultPlan) Active() bool {
	return fp.DropProb > 0 || fp.DupProb > 0 || fp.DelayProb > 0
}

// FaultStats counts injected fault events across the network.
type FaultStats struct {
	Dropped    int64 // messages lost in transit
	Duplicated int64 // messages delivered twice
	Delayed    int64 // messages given extra delay
}

type link struct {
	spec      LinkSpec
	busyUntil sim.Time
	bytes     int64
	faults    FaultPlan
}

// txTime returns the serialization delay for size bytes, rounded up to the
// next nanosecond so a link never appears faster than its configured rate.
func (l *link) txTime(size int) sim.Duration {
	if l.spec.BandwidthBps <= 0 {
		return 0
	}
	return sim.Duration(math.Ceil(float64(size*8) / float64(l.spec.BandwidthBps) * float64(sim.Second)))
}

// Message is a unit of delivery. Payload crosses the simulated network by
// reference; Size is what occupies the wire.
type Message struct {
	From, To Addr
	Payload  any
	Size     int
}

// Network is a graph of nodes and links on a single kernel.
type Network struct {
	k     *sim.Kernel
	nodes map[Addr]*Endpoint
	links map[[2]Addr]*link
	adj   map[Addr][]Addr
	down  map[Addr]bool
	// routes caches the next-hop tables, and paths the hop sequence of each
	// (src, dst) walked from them (nil: no route); a topology change drops
	// both.
	routes map[Addr]map[Addr]Addr
	paths  map[[2]Addr][]Addr
	// Dropped counts messages discarded because an endpoint was down.
	Dropped int64
	// Faults counts injected fault events (see FaultPlan).
	Faults FaultStats
	// faultsActive caches whether any link carries a fault plan, so the
	// fault-free fast path costs nothing.
	faultsActive bool
}

// New returns an empty network on k.
func New(k *sim.Kernel) *Network {
	return &Network{
		k:     k,
		nodes: make(map[Addr]*Endpoint),
		links: make(map[[2]Addr]*link),
		adj:   make(map[Addr][]Addr),
		down:  make(map[Addr]bool),
	}
}

// Kernel returns the kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Node returns the endpoint for addr, creating it if needed.
func (n *Network) Node(addr Addr) *Endpoint {
	if ep, ok := n.nodes[addr]; ok {
		return ep
	}
	ep := &Endpoint{net: n, addr: addr, inbox: sim.NewMailbox[Message](n.k)}
	n.nodes[addr] = ep
	return ep
}

// Connect joins a and b with a duplex link (same spec both ways).
// Reconnecting replaces the existing link spec.
func (n *Network) Connect(a, b Addr, spec LinkSpec) {
	n.Node(a)
	n.Node(b)
	for _, pair := range [][2]Addr{{a, b}, {b, a}} {
		if _, exists := n.links[pair]; !exists {
			n.adj[pair[0]] = append(n.adj[pair[0]], pair[1])
		}
		n.links[pair] = &link{spec: spec}
	}
	n.routes, n.paths = nil, nil
}

// SetFaults installs plan on the duplex link between a and b (both
// directions). A zero plan clears injection on that link.
func (n *Network) SetFaults(a, b Addr, plan FaultPlan) {
	for _, pair := range [][2]Addr{{a, b}, {b, a}} {
		if l, ok := n.links[pair]; ok {
			l.faults = plan
		}
	}
	n.refreshFaultsActive()
}

// SetFaultsAll installs plan on every existing link. A zero plan disables
// all fault injection.
func (n *Network) SetFaultsAll(plan FaultPlan) {
	for _, l := range n.links {
		l.faults = plan
	}
	n.refreshFaultsActive()
}

// FaultsActive reports whether any link currently injects faults.
func (n *Network) FaultsActive() bool { return n.faultsActive }

func (n *Network) refreshFaultsActive() {
	n.faultsActive = false
	for _, l := range n.links {
		if l.faults.Active() {
			n.faultsActive = true
			return
		}
	}
}

// SetDown marks addr unreachable (true) or reachable (false). Messages
// addressed to, or mid-flight toward, a down node are dropped; messages a
// down node tries to send are dropped at origin.
func (n *Network) SetDown(addr Addr, down bool) { n.down[addr] = down }

// Down reports whether addr is marked down.
func (n *Network) Down(addr Addr) bool { return n.down[addr] }

// Reachable reports whether a message from→to would be accepted right now:
// both endpoints up and a route between them. It mirrors Send's admission
// check without transmitting anything (used by frame coalescing to fail
// fast at enqueue time).
func (n *Network) Reachable(from, to Addr) bool {
	if n.down[from] || n.down[to] {
		return false
	}
	return n.path(from, to) != nil
}

// LinkBytes reports the bytes carried so far on the a→b link.
func (n *Network) LinkBytes(a, b Addr) int64 {
	if l, ok := n.links[[2]Addr{a, b}]; ok {
		return l.bytes
	}
	return 0
}

// Links returns every directed link's (from, to) pair in sorted order —
// the links live in a map, and deterministic exposition must not depend on
// map iteration order.
func (n *Network) Links() [][2]Addr {
	out := make([][2]Addr, 0, len(n.links))
	for pair := range n.links {
		out = append(out, pair)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// RegisterTelemetry publishes the network's counters under s: endpoint
// drops, injected-fault counts, and bytes carried per directed link
// (link/<from>-<to>/bytes). Links are enumerated at registration time, so
// register after the topology is built.
func (n *Network) RegisterTelemetry(s telemetry.Scope) {
	s.Int("dropped", func() int64 { return n.Dropped })
	f := s.Sub("faults")
	f.Int("dropped", func() int64 { return n.Faults.Dropped })
	f.Int("duplicated", func() int64 { return n.Faults.Duplicated })
	f.Int("delayed", func() int64 { return n.Faults.Delayed })
	for _, pair := range n.Links() {
		l := n.links[pair]
		s.Int(fmt.Sprintf("link/%s-%s/bytes", pair[0], pair[1]), func() int64 { return l.bytes })
	}
}

// path returns the hop sequence from src to dst (excluding src), or nil if
// unreachable. Routing is minimum-hop, computed by BFS and cached; the
// sequence is shared by every message on the route and must not be modified.
func (n *Network) path(src, dst Addr) []Addr {
	if src == dst {
		return []Addr{}
	}
	key := [2]Addr{src, dst}
	hops, ok := n.paths[key]
	if !ok {
		if n.paths == nil {
			n.paths = make(map[[2]Addr][]Addr)
		}
		hops = n.walk(src, dst)
		n.paths[key] = hops
	}
	return hops
}

// walk follows the next-hop tables from src to dst.
func (n *Network) walk(src, dst Addr) []Addr {
	if n.routes == nil {
		n.routes = make(map[Addr]map[Addr]Addr)
	}
	var hops []Addr
	cur := src
	for cur != dst {
		step, ok := n.routes[cur]
		if !ok {
			step = n.bfs(cur)
			n.routes[cur] = step
		}
		h, ok := step[dst]
		if !ok {
			return nil
		}
		hops = append(hops, h)
		cur = h
		if len(hops) > len(n.nodes) {
			panic(fmt.Sprintf("simnet: routing loop %s->%s", src, dst))
		}
	}
	return hops
}

// bfs computes the next-hop table from src: for each reachable destination,
// the first hop on a minimum-hop path.
func (n *Network) bfs(src Addr) map[Addr]Addr {
	next := make(map[Addr]Addr)
	type qe struct {
		node  Addr
		first Addr
	}
	visited := map[Addr]bool{src: true}
	var queue []qe
	for _, nb := range n.adj[src] {
		if !visited[nb] {
			visited[nb] = true
			next[nb] = nb
			queue = append(queue, qe{nb, nb})
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, nb := range n.adj[e.node] {
			if !visited[nb] {
				visited[nb] = true
				next[nb] = e.first
				queue = append(queue, qe{nb, e.first})
			}
		}
	}
	return next
}

// Send transmits msg across the network, invoking delivery at the
// destination endpoint after all serialization and propagation delays.
// It returns the scheduled arrival time, or ok=false if the destination is
// unreachable or an endpoint is down at send time. (A node that goes down
// after send still swallows the message at arrival.)
func (n *Network) Send(msg Message) (arrival sim.Time, ok bool) {
	if n.down[msg.From] || n.down[msg.To] {
		n.Dropped++
		return 0, false
	}
	hops := n.path(msg.From, msg.To)
	if hops == nil {
		n.Dropped++
		return 0, false
	}
	t := n.k.Now()
	cur := msg.From
	duplicate := false
	for _, h := range hops {
		l := n.links[[2]Addr{cur, h}]
		depart := t
		if l.busyUntil > depart {
			depart = l.busyUntil
		}
		done := depart.Add(l.txTime(msg.Size))
		l.busyUntil = done
		l.bytes += int64(msg.Size)
		t = done.Add(l.spec.Latency)
		cur = h
		if fp := l.faults; fp.Active() {
			rng := n.k.Rand()
			if fp.DropProb > 0 && rng.Float64() < fp.DropProb {
				// Lost in transit: the link carried it, the sender is
				// none the wiser, and the receiver never sees it.
				n.Faults.Dropped++
				return t, true
			}
			if fp.DelayProb > 0 && rng.Float64() < fp.DelayProb {
				n.Faults.Delayed++
				t = t.Add(n.extraDelay(fp))
			}
			if fp.DupProb > 0 && rng.Float64() < fp.DupProb {
				duplicate = true
			}
		}
	}
	n.scheduleDelivery(msg, t)
	if duplicate {
		n.Faults.Duplicated++
		// The second copy trails the first by a jittered gap.
		var fp FaultPlan
		if len(hops) > 0 {
			fp = n.links[[2]Addr{msg.From, hops[0]}].faults
		}
		n.scheduleDelivery(msg, t.Add(n.extraDelay(fp)))
	}
	return t, true
}

// extraDelay draws a uniform delay in [0, MaxExtraDelay] from the kernel RNG.
func (n *Network) extraDelay(fp FaultPlan) sim.Duration {
	if fp.MaxExtraDelay <= 0 {
		return 0
	}
	return sim.Duration(n.k.Rand().Int63n(int64(fp.MaxExtraDelay) + 1))
}

func (n *Network) scheduleDelivery(msg Message, t sim.Time) {
	dst := n.Node(msg.To)
	n.k.At(t, func() {
		if n.down[msg.To] || n.down[msg.From] {
			n.Dropped++
			return
		}
		dst.deliver(msg)
	})
}

// Endpoint is a node's attachment point: incoming messages go either to a
// registered handler or to the endpoint's inbox mailbox.
type Endpoint struct {
	net     *Network
	addr    Addr
	inbox   *sim.Mailbox[Message]
	handler func(Message)
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Network returns the network this endpoint belongs to.
func (e *Endpoint) Network() *Network { return e.net }

// Handle registers fn to receive messages, replacing inbox delivery.
func (e *Endpoint) Handle(fn func(Message)) { e.handler = fn }

// Inbox returns the endpoint's mailbox (used when no handler is set).
func (e *Endpoint) Inbox() *sim.Mailbox[Message] { return e.inbox }

// Send transmits a payload of the given wire size to dst.
func (e *Endpoint) Send(dst Addr, payload any, size int) bool {
	_, ok := e.net.Send(Message{From: e.addr, To: dst, Payload: payload, Size: size})
	return ok
}

func (e *Endpoint) deliver(msg Message) {
	if e.handler != nil {
		e.handler(msg)
		return
	}
	e.inbox.Send(msg)
}
