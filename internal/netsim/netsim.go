// Package netsim models the physical network of a computational grid:
// hosts with NICs, shared links, and host-to-host paths with one-way delay
// and a chain of capacity-constrained links.
//
// Capacity sharing uses a max-min-style approximation suited to flow-level
// TCP simulation: each link tracks how many flows are actively transferring
// through it, and a flow's attainable rate on a path is the minimum over the
// path's links of rate/activeFlows. The tcpsim package samples this share
// once per congestion-window round, so shares adapt as flows come and go.
package netsim

import (
	"fmt"
	"sort"
	"time"
)

// Host is a grid node: a named machine on a site with a relative CPU speed
// and a dedicated NIC link.
type Host struct {
	Name string
	Site string
	// CPUSpeed is the node's relative compute speed; 1.0 is the reference
	// (the paper's Rennes Opteron 248). Application compute times divide
	// by this factor.
	CPUSpeed float64
	// NIC is the transmit side and NICIn the receive side of the host's
	// full-duplex network interface: outgoing flows contend on NIC,
	// incoming flows (incast) on NICIn, and opposite directions never
	// contend with each other.
	NIC   *Link
	NICIn *Link
}

func (h *Host) String() string { return h.Name }

// Link is a shared transmission resource with a fixed raw rate in bytes per
// second. Flows register while actively transferring; the link divides its
// rate evenly among them.
//
// A link can also be taken down by a fault plan: flows that hold it are
// evicted (their registrations voided via the generation counter) and must
// re-register once the link comes back, which NotifyUp signals.
type Link struct {
	Name   string
	Rate   float64 // bytes/second, raw (framing efficiency is applied by tcpsim)
	active int
	// gen counts SetDown(true) transitions. A registration made at gen g is
	// void once gen != g: SetDown zeroes active, so a flow releasing with a
	// stale gen must not decrement again (see ReleaseGen).
	gen       uint32
	down      bool
	extraLoss float64       // injected per-round loss probability
	jitter    time.Duration // injected one-way latency jitter amplitude
	onUp      []func()      // callbacks fired when the link comes back up
}

// Acquire registers one active flow on the link.
func (l *Link) Acquire() { l.active++ }

// Release deregisters one active flow. Releasing an idle link panics, as it
// indicates a flow accounting bug. Fault-driven teardown (the link went down
// while the flow held it) must go through ReleaseGen instead, which the
// generation counter makes idempotent.
func (l *Link) Release() {
	if l.active <= 0 {
		panic(fmt.Sprintf("netsim: release of idle link %s", l.Name))
	}
	l.active--
}

// ReleaseGen deregisters a flow that registered while the link was at
// generation gen. If the link has since gone down (bumping the generation
// and voiding all registrations), the release is a no-op; with a current
// gen it behaves exactly like Release, including the idle-release panic.
func (l *Link) ReleaseGen(gen uint32) {
	if gen != l.gen {
		return
	}
	l.Release()
}

// Gen returns the link's current registration generation.
func (l *Link) Gen() uint32 { return l.gen }

// SetDown changes the link's up/down state. Taking the link down evicts all
// registered flows (active resets to zero and their generation is voided);
// bringing it up fires the callbacks registered with NotifyUp, in
// registration order.
func (l *Link) SetDown(down bool) {
	if down == l.down {
		return
	}
	l.down = down
	if down {
		l.gen++
		l.active = 0
		return
	}
	cbs := l.onUp
	l.onUp = nil
	for _, fn := range cbs {
		fn()
	}
}

// Down reports whether the link is administratively down.
func (l *Link) Down() bool { return l.down }

// NotifyUp registers fn to run when the link next comes up. If the link is
// already up, fn runs immediately.
func (l *Link) NotifyUp(fn func()) {
	if !l.down {
		fn()
		return
	}
	l.onUp = append(l.onUp, fn)
}

// SetExtraLoss sets an injected per-round loss probability on the link.
func (l *Link) SetExtraLoss(p float64) { l.extraLoss = p }

// ExtraLoss returns the injected per-round loss probability.
func (l *Link) ExtraLoss() float64 { return l.extraLoss }

// SetJitter sets an injected latency jitter amplitude on the link.
func (l *Link) SetJitter(j time.Duration) { l.jitter = j }

// Jitter returns the injected latency jitter amplitude.
func (l *Link) Jitter() time.Duration { return l.jitter }

// Active reports the number of flows currently registered.
func (l *Link) Active() int { return l.active }

// Share returns the rate available to one of the currently active flows.
// If no flow is registered it returns the full rate.
func (l *Link) Share() float64 {
	if l.active <= 1 {
		return l.Rate
	}
	return l.Rate / float64(l.active)
}

// Path is a unidirectional route between two hosts.
type Path struct {
	Src, Dst *Host
	// OneWay is the one-way propagation + switching delay, excluding
	// serialization (which depends on the transfer size and is computed by
	// the transport).
	OneWay time.Duration
	// Links is the ordered chain of shared links the path crosses.
	Links []*Link
}

// RTT is the round-trip propagation delay of the path.
func (p *Path) RTT() time.Duration { return 2 * p.OneWay }

// Acquire registers an active flow on every link of the path.
func (p *Path) Acquire() {
	for _, l := range p.Links {
		l.Acquire()
	}
}

// Release deregisters an active flow from every link of the path.
func (p *Path) Release() {
	for _, l := range p.Links {
		l.Release()
	}
}

// AcquireGens registers a flow on every link and appends each link's current
// generation to gens (normally the caller's reused scratch, passed with
// length zero), returning the extended slice. Pair with ReleaseGens so a
// fault taking a link down mid-hold cannot be confused with a double
// release.
func (p *Path) AcquireGens(gens []uint32) []uint32 {
	for _, l := range p.Links {
		l.Acquire()
		gens = append(gens, l.gen)
	}
	return gens
}

// ReleaseGens deregisters a flow that registered with AcquireGens: links
// whose generation moved on (they went down in between) are skipped, the
// rest release strictly. len(gens) must equal len(p.Links).
func (p *Path) ReleaseGens(gens []uint32) {
	for i, l := range p.Links {
		l.ReleaseGen(gens[i])
	}
}

// Down reports whether any link of the path is down.
func (p *Path) Down() bool {
	for _, l := range p.Links {
		if l.down {
			return true
		}
	}
	return false
}

// NotifyUp arranges for fn to run once no link of the path is down. It
// registers on the first down link found; when that one recovers, the check
// repeats until the whole path is clear, then fn runs. If the path is
// already up, fn runs immediately.
func (p *Path) NotifyUp(fn func()) {
	for _, l := range p.Links {
		if l.down {
			l.NotifyUp(func() { p.NotifyUp(fn) })
			return
		}
	}
	fn()
}

// ExtraLoss returns the combined injected loss probability along the path:
// 1 - Π(1 - p_link), the chance at least one lossy link drops the round.
func (p *Path) ExtraLoss() float64 {
	pass := 1.0
	for _, l := range p.Links {
		if l.extraLoss > 0 {
			pass *= 1 - l.extraLoss
		}
	}
	return 1 - pass
}

// Jitter returns the summed injected latency jitter amplitude of the path.
func (p *Path) Jitter() time.Duration {
	var j time.Duration
	for _, l := range p.Links {
		j += l.jitter
	}
	return j
}

// ShareRate returns the current bottleneck fair-share rate (bytes/second)
// for a flow that has already Acquired the path.
func (p *Path) ShareRate() float64 {
	rate := p.Links[0].Share()
	for _, l := range p.Links[1:] {
		if s := l.Share(); s < rate {
			rate = s
		}
	}
	return rate
}

// Bottleneck returns the minimum raw rate along the path.
func (p *Path) Bottleneck() float64 {
	rate := p.Links[0].Rate
	for _, l := range p.Links[1:] {
		if l.Rate < rate {
			rate = l.Rate
		}
	}
	return rate
}

func (p *Path) String() string {
	return fmt.Sprintf("%s->%s owd=%v", p.Src.Name, p.Dst.Name, p.OneWay)
}

// Network is a set of hosts plus the per-site and per-site-pair classes
// their paths derive from. A host-pair path is built on first use and
// memoized, so only the pairs that communicate cost memory.
type Network struct {
	hosts   map[string]*Host
	ordered []*Host
	paths   map[[2]*Host]*Path
	// uplinks maps a site name to its shared WAN access links (egress and
	// ingress sides), if any.
	uplinks map[string]*duplex
	// intraOWD remembers each site's intra-cluster one-way delay.
	intraOWD map[string]time.Duration
	// wanOWD is the one-way delay of each connected (src, dst) site pair.
	wanOWD map[[2]string]time.Duration
}

// New creates an empty network.
// duplex is a full-duplex link pair.
type duplex struct {
	out *Link
	in  *Link
}

func New() *Network {
	return &Network{
		hosts:    make(map[string]*Host),
		paths:    make(map[[2]*Host]*Path),
		uplinks:  make(map[string]*duplex),
		intraOWD: make(map[string]time.Duration),
		wanOWD:   make(map[[2]string]time.Duration),
	}
}

// AddHost creates a host with a dedicated NIC of the given rate (bytes/s).
func (n *Network) AddHost(name, site string, cpuSpeed, nicRate float64) *Host {
	if _, dup := n.hosts[name]; dup {
		panic("netsim: duplicate host " + name)
	}
	h := &Host{
		Name:     name,
		Site:     site,
		CPUSpeed: cpuSpeed,
		NIC:      &Link{Name: name + ":nic-tx", Rate: nicRate},
		NICIn:    &Link{Name: name + ":nic-rx", Rate: nicRate},
	}
	n.hosts[name] = h
	n.ordered = append(n.ordered, h)
	return h
}

// Host returns the named host, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// Hosts returns all hosts in insertion order.
func (n *Network) Hosts() []*Host { return n.ordered }

// SiteHosts returns the hosts of one site, in insertion order.
func (n *Network) SiteHosts(site string) []*Host {
	var out []*Host
	for _, h := range n.ordered {
		if h.Site == site {
			out = append(out, h)
		}
	}
	return out
}

// Sites returns the distinct site names, sorted.
func (n *Network) Sites() []string {
	seen := make(map[string]bool)
	var out []string
	for _, h := range n.ordered {
		if !seen[h.Site] {
			seen[h.Site] = true
			out = append(out, h.Site)
		}
	}
	sort.Strings(out)
	return out
}

// AddSite creates count hosts named <site>-1..count on one cluster with a
// non-blocking switch: intra-site paths cross only the two NICs.
func (n *Network) AddSite(site string, count int, cpuSpeed, nicRate float64, intraOWD time.Duration) []*Host {
	hosts := make([]*Host, count)
	for i := range hosts {
		hosts[i] = n.AddHost(fmt.Sprintf("%s-%d", site, i+1), site, cpuSpeed, nicRate)
	}
	n.intraOWD[site] = intraOWD
	return hosts
}

// SetUplink gives a site a shared full-duplex WAN access of the given rate
// per direction. All inter-site paths from or to the site cross it. Call
// before the first Path lookup from or to the site.
func (n *Network) SetUplink(site string, rate float64) {
	n.uplinks[site] = &duplex{
		out: &Link{Name: site + ":uplink-out", Rate: rate},
		in:  &Link{Name: site + ":uplink-in", Rate: rate},
	}
}

// Uplink returns the site's WAN access links (egress, ingress), or ok=false
// when the site has no uplink configured. Fault injection uses it to target
// "the rennes uplink" by name.
func (n *Network) Uplink(site string) (out, in *Link, ok bool) {
	up := n.uplinks[site]
	if up == nil {
		return nil, nil, false
	}
	return up.out, up.in, true
}

// ConnectSites routes every host of site a to every host of site b (both
// directions) with one-way delay owd. Paths cross the two NICs and any
// configured site uplinks.
func (n *Network) ConnectSites(a, b string, owd time.Duration) {
	if len(n.SiteHosts(a)) == 0 || len(n.SiteHosts(b)) == 0 {
		panic(fmt.Sprintf("netsim: ConnectSites(%q,%q): missing hosts", a, b))
	}
	n.wanOWD[[2]string{a, b}] = owd
	n.wanOWD[[2]string{b, a}] = owd
}

func (n *Network) wanLinks(src, dst *Host) []*Link {
	links := []*Link{src.NIC}
	if up := n.uplinks[src.Site]; up != nil {
		links = append(links, up.out)
	}
	if up := n.uplinks[dst.Site]; up != nil {
		links = append(links, up.in)
	}
	return append(links, dst.NICIn)
}

// LoopbackRate is the byte rate of intra-host communication (shared-memory
// copy speed) and LoopbackDelay its latency.
const (
	LoopbackRate  = 2.5e9
	LoopbackDelay = 5 * time.Microsecond
)

// Path returns the route from a to b, derived on first use and the same
// *Path on every later call. Two processes on the same host communicate
// over a synthetic loopback path, hosts of one site through their two
// NICs (the switch is non-blocking), and hosts of connected sites over
// the WAN. It panics when no route exists between distinct hosts,
// because every experiment topology is fully connected by construction.
func (n *Network) Path(a, b *Host) *Path {
	key := [2]*Host{a, b}
	if p, ok := n.paths[key]; ok {
		return p
	}
	p := &Path{Src: a, Dst: b}
	intra, cluster := n.intraOWD[a.Site]
	wan, connected := n.wanOWD[[2]string{a.Site, b.Site}]
	switch {
	case a == b:
		p.OneWay = LoopbackDelay
		p.Links = []*Link{{Name: a.Name + ":lo", Rate: LoopbackRate}}
	case cluster && a.Site == b.Site:
		p.OneWay = intra
		p.Links = []*Link{a.NIC, b.NICIn}
	case connected:
		p.OneWay = wan
		p.Links = n.wanLinks(a, b)
	default:
		panic(fmt.Sprintf("netsim: no path %s -> %s", a.Name, b.Name))
	}
	n.paths[key] = p
	return p
}

// SameSite reports whether two hosts are on the same site.
func SameSite(a, b *Host) bool { return a.Site == b.Site }
