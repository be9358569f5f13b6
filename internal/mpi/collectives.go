package mpi

// The collective engine. Every collective is staged the way Karonis et
// al. describe topology-aware collectives ("A Multilevel Approach to
// Topology-Aware Collective Operations in Computational Grids"): a call
// picks once how it crosses sites, then runs a few kernels over groups
// of ranks. There are three strategies:
//
//   - flat: one algorithm over the whole world, blind to sites.
//   - lanes: GridMPI's two-site algorithms (Matsuda et al., Cluster'06).
//     The payload is cut into k chunks, k the smaller site's size, that
//     cross the WAN on k parallel node-to-node lanes. Only Bcast and
//     Allreduce have them.
//   - multilevel: MPICH-G2's gateway algorithms for any number of sites.
//     An intra-site phase, an inter-site phase over one gateway rank per
//     site, then an intra-site redistribution.
//
// Groups are views of the world's site partition, which NewWorld builds
// once; a group is rooted by index arithmetic, so no call copies or
// rebuilds a list of the world's ranks.
//
// Tag discipline: each phase of one collective call uses a distinct
// offset inside the 64-tag block reserved by nextCollTag, so messages of
// different phases can never match each other even while different ranks
// are in different phases. Offsets 0..19 and 20..39 leave room for the
// per-round tags of recursive doubling / dissemination over groups of up
// to 2^20 members; the lanes' WAN phase uses offset 32 and up.

import (
	"slices"
	"time"

	"repro/internal/netsim"
)

// gridCollMin is the smallest payload for which the lanes are
// worthwhile; below it the latency of extra phases dominates and the
// binomial algorithms win even across a WAN.
const gridCollMin = 32 << 10

// largeBcastMin is where scatter+allgather beats the binomial tree.
const largeBcastMin = 512 << 10

// internal point-to-point helpers running in the collective context.

func (r *Rank) csend(dst, tag int, size int64) {
	r.sendProto(r.proc, dst, tag, size, ctxColl, false, nil)
}

func (r *Rank) cisend(dst, tag int, size int64) *Request {
	req := r.w.getReq(r)
	j := r.w.getJob()
	j.r, j.dst, j.tag, j.ctx, j.size, j.req = r, dst, tag, ctxColl, size, req
	r.w.K.GoJob("coll-isend", runSendJob, j)
	return req
}

func (r *Rank) crecv(src, tag int) Status { return r.Wait(r.irecv(src, tag, ctxColl)) }

func (r *Rank) cirecv(src, tag int) *Request { return r.irecv(src, tag, ctxColl) }

func (r *Rank) csendrecv(dst, sendTag int, size int64, src, recvTag int) {
	sreq := r.cisend(dst, sendTag, size)
	r.crecv(src, recvTag)
	r.Wait(sreq)
}

// nextCollTag reserves a tag block for one collective call. All ranks call
// collectives in the same order (the usual SPMD contract), so the blocks
// agree across ranks.
func (r *Rank) nextCollTag() int {
	r.collSeq++
	return r.collSeq << 6
}

// beginColl reserves the tag block of one collective call and records
// the call once, at root (rank 0 for the unrooted operations).
func (r *Rank) beginColl(op string, root int, n int64) int {
	if r.id == root {
		r.w.stats.recordColl(op, n)
	}
	return r.nextCollTag()
}

// combineCost models the arithmetic of a reduction over n bytes.
func (r *Rank) combineCost(n int64) {
	r.Compute(time.Duration(float64(n) / r.w.Prof.CopyRate * float64(time.Second)))
}

// --- the site view and its groups ---

// sites is the world's partition of ranks by site. Sites are numbered in
// the order they first appear walking ranks 0..P-1, and each lists its
// ranks in ascending order, so groups[0][0] is rank 0. Gateway selection
// and lane pairing depend on this order; TestSiteGroupsFirstAppearanceOrder
// pins it.
type sites struct {
	groups [][]int // the rank ids of each site
	of     []int   // the site index of each rank
	pos    []int   // each rank's position in its site's group
	all    []int   // the whole world, 0..P-1
	gws    []int   // each site's first rank: its gateway in unrooted calls
}

func newSites(hosts []*netsim.Host) sites {
	P := len(hosts)
	sv := sites{of: make([]int, P), pos: make([]int, P), all: make([]int, P)}
	index := make(map[string]int)
	for id, h := range hosts {
		s, ok := index[h.Site]
		if !ok {
			s = len(sv.groups)
			index[h.Site] = s
			sv.groups = append(sv.groups, nil)
			sv.gws = append(sv.gws, id)
		}
		sv.of[id], sv.pos[id], sv.all[id] = s, len(sv.groups[s]), id
		sv.groups[s] = append(sv.groups[s], id)
	}
	return sv
}

// group is an ordered set of ranks seen from a root: at(v) is the v-th
// member counting on from the root, so at(0) is the root, and me is this
// rank's count from the root, or -1 when it is not a member.
type group struct {
	ranks []int
	root  int // position of the root in ranks
	me    int
}

func (g group) size() int    { return len(g.ranks) }
func (g group) at(v int) int { return g.ranks[(v+g.root)%len(g.ranks)] }

// view is site s rooted at position lead, as seen by rank id.
func (sv *sites) view(s, lead, id int) group {
	g := sv.groups[s]
	me := -1
	if sv.of[id] == s {
		me = (sv.pos[id] - lead + len(g)) % len(g)
	}
	return group{g, lead, me}
}

// world is every rank, rooted at rank root.
func (r *Rank) world(root int) group {
	P := r.Size()
	return group{r.w.sites.all, root, (r.id - root + P) % P}
}

// site is this rank's site, rooted at rank root when root lives there
// and at the site's first rank otherwise.
func (r *Rank) site(root int) group {
	sv := &r.w.sites
	s, lead := sv.of[r.id], 0
	if sv.of[root] == s {
		lead = sv.pos[root]
	}
	return sv.view(s, lead, r.id)
}

// gateways is one rank per site, rooted at rank root's site. root is
// the gateway of its own site; every other site's gateway is its first
// rank.
func (r *Rank) gateways(root int) group {
	sv := &r.w.sites
	gws, rs := sv.gws, sv.of[root]
	if gws[rs] != root {
		gws = slices.Clone(gws)
		gws[rs] = root
	}
	me := -1
	if s := sv.of[r.id]; gws[s] == r.id {
		me = (s - rs + len(gws)) % len(gws)
	}
	return group{gws, rs, me}
}

// --- strategy choice ---

// strategy is how one collective call crosses sites.
type strategy int

const (
	flat strategy = iota
	lanes
	multilevel
)

// strategyFor picks the strategy of an n-byte collective: multilevel
// whenever the profile asks for it and the world spans several sites,
// GridMPI's lanes for payloads of at least gridCollMin on exactly two
// sites, flat otherwise. A collective with no algorithm for the chosen
// strategy runs flat.
func (r *Rank) strategyFor(n int) strategy {
	S := len(r.w.sites.groups)
	switch {
	case S >= 2 && r.w.Prof.Multilevel:
		return multilevel
	case S == 2 && r.w.Prof.GridCollectives && n >= gridCollMin:
		return lanes
	}
	return flat
}

// --- the collectives ---

// Bcast broadcasts n payload bytes from root to every rank.
func (r *Rank) Bcast(root int, n int) {
	tag := r.beginColl("bcast", root, int64(n))
	switch r.strategyFor(n) {
	case multilevel:
		// The root reaches each remote site once, through its gateway;
		// each gateway then broadcasts inside its site.
		r.bcastTree(tag, int64(n), r.gateways(root))
		r.bcastTree(tag+1, int64(n), r.site(root))
	case lanes:
		r.laneBcast(tag, root, int64(n))
	default:
		if r.w.Prof.GridCollectives && n >= largeBcastMin {
			r.scatterRingBcast(tag, root, int64(n))
		} else {
			r.bcastTree(tag, int64(n), r.world(root))
		}
	}
}

// Reduce combines n payload bytes from every rank onto root.
func (r *Rank) Reduce(root int, n int) {
	tag := r.beginColl("reduce", root, int64(n))
	if r.strategyFor(n) == multilevel {
		// Each site reduces onto its gateway, then the gateways onto root.
		r.reduceTree(tag, int64(n), r.site(root))
		r.reduceTree(tag+1, int64(n), r.gateways(root))
		return
	}
	r.reduceTree(tag, int64(n), r.world(root))
}

// Allreduce combines n payload bytes across all ranks, leaving the result
// everywhere.
func (r *Rank) Allreduce(n int) {
	tag := r.beginColl("allreduce", 0, int64(n))
	switch r.strategyFor(n) {
	case multilevel:
		// Reduce onto each gateway, exchange the site sums between the
		// gateways directly (the single WAN round), broadcast the result
		// inside each site.
		site, gws := r.site(0), r.gateways(0)
		r.reduceTree(tag, int64(n), site)
		if gws.me >= 0 {
			r.gatewayExchange(tag+20, func(int) int64 { return int64(n) })
			r.combineCost(int64(gws.size()-1) * int64(n))
		}
		r.bcastTree(tag+40, int64(n), site)
	case lanes:
		r.laneAllreduce(tag, int64(n))
	default:
		r.groupAllreduce(tag, int64(n), r.world(0))
	}
}

// Allgather makes every rank's block of n bytes available everywhere.
func (r *Rank) Allgather(n int) {
	tag := r.beginColl("allgather", 0, int64(n))
	if r.strategyFor(n) == multilevel {
		r.mlAllgather(tag, int64(n))
		return
	}
	r.ringAllgather(tag, int64(n))
}

// Alltoall exchanges n bytes between every rank pair (each rank sends n to
// every other rank). None of the four implementations optimizes it for the
// grid (§4.3): all post the full isend/irecv storm at once, so a 16-rank
// exchange drives dozens of simultaneous WAN flows into the uplink — the
// oversubscription under which GridMPI's pacing shines and the others
// take contention losses.
func (r *Rank) Alltoall(n int) {
	tag := r.beginColl("alltoall", 0, int64(n)*int64(r.Size()))
	if r.strategyFor(n) == multilevel {
		r.mlAlltoall(tag, int64(n))
		return
	}
	r.pairwise(tag, r.world(0), int64(n), nil)
}

// Alltoallv is Alltoall with per-destination sizes; sizes[i] is what this
// rank sends to rank i (sizes must agree pairwise across ranks, as in MPI).
func (r *Rank) Alltoallv(sizes []int) {
	var total int64
	for _, s := range sizes {
		total += int64(s)
	}
	tag := r.beginColl("alltoallv", 0, total)
	r.pairwise(tag, r.world(0), 0, sizes)
}

// Gather collects n bytes from every rank at root.
func (r *Rank) Gather(root int, n int) {
	tag := r.beginColl("gather", root, int64(n))
	if r.strategyFor(n) == multilevel {
		r.mlGather(tag, root, int64(n))
		return
	}
	if r.id != root {
		r.csend(root, tag, int64(n))
		return
	}
	reqs := make([]*Request, 0, r.Size()-1)
	for i := 0; i < r.Size(); i++ {
		if i != root {
			reqs = append(reqs, r.cirecv(i, tag))
		}
	}
	r.WaitAll(reqs...)
}

// Scatter distributes n bytes from root to every rank.
func (r *Rank) Scatter(root int, n int) {
	tag := r.beginColl("scatter", root, int64(n))
	if r.strategyFor(n) == multilevel {
		r.mlScatter(tag, root, int64(n))
		return
	}
	if r.id != root {
		r.crecv(root, tag)
		return
	}
	reqs := make([]*Request, 0, r.Size()-1)
	for i := 0; i < r.Size(); i++ {
		if i != root {
			reqs = append(reqs, r.cisend(i, tag, int64(n)))
		}
	}
	r.WaitAll(reqs...)
}

// Barrier synchronizes all ranks with the dissemination algorithm; under
// multilevel, site members check in at their gateway, the gateways run
// the dissemination over the WAN, and each gateway releases its site.
func (r *Rank) Barrier() {
	tag := r.beginColl("barrier", 0, 0)
	if r.strategyFor(0) == multilevel {
		site := r.site(0)
		r.reduceTree(tag, 1, site)
		r.dissemination(tag+1, r.gateways(0))
		r.bcastTree(tag+40, 1, site)
		return
	}
	r.dissemination(tag, r.world(0))
}

// --- kernels over one group ---

// bcastTree broadcasts n bytes from g's root down a binomial tree over
// g; non-members and singleton groups do nothing. Across a WAN a
// world-wide tree's edges pay the full latency and the root's single NIC
// carries the whole payload to the remote cluster.
func (r *Rank) bcastTree(tag int, n int64, g group) {
	P, me := g.size(), g.me
	if me < 0 || P < 2 {
		return
	}
	mask := 1
	for mask < P {
		if me&mask != 0 {
			r.crecv(g.at(me&^mask), tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if me+mask < P {
			r.csend(g.at(me+mask), tag, n)
		}
		mask >>= 1
	}
}

// reduceTree combines n bytes from every member of g onto its root up a
// binomial tree.
func (r *Rank) reduceTree(tag int, n int64, g group) {
	P, me := g.size(), g.me
	if me < 0 || P < 2 {
		return
	}
	for mask := 1; mask < P; mask <<= 1 {
		if me&mask != 0 {
			r.csend(g.at(me&^mask), tag, n)
			return
		}
		if child := me | mask; child < P {
			r.crecv(g.at(child), tag)
			r.combineCost(n)
		}
	}
}

// groupAllreduce leaves the combination of every member's n bytes on
// every member of g: recursive doubling, one full-payload exchange per
// round, when the group size is a power of two, otherwise a reduce onto
// the root followed by a bcast.
func (r *Rank) groupAllreduce(tag int, n int64, g group) {
	if !isPow2(g.size()) {
		r.reduceTree(tag, n, g)
		r.bcastTree(tag+1, n, g)
		return
	}
	if g.me < 0 {
		return
	}
	for mask := 1; mask < g.size(); mask <<= 1 {
		partner := g.at(g.me ^ mask)
		r.csendrecv(partner, tag, n, partner, tag)
		r.combineCost(n)
		tag++
	}
}

// dissemination is the barrier over g: in round i each member signals
// the member 2^i ahead and hears from the one 2^i behind.
func (r *Rank) dissemination(tag int, g group) {
	if g.me < 0 {
		return
	}
	S := g.size()
	for mask := 1; mask < S; mask <<= 1 {
		dst, src := g.at((g.me+mask)%S), g.at((g.me-mask+S)%S)
		r.csendrecv(dst, tag, 1, src, tag)
		tag++
	}
}

// pairwise is the all-to-all exchange over g: every receive is posted,
// then every send, both in ring order from this rank. Member i gets
// sizes[i] bytes, or n when sizes is nil.
func (r *Rank) pairwise(tag int, g group, n int64, sizes []int) {
	G := g.size()
	reqs := make([]*Request, 0, 2*(G-1))
	for s := 1; s < G; s++ {
		if src := g.at((g.me - s + G) % G); sizes == nil || sizes[src] >= 0 {
			reqs = append(reqs, r.cirecv(src, tag))
		}
	}
	for s := 1; s < G; s++ {
		dst := g.at((g.me + s) % G)
		if sizes != nil {
			n = int64(sizes[dst])
		}
		reqs = append(reqs, r.cisend(dst, tag, n))
	}
	r.WaitAll(reqs...)
}

// fanIn has g's root receive one message from every other member.
func (r *Rank) fanIn(tag int, g group) {
	reqs := make([]*Request, 0, g.size()-1)
	for v := 1; v < g.size(); v++ {
		reqs = append(reqs, r.cirecv(g.at(v), tag))
	}
	r.WaitAll(reqs...)
}

// fanOut has g's root send n bytes to every other member.
func (r *Rank) fanOut(tag int, n int64, g group) {
	reqs := make([]*Request, 0, g.size()-1)
	for v := 1; v < g.size(); v++ {
		reqs = append(reqs, r.cisend(g.at(v), tag, n))
	}
	r.WaitAll(reqs...)
}

// ringAllgather passes n-byte blocks around the world ring for P-1
// steps, one tag per step.
func (r *Rank) ringAllgather(tag int, n int64) {
	P := r.Size()
	right, left := (r.id+1)%P, (r.id-1+P)%P
	for s := 0; s < P-1; s++ {
		r.csendrecv(right, tag+s, n, left, tag+s)
	}
}

// scatterRingBcast is GridMPI's large-message broadcast inside one
// cluster (van de Geijn): the root scatters P chunks, then a ring
// allgather circulates them — 2n per NIC instead of the binomial's
// log2(P)·n at the root.
func (r *Rank) scatterRingBcast(tag, root int, n int64) {
	chunk := max(n/int64(r.Size()), 1)
	if r.id == root {
		r.fanOut(tag, chunk, r.world(root))
	} else {
		r.crecv(root, tag)
	}
	r.ringAllgather(tag+1, chunk)
}

// --- lanes: GridMPI's two-site strategy ---

// laneChunk is the share of n bytes that lane i of k carries: equal
// chunks, with the remainder on the last lane.
func laneChunk(n int64, k, i int) int64 {
	chunk := n / int64(k)
	if i == k-1 {
		return n - chunk*int64(k-1)
	}
	return chunk
}

// laneBcast is the van de Geijn style broadcast GridMPI uses between
// clusters: the root scatters k chunks over the first k ranks of its
// site (counting from the root), lane i ships chunk i over the WAN to
// the other site's i-th rank, and each site allgathers the chunks. The
// WAN moves n/k bytes per flow on k simultaneous flows instead of n
// bytes on one.
func (r *Rank) laneBcast(tag, root int, n int64) {
	sv := &r.w.sites
	rs := sv.of[root]
	src, dst := sv.view(rs, sv.pos[root], r.id), sv.view(1-rs, 0, r.id)
	k := min(src.size(), dst.size())
	if r.id == root {
		reqs := make([]*Request, 0, k-1)
		for i := 1; i < k; i++ {
			reqs = append(reqs, r.cisend(src.at(i), tag, laneChunk(n, k, i)))
		}
		r.WaitAll(reqs...)
	} else if 0 < src.me && src.me < k {
		r.crecv(root, tag)
	}
	if 0 <= src.me && src.me < k {
		r.csend(dst.at(src.me), tag+1, laneChunk(n, k, src.me))
	} else if 0 <= dst.me && dst.me < k {
		r.crecv(src.at(dst.me), tag+1)
	}
	if src.me < 0 {
		src = dst
	}
	r.laneAllgather(tag+2, n, k, src)
}

// laneAllreduce is the grid-aware Rabenseifner scheme: allreduce inside
// each site, then lane i exchanges and combines chunk i with its peer
// on the other site, then each site allgathers the combined chunks.
func (r *Rank) laneAllreduce(tag int, n int64) {
	sv := &r.w.sites
	mine := r.site(0)
	peer := sv.groups[1-sv.of[r.id]]
	k := min(mine.size(), len(peer))
	r.groupAllreduce(tag, n, mine)
	wtag := tag + 32
	if mine.me < k {
		c := laneChunk(n, k, mine.me)
		r.csendrecv(peer[mine.me], wtag, c, peer[mine.me], wtag)
		r.combineCost(c)
	}
	r.laneAllgather(wtag+1, n, k, mine)
}

// laneAllgather spreads the k lane chunks of n bytes, held by the first
// k members of g counting from its root, to every member of g.
func (r *Rank) laneAllgather(tag int, n int64, k int, g group) {
	reqs := make([]*Request, 0, k+g.size())
	for i := 0; i < k; i++ {
		if i != g.me {
			reqs = append(reqs, r.cirecv(g.at(i), tag))
		}
	}
	if g.me < k {
		for j := 0; j < g.size(); j++ {
			if j != g.me {
				reqs = append(reqs, r.cisend(g.at(j), tag, laneChunk(n, k, g.me)))
			}
		}
	}
	r.WaitAll(reqs...)
}

// --- multilevel: the gateway strategy ---

// gatewayExchange has this gateway post a receive from every other
// site's gateway, then send each of them bundle(s) bytes, s the
// destination's site index, and wait for all of it.
func (r *Rank) gatewayExchange(tag int, bundle func(s int) int64) {
	gws := r.w.sites.gws
	reqs := make([]*Request, 0, 2*(len(gws)-1))
	for _, gw := range gws {
		if gw != r.id {
			reqs = append(reqs, r.cirecv(gw, tag))
		}
	}
	for s, gw := range gws {
		if gw != r.id {
			reqs = append(reqs, r.cisend(gw, tag, bundle(s)))
		}
	}
	r.WaitAll(reqs...)
}

// mlGather: members hand their block to the site gateway, and each
// remote gateway ships its site's bundle to the root in one WAN message.
func (r *Rank) mlGather(tag, root int, n int64) {
	site := r.site(root)
	if site.me == 0 {
		r.fanIn(tag, site)
	} else {
		r.csend(site.at(0), tag, n)
	}
	if r.id == root {
		r.fanIn(tag+1, r.gateways(root))
	} else if site.me == 0 {
		r.csend(root, tag+1, int64(site.size())*n)
	}
}

// mlScatter: the root ships each remote site its whole bundle via the
// gateway in one WAN message, then gateways deal members their slices.
func (r *Rank) mlScatter(tag, root int, n int64) {
	sv := &r.w.sites
	site := r.site(root)
	if r.id == root {
		gws := r.gateways(root)
		reqs := make([]*Request, 0, gws.size()-1)
		for v := 1; v < gws.size(); v++ {
			gw := gws.at(v)
			reqs = append(reqs, r.cisend(gw, tag, int64(len(sv.groups[sv.of[gw]]))*n))
		}
		r.WaitAll(reqs...)
	} else if site.me == 0 {
		r.crecv(root, tag)
	}
	if site.me == 0 {
		r.fanOut(tag+1, n, site)
	} else {
		r.crecv(site.at(0), tag+1)
	}
}

// mlAllgather: gather each site's blocks at its gateway, exchange the
// site bundles pairwise between gateways, then broadcast the assembled
// P·n result inside each site.
func (r *Rank) mlAllgather(tag int, n int64) {
	site := r.site(0)
	if site.me == 0 {
		r.fanIn(tag, site)
		bundle := int64(site.size()) * n
		r.gatewayExchange(tag+1, func(int) int64 { return bundle })
	} else {
		r.csend(site.at(0), tag, n)
	}
	r.bcastTree(tag+2, int64(r.Size())*n, site)
}

// mlAlltoall: members funnel all off-site payload through their gateway
// (phase 1), gateways exchange one aggregated bundle per site pair
// (phase 2, the only WAN phase: S·(S-1) messages instead of the flat
// algorithm's per-rank-pair storm), gateways deal the inbound bytes back
// out (phase 3), and the intra-site pairwise exchange runs directly
// (phase 4).
func (r *Rank) mlAlltoall(tag int, n int64) {
	sv := &r.w.sites
	site := r.site(0)
	offsite := int64(r.Size()-site.size()) * n
	if site.me == 0 {
		if offsite > 0 {
			r.fanIn(tag, site)
		}
		r.gatewayExchange(tag+1, func(s int) int64 {
			return int64(site.size()) * int64(len(sv.groups[s])) * n
		})
		if offsite > 0 {
			r.fanOut(tag+2, offsite, site)
		}
	} else if offsite > 0 {
		r.csend(site.at(0), tag, offsite)
		r.crecv(site.at(0), tag+2)
	}
	r.pairwise(tag+3, site, n, nil)
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
