// Package mpi implements a message-passing library with MPI semantics on
// top of the simulated TCP transport: blocking and nonblocking
// point-to-point operations with tag matching, eager and rendezvous wire
// protocols, and the collective operations used by the paper's workloads.
//
// The behavioural differences between the four MPI implementations the
// paper compares are captured by a Profile: software latency overheads,
// the eager/rendezvous threshold, the socket-buffer policy, TCP pacing,
// grid-aware collective algorithms, and two implementation quirks
// (OpenMPI's fragment pipeline, MPICH-Madeleine's serialized rendezvous).
package mpi

import (
	"time"

	"repro/internal/tcpsim"
)

// EnvelopeBytes is the wire overhead added to every MPI message.
const EnvelopeBytes = 64

// ControlBytes is the wire size of rendezvous RTS/CTS control messages.
const ControlBytes = 64

// Infinite disables the rendezvous protocol when used as EagerThreshold.
const Infinite = int(^uint(0) >> 1)

// Profile parameterises the MPI engine to behave like one concrete MPI
// implementation. The zero value is not useful; start from one of the
// mpiimpl constructors or from Reference.
type Profile struct {
	Name string

	// OverheadLocal and OverheadWAN are the per-message software latency
	// the implementation adds over raw TCP on intra-cluster and WAN paths
	// respectively (the paper's Table 4 deltas).
	OverheadLocal time.Duration
	OverheadWAN   time.Duration

	// EagerThreshold is the largest payload sent eagerly; larger messages
	// use the rendezvous protocol. Use Infinite to disable rendezvous
	// (GridMPI's default for MPI_Send).
	EagerThreshold int

	// Buffers is the socket-buffer policy for the implementation's TCP
	// connections (§4.2.1).
	Buffers tcpsim.BufferPolicy

	// Pacing enables the GridMPI TCP pacing modification on all flows.
	Pacing bool

	// GridCollectives enables GridMPI's collective optimizations (Matsuda
	// et al., Cluster'06): on exactly two sites, Bcast and Allreduce of at
	// least 32 KiB send their payload over the WAN as k parallel
	// node-to-node lanes (the van de Geijn broadcast and the grid-aware
	// Rabenseifner allreduce); elsewhere, Bcast of at least 512 KiB is a
	// scatter followed by a ring allgather.
	GridCollectives bool

	// Multilevel switches every collective to the topology-aware
	// multilevel algorithms (Karonis et al., MPICH-G2): an intra-site
	// phase inside each site, an inter-site phase over one gateway rank
	// per site, then intra-site redistribution. Unlike GridCollectives'
	// lanes it handles any number of sites, and it takes precedence over
	// them; on a single site it falls through to the flat algorithms
	// unchanged.
	Multilevel bool

	// SerialRendezvous serializes rendezvous exchanges per peer pair
	// (MPICH-Madeleine's ch_mad engine behaviour).
	SerialRendezvous bool

	// SlowPathThreshold, when positive, models the size limit of an
	// implementation's pinned fast buffer (MPICH-Madeleine's
	// -fast-buffer channel): WAN messages larger than it fall back to a
	// polled path costing SlowPathStall of extra sender time each. With
	// the limit at ~148 kB, CG's 147 kB exchanges stay on the fast path
	// while BT/SP's ~152 kB ones stall — our model of the paper's
	// "application timeout" on grid BT/SP (Figure 10).
	SlowPathThreshold int
	SlowPathStall     time.Duration

	// FragmentSize > 0 splits payloads into pipeline fragments that each
	// cost FragmentOverhead of sender CPU (OpenMPI's BTL pipeline; the
	// cause of its slightly lower large-message bandwidth in Figure 7).
	FragmentSize     int
	FragmentOverhead time.Duration

	// ParallelStreams > 1 stripes large WAN payloads over that many TCP
	// connections (MPICH-G2's GridFTP-style large-message support,
	// §2.1.5): each stream ramps and keeps its own window, multiplying
	// window-limited throughput.
	ParallelStreams int
	// StreamMinSize is the smallest payload worth striping.
	StreamMinSize int

	// CopyRate is the memory-copy bandwidth (bytes/s) used to price the
	// extra copy of unexpected eager messages.
	CopyRate float64
}

// Reference is a minimal well-behaved profile used by unit tests: no
// overheads beyond TCP, a 128 kB eager threshold, autotuned buffers.
func Reference() Profile {
	return Profile{
		Name:           "reference",
		EagerThreshold: 128 << 10,
		Buffers:        tcpsim.Autotune,
		CopyRate:       2.5e9,
	}
}

// Overhead returns the per-message software latency for a local or WAN
// destination.
func (pr Profile) Overhead(wan bool) time.Duration {
	if wan {
		return pr.OverheadWAN
	}
	return pr.OverheadLocal
}

// UsesRendezvous reports whether a payload of n bytes goes through the
// rendezvous protocol under this profile.
func (pr Profile) UsesRendezvous(n int) bool {
	return pr.EagerThreshold != Infinite && n > pr.EagerThreshold
}

// WithEagerThreshold returns a copy with the eager/rendezvous threshold
// replaced (the paper's §4.2.2 tuning).
func (pr Profile) WithEagerThreshold(n int) Profile {
	pr.Name = pr.Name + "+rndv"
	pr.EagerThreshold = n
	return pr
}

// WithBuffers returns a copy with the socket-buffer policy replaced (the
// paper's §4.2.1 tuning).
func (pr Profile) WithBuffers(b tcpsim.BufferPolicy) Profile {
	pr.Buffers = b
	return pr
}
