// Package mpiimpl defines the four MPI implementation profiles the paper
// compares — MPICH2 1.0.5, GridMPI 1.1, MPICH-Madeleine (svn 2006-12-06)
// and OpenMPI 1.1.4 — plus a pseudo-implementation for the raw TCP
// pingpong, and the tuning rules of §4.2 (socket buffers and
// eager/rendezvous thresholds).
//
// Every number here is taken from the paper:
//   - latency overheads: Table 4 (cluster and grid deltas over TCP);
//   - default eager/rendezvous thresholds and tuned values: Table 5;
//   - socket-buffer behaviour: §4.2.1 (MPICH2 and MPICH-Madeleine ride
//     kernel autotuning; OpenMPI setsockopts 128 kB unless given mca
//     parameters; GridMPI is governed by the tcp_rmem middle value);
//   - GridMPI's pacing and collective optimizations: §2.1.4;
//   - OpenMPI's fragment pipeline: §2.1.3 (and its lower large-message
//     bandwidth in Figure 7);
//   - MPICH-Madeleine's serialized rendezvous: the BT/SP grid timeouts
//     reported in §4.3.
package mpiimpl

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/tcpsim"
)

// Implementation names, usable with Profile and Configure.
const (
	MPICH2    = "MPICH2"
	GridMPI   = "GridMPI"
	Madeleine = "MPICH-Madeleine"
	OpenMPI   = "OpenMPI"
	RawTCP    = "TCP"
	// MPICHG2 is the paper's future-work implementation (§2.1.5, §5):
	// Globus-based, topology-aware collectives, several parallel TCP
	// streams for large messages. Not part of the paper's measured
	// figures; provided for the extension experiments.
	MPICHG2 = "MPICH-G2"
)

// All lists the four MPI implementations in the paper's presentation order.
var All = []string{MPICH2, GridMPI, Madeleine, OpenMPI}

// WithTCP lists raw TCP followed by the four implementations, the line-up
// of the pingpong figures.
var WithTCP = []string{RawTCP, MPICH2, GridMPI, Madeleine, OpenMPI}

// Known lists every name Profile and Configure accept, in presentation
// order (for CLI validation; Profile panics on anything else).
var Known = []string{RawTCP, MPICH2, GridMPI, Madeleine, OpenMPI, MPICHG2}

const copyRate = 2.5e9 // bytes/s memcpy rate of the Opteron nodes

// Profile returns the default-configuration profile of one implementation.
func Profile(name string) mpi.Profile {
	switch name {
	case MPICH2:
		return mpi.Profile{
			Name:           MPICH2,
			OverheadLocal:  5 * time.Microsecond,
			OverheadWAN:    6 * time.Microsecond,
			EagerThreshold: 256 << 10,
			Buffers:        tcpsim.Autotune,
			CopyRate:       copyRate,
		}
	case GridMPI:
		return mpi.Profile{
			Name:            GridMPI,
			OverheadLocal:   5 * time.Microsecond,
			OverheadWAN:     7 * time.Microsecond,
			EagerThreshold:  mpi.Infinite, // no rendezvous for MPI_Send by default
			Buffers:         tcpsim.BufferPolicy{KernelDefault: true},
			Pacing:          true,
			GridCollectives: true,
			CopyRate:        copyRate,
		}
	case Madeleine:
		return mpi.Profile{
			Name:              Madeleine,
			OverheadLocal:     21 * time.Microsecond,
			OverheadWAN:       14 * time.Microsecond,
			EagerThreshold:    128 << 10,
			Buffers:           tcpsim.Autotune,
			SerialRendezvous:  true,
			SlowPathThreshold: 148 << 10,
			SlowPathStall:     40 * time.Millisecond,
			CopyRate:          copyRate,
		}
	case OpenMPI:
		return mpi.Profile{
			Name:             OpenMPI,
			OverheadLocal:    5 * time.Microsecond,
			OverheadWAN:      8 * time.Microsecond,
			EagerThreshold:   64 << 10,
			Buffers:          tcpsim.BufferPolicy{Explicit: 128 << 10},
			FragmentSize:     128 << 10,
			FragmentOverhead: 40 * time.Microsecond,
			CopyRate:         copyRate,
		}
	case RawTCP:
		// The reference pingpong written directly on TCP sockets: no MPI
		// software overhead, no protocol switch, autotuned buffers.
		return mpi.Profile{
			Name:           RawTCP,
			EagerThreshold: mpi.Infinite,
			Buffers:        tcpsim.Autotune,
			CopyRate:       copyRate,
		}
	case MPICHG2:
		// Latency overheads are estimates (the Globus layer is heavier
		// than a plain ch3 device); the paper does not measure MPICH-G2.
		return mpi.Profile{
			Name:            MPICHG2,
			OverheadLocal:   9 * time.Microsecond,
			OverheadWAN:     12 * time.Microsecond,
			EagerThreshold:  64 << 10,
			Buffers:         tcpsim.Autotune,
			GridCollectives: true, // "topology-aware" collectives
			ParallelStreams: 4,    // GridFTP-style large-message striping
			StreamMinSize:   1 << 20,
			CopyRate:        copyRate,
		}
	}
	panic(fmt.Sprintf("mpiimpl: unknown implementation %q", name))
}

// TunedThreshold returns the paper's Table 5 ideal eager/rendezvous
// threshold (same value on cluster and grid); ok is false for
// implementations whose default needs no change (GridMPI, raw TCP).
func TunedThreshold(name string) (int, bool) {
	switch name {
	case MPICH2, Madeleine:
		return 65 << 20, true
	case OpenMPI:
		return 32 << 20, true
	}
	return 0, false
}

// Configure assembles the (profile, TCP stack) pair for one implementation
// at a given tuning level, following §4.2:
//
//	tcpTuned=false: stock Linux 2.6.18 sysctls and implementation defaults
//	  (the Figure 3 configuration).
//	tcpTuned=true: 4 MB rmem_max/wmem_max and autotuning maxima, plus the
//	  per-implementation buffer fix — GridMPI needs the tcp_rmem middle
//	  value raised, OpenMPI needs btl_tcp_sndbuf/rcvbuf=4194304
//	  (the Figure 6 configuration).
//	mpiTuned=true additionally applies the Table 5 eager/rendezvous
//	  thresholds (the Figure 7 configuration).
func Configure(name string, tcpTuned, mpiTuned bool) (mpi.Profile, tcpsim.Config) {
	prof := Profile(name)
	cfg := tcpsim.DefaultLinux26()
	if tcpTuned {
		cfg = tcpsim.Tuned4MB()
		switch name {
		case GridMPI:
			// "In GridMPI, the middle value of TCP socket buffer has to
			// be increased."
			cfg.TCPRmem[1] = 4 << 20
			cfg.TCPWmem[1] = 4 << 20
		case OpenMPI:
			// "-mca btl_tcp_sndbuf 4194304 -mca btl_tcp_rcvbuf 4194304"
			prof = prof.WithBuffers(tcpsim.BufferPolicy{Explicit: 4 << 20})
		}
	}
	if mpiTuned {
		if thr, ok := TunedThreshold(name); ok {
			prof = prof.WithEagerThreshold(thr)
		}
		if name == MPICHG2 {
			prof = prof.WithEagerThreshold(32 << 20)
		}
	}
	return prof, cfg
}

// Feature summarises Table 1 for one implementation.
type Feature struct {
	Name            string
	LongDistance    string
	Heterogeneity   string
	FirstLastPublic string
}

// Features reproduces the paper's Table 1 feature matrix for the four
// implementations under study.
func Features() []Feature {
	return []Feature{
		{MPICH2, "None", "None", "2002 / 2006"},
		{GridMPI, "TCP optimizations (pacing); optimized Bcast and Allreduce", "IMPI above TCP; no low-latency network support", "2004 / 2006"},
		{Madeleine, "None", "Gateways between TCP, SCI, VIA, Myrinet MX/GM, Quadrics", "2003 / 2007"},
		{OpenMPI, "None", "Gateways between TCP, Myrinet MX/GM, Infiniband OpenIB/mVAPI", "2004 / 2007"},
	}
}
