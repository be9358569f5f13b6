package mpi

// Vector collectives and scan-class operations. The paper singles out
// MPI_Gatherv / MPI_Scatterv / MPI_Alltoallv as the operations MPICH-G2
// leaves topology-unaware (§2.1.5); all implementations here use the
// straightforward linear algorithms their TCP devices used.

// Gatherv collects sizes[i] bytes from rank i at root (sizes must be the
// same slice contents on every rank, as in MPI).
func (r *Rank) Gatherv(root int, sizes []int) {
	tag := r.nextCollTag()
	if r.id == root {
		var total int64
		for _, s := range sizes {
			total += int64(s)
		}
		r.w.stats.recordColl("gatherv", total)
		reqs := make([]*Request, 0, r.Size()-1)
		for i := 0; i < r.Size(); i++ {
			if i != root && sizes[i] > 0 {
				reqs = append(reqs, r.cirecv(i, tag))
			}
		}
		r.WaitAll(reqs...)
		return
	}
	if sizes[r.id] > 0 {
		r.csend(root, tag, int64(sizes[r.id]))
	}
}

// Scatterv distributes sizes[i] bytes from root to rank i.
func (r *Rank) Scatterv(root int, sizes []int) {
	tag := r.nextCollTag()
	if r.id == root {
		var total int64
		for _, s := range sizes {
			total += int64(s)
		}
		r.w.stats.recordColl("scatterv", total)
		reqs := make([]*Request, 0, r.Size()-1)
		for i := 0; i < r.Size(); i++ {
			if i != root && sizes[i] > 0 {
				reqs = append(reqs, r.cisend(i, tag, int64(sizes[i])))
			}
		}
		r.WaitAll(reqs...)
		return
	}
	if sizes[r.id] > 0 {
		r.crecv(root, tag)
	}
}

// ReduceScatter combines n bytes across all ranks and leaves each rank
// its n/P block: a ring reduce-scatter (P-1 steps of n/P bytes), the
// first half of the Rabenseifner allreduce.
func (r *Rank) ReduceScatter(n int) {
	tag := r.beginColl("reducescatter", 0, int64(n))
	P := r.Size()
	chunk := max(int64(n)/int64(P), 1)
	right := (r.id + 1) % P
	left := (r.id - 1 + P) % P
	for step := 0; step < P-1; step++ {
		r.csendrecv(right, tag+step, chunk, left, tag+step)
		r.combineCost(chunk)
	}
}

// Scan computes a prefix reduction: rank i receives the combination of
// ranks 0..i. The linear algorithm passes partial results up the rank
// order.
func (r *Rank) Scan(n int) {
	tag := r.beginColl("scan", 0, int64(n))
	if r.id > 0 {
		r.crecv(r.id-1, tag)
		r.combineCost(int64(n))
	}
	if r.id < r.Size()-1 {
		r.csend(r.id+1, tag, int64(n))
	}
}
