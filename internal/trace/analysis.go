package trace

import (
	"dynsched/internal/isa"
	"dynsched/internal/obs"
)

// ReadMissDistances returns the distribution of distances, in dynamic
// instructions, between consecutive read misses — the §4.1.3 diagnostic
// ("our detailed simulation data for LU show that 90% of the read misses
// are a distance of 20-30 instructions apart"). The distance between two
// independent misses bounds the window size needed to overlap them.
func (t *Trace) ReadMissDistances() *obs.LocalHistogram {
	h := obs.NewLocalHistogram(10, 16, 20, 30, 50, 100)
	last := -1
	for i := range t.Events {
		e := &t.Events[i]
		if e.Instr.Op != isa.OpLd || !e.Miss {
			continue
		}
		if last >= 0 {
			h.Observe(uint64(i - last))
		}
		last = i
	}
	return h
}

// SharingStats summarizes which fraction of the trace's read misses hit
// synchronization-adjacent data: misses within `window` instructions after
// an acquire. It quantifies how much of the communication is produced by
// critical sections (useful when comparing against the applications'
// qualitative descriptions in §3.3).
func (t *Trace) MissesAfterAcquire(window int) float64 {
	var total, near uint64
	lastAcquire := -1 << 30
	for i := range t.Events {
		e := &t.Events[i]
		if e.IsAcquire() {
			lastAcquire = i
		}
		if e.Instr.Op == isa.OpLd && e.Miss {
			total++
			if i-lastAcquire <= window {
				near++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(near) / float64(total)
}

// LatencyBound returns the total memory and synchronization latency carried
// by the trace: the amount of time BASE spends beyond one cycle per
// instruction. It decomposes into read, write, and synchronization shares
// and is used by tests as an independent cross-check of the BASE model.
func (t *Trace) LatencyBound() (read, write, sync uint64) {
	for i := range t.Events {
		e := &t.Events[i]
		switch e.Class() {
		case isa.ClassLoad:
			read += uint64(e.Latency) - 1
		case isa.ClassStore:
			write += uint64(e.Latency) - 1
		case isa.ClassSync:
			if e.IsAcquire() {
				sync += uint64(e.Wait) + uint64(e.Latency) - 1
			} else {
				write += uint64(e.Wait) + uint64(e.Latency) - 1
			}
		}
	}
	return read, write, sync
}
