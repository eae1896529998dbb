package exp

// Result-cache integration: the mapping from harness artifacts to
// content-addressed cache entries. Two artifact classes are memoized:
//
//   - Generated traces, keyed by the full generation configuration (app,
//     machine geometry, scale, miss penalty, traced CPU, bandwidth model,
//     cache-geometry override) plus the trace format version. The payload
//     couples the serialized v3 trace with a JSON sidecar holding the
//     multiprocessor statistics and the metrics fragment the generation
//     published, so a warm run restores everything a cold run produces —
//     including the registry contents the determinism checksum hashes. A
//     restored trace's container checks run on read, but its events are
//     decoded only when a cell misses or a table reads them.
//   - Replay-cell results, keyed by (trace content address, cell spec).
//     A replay is a pure function of those two (see RunSpec), and the
//     published Column is fully reconstructed from the spec plus the
//     breakdown and instruction count, so that pair is the entire payload
//     of a plain cell entry. Every cell is a CellSpec — the figure
//     matrices, the window sweeps and the ablations alike — so every cell
//     is cached. The analyze and timeline probes attach the same
//     instruments, so their cells share a probe entry under the same key,
//     whose payload adds the attribution and the sampled series.
//
// The dynsched version namespace lives inside cache.Store (set at Open), so
// the keys here never embed it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"dynsched/internal/cache"
	"dynsched/internal/cpu"
	"dynsched/internal/mem"
	"dynsched/internal/obs"
	"dynsched/internal/tango"
	"dynsched/internal/trace"
)

// Cache entry kinds (part of the key namespace).
const (
	traceKind = "trace"
	cellKind  = "cell"
	probeKind = "probe"
)

// traceKey digests every generation input that can change the produced
// trace or its sidecar. Whether the run collects metrics is not one: the
// sidecar always carries the generation's metrics fragment (see generate),
// so runs with and without metrics share the entry.
func (e *Experiment) traceKey(app string) string {
	o := &e.opts
	return fmt.Sprintf("app=%s|cpus=%d|scale=%s|penalty=%d|tracecpu=%d|memissue=%d|cachebytes=%d|tracefmt=%d",
		app, o.NumCPUs, o.Scale, o.MissPenalty, o.TraceCPU%o.NumCPUs,
		o.MemIssueInterval, e.cacheBytes, trace.FormatVersion)
}

// traceSidecar is the JSON half of a cached trace entry: everything an
// AppRun carries besides the trace itself, plus the metrics fragment.
type traceSidecar struct {
	Caches  []mem.Stats      `json:"caches,omitempty"`
	CPUs    []tango.CPUStats `json:"cpus,omitempty"`
	Metrics obs.Snapshot     `json:"metrics"`
}

// encodeTraceEntry packs a cached trace payload: uint32 sidecar length, the
// JSON sidecar, then the serialized v3 trace (self-verifying on decode).
func encodeTraceEntry(sc traceSidecar, traceBytes []byte) ([]byte, error) {
	meta, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 4+len(meta)+len(traceBytes))
	buf = append(buf, byte(len(meta)), byte(len(meta)>>8), byte(len(meta)>>16), byte(len(meta)>>24))
	buf = append(buf, meta...)
	buf = append(buf, traceBytes...)
	return buf, nil
}

// decodeTraceEntry splits a cached trace payload back into sidecar and
// trace bytes. The trace bytes alias the input.
func decodeTraceEntry(payload []byte) (traceSidecar, []byte, error) {
	var sc traceSidecar
	if len(payload) < 4 {
		return sc, nil, fmt.Errorf("exp: cached trace entry truncated (%d bytes)", len(payload))
	}
	n := int(payload[0]) | int(payload[1])<<8 | int(payload[2])<<16 | int(payload[3])<<24
	if n < 0 || len(payload) < 4+n {
		return sc, nil, fmt.Errorf("exp: cached trace entry sidecar length %d exceeds payload", n)
	}
	if err := json.Unmarshal(payload[4:4+n], &sc); err != nil {
		return sc, nil, fmt.Errorf("exp: cached trace sidecar: %w", err)
	}
	return sc, payload[4+n:], nil
}

// traceAddrBytes is the content address of serialized trace bytes — the
// same FNV-64a as trace.ContentAddr, so a trace has one identity across
// the cache and tracetool.
func traceAddrBytes(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// cellKey is the cache key of one replay-cell result: the trace content
// address plus the serialized spec.
func cellKey(traceAddr string, spec CellSpec) string {
	js, _ := json.Marshal(spec) // CellSpec is a closed struct; cannot fail
	return "trace=" + traceAddr + "|spec=" + string(js)
}

// cellResult is a cached cell payload. Breakdown and Instructions fully
// determine the published Column (SpecColumn) and the figure metrics
// (RecordColumns), so nothing else needs to persist.
type cellResult struct {
	Breakdown    cpu.Breakdown `json:"breakdown"`
	Instructions uint64        `json:"instructions"`
}

// entry returns the cache kind and payload of a cell outcome: the bare
// cellResult for a plain cell, the whole outcome — attribution and
// samples included — for a probed one.
func (p probe) entry(out cellOutcome) (kind string, payload []byte, err error) {
	if p == noProbe {
		payload, err = json.Marshal(out.cellResult)
		return cellKind, payload, err
	}
	payload, err = json.Marshal(out)
	return probeKind, payload, err
}

// cellGet looks up the cached outcome of spec over the trace at traceAddr,
// of the entry kind p replays. Safe on a nil store.
func cellGet(s *cache.Store, p probe, traceAddr string, spec CellSpec) (cellOutcome, bool) {
	var out cellOutcome
	if s == nil || traceAddr == "" {
		return out, false
	}
	kind, dst := probeKind, any(&out)
	if p == noProbe {
		kind, dst = cellKind, &out.cellResult
	}
	// A payload that no longer decodes passed the CRC, so it is a schema
	// change, not corruption: a miss, recomputed and overwritten.
	if _, ok := s.GetChecked(kind, cellKey(traceAddr, spec), func(payload []byte) error {
		return json.Unmarshal(payload, dst)
	}); !ok {
		return cellOutcome{}, false
	}
	return out, true
}

// cellPut stores one computed cell outcome. Safe on a nil store; errors
// are deliberately dropped — a failed Put degrades to a future recompute,
// never fails a sweep.
func cellPut(s *cache.Store, p probe, traceAddr string, spec CellSpec, out cellOutcome) {
	if s == nil || traceAddr == "" {
		return
	}
	kind, payload, err := p.entry(out)
	if err != nil {
		return
	}
	s.Put(kind, cellKey(traceAddr, spec), payload) //nolint:errcheck
}

// sameOutcome reports whether a recomputed outcome matches a cached one in
// everything the entry stores, compared by encoding.
func (p probe) sameOutcome(fresh, cached cellOutcome) bool {
	_, a, errA := p.entry(fresh)
	_, b, errB := p.entry(cached)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// CellCacheGet looks up a cached cell result. Safe on a nil store.
func CellCacheGet(s *cache.Store, traceAddr string, spec CellSpec) (cpu.Breakdown, uint64, bool) {
	out, ok := cellGet(s, noProbe, traceAddr, spec)
	return out.Breakdown, out.Instructions, ok
}

// CellCachePut stores one computed cell result. Safe on a nil store.
func CellCachePut(s *cache.Store, traceAddr string, spec CellSpec, b cpu.Breakdown, instructions uint64) {
	cellPut(s, noProbe, traceAddr, spec, cellOutcome{cellResult: cellResult{Breakdown: b, Instructions: instructions}})
}

// verifySelected deterministically picks the fraction of cache hits that
// -cache-verify recomputes: an FNV-64a hash of the cell key modulo 10000
// against the per-mille threshold, so the same cells are audited on every
// run regardless of worker count or schedule.
func verifySelected(fraction float64, key string) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()%10000 < uint64(fraction*10000)
}
