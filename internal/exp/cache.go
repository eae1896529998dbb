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
//     including the registry contents the determinism checksum hashes.
//   - Replay-cell results, keyed by (trace content address, cell spec).
//     A replay is a pure function of those two (see RunSpec), and the
//     published Column is fully reconstructed from the spec plus the
//     breakdown and instruction count, so that pair is the entire payload.
//     Every cell is a CellSpec — the figure matrices, the window sweeps and
//     the ablations alike — so every unprobed cell is cached; the analyze
//     and timeline probes' instruments are not part of the payload, so
//     their cells always compute.
//
// The dynsched version namespace lives inside cache.Store (set at Open), so
// the keys here never embed it; the same helpers serve the in-process
// scheduler and the distributed coordinator, which is what keeps a
// coordinator-served cached result byte-identical to a locally computed one.

import (
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
)

// traceKey digests every generation input that can change the produced
// trace or its sidecar. The metrics flag is part of the key because the
// sidecar's metrics fragment exists only when a registry was attached: a
// warm run with metrics must not hit an entry whose fragment is empty.
func (e *Experiment) traceKey(app string) string {
	o := &e.opts
	return fmt.Sprintf("app=%s|cpus=%d|scale=%s|penalty=%d|tracecpu=%d|memissue=%d|cachebytes=%d|tracefmt=%d|metrics=%t",
		app, o.NumCPUs, o.Scale, o.MissPenalty, o.TraceCPU%o.NumCPUs,
		o.MemIssueInterval, e.cacheBytes, trace.FormatVersion, o.Metrics != nil)
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
// same FNV-64a the distributed coordinator's /traces endpoint uses, so a
// trace has one identity across the cache, the wire, and tracetool.
func traceAddrBytes(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// CellKey is the cache key of one replay-cell result: the trace content
// address plus the serialized spec. Exported so the distributed coordinator
// and the in-process scheduler address the identical entries.
func CellKey(traceAddr string, spec CellSpec) string {
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

// CellCacheGet looks up a cached cell result. Safe on a nil store.
func CellCacheGet(s *cache.Store, traceAddr string, spec CellSpec) (cpu.Breakdown, uint64, bool) {
	if s == nil || traceAddr == "" {
		return cpu.Breakdown{}, 0, false
	}
	payload, ok := s.Get(cellKind, CellKey(traceAddr, spec))
	if !ok {
		return cpu.Breakdown{}, 0, false
	}
	var res cellResult
	if err := json.Unmarshal(payload, &res); err != nil {
		// The CRC matched, so this is a schema change, not corruption;
		// recompute and overwrite.
		return cpu.Breakdown{}, 0, false
	}
	return res.Breakdown, res.Instructions, true
}

// CellCachePut stores one computed cell result. Safe on a nil store; errors
// are deliberately dropped — a failed Put degrades to a future recompute,
// never fails a sweep.
func CellCachePut(s *cache.Store, traceAddr string, spec CellSpec, b cpu.Breakdown, instructions uint64) {
	if s == nil || traceAddr == "" {
		return
	}
	payload, err := json.Marshal(cellResult{Breakdown: b, Instructions: instructions})
	if err != nil {
		return
	}
	s.Put(cellKind, CellKey(traceAddr, spec), payload) //nolint:errcheck
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
