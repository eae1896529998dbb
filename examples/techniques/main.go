// Techniques compares the latency-tolerance techniques the paper discusses
// (§5, §6) on one workload: dynamic scheduling under RC, sequential
// consistency boosted by non-binding prefetch and by speculative loads
// (reference [8]), compiler load rescheduling for the simple SS processor,
// and a switch-on-miss multiple-contexts processor.
package main

import (
	"fmt"
	"log"

	"dynsched"
	"dynsched/internal/apps"
	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/mem"
	"dynsched/internal/resched"
	"dynsched/internal/tango"
	"dynsched/internal/vm"
)

func main() {
	const app = "mp3d"

	// Generate all 16 processors' traces in one multiprocessor run so the
	// multiple-contexts processor has real sibling threads to interleave.
	a, err := apps.Build(app, 16, apps.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	cfg := tango.Config{NumCPUs: 16, TraceCPU: 1, Mem: mem.DefaultConfig(), RecordAll: true}
	res, err := tango.Run(a.Progs, func(m *vm.PagedMem) { a.Init(m) }, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr := res.Trace

	base, err := cpu.Replay(cpu.ArchBase, cpu.TraceSource(tr), cpu.Config{})
	if err != nil {
		log.Fatal(err)
	}
	norm := func(total uint64) float64 {
		return 100 * float64(total) / float64(base.Breakdown.Total())
	}
	fmt.Printf("%-34s %8s\n", "technique ("+app+")", "%of BASE")
	fmt.Printf("%-34s %7.1f%%\n", "BASE (no overlap)", 100.0)

	show := func(name string, c cpu.Config) {
		r, err := cpu.Replay(cpu.ArchDS, cpu.TraceSource(tr), c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %7.1f%%\n", name, norm(r.Breakdown.Total()))
	}
	show("SC, dynamic scheduling (W=64)", cpu.Config{Model: consistency.SC, Window: 64})
	show("SC + non-binding prefetch [8]", cpu.Config{Model: consistency.SC, Window: 64, Prefetch: true})
	show("SC + speculative loads [8]", cpu.Config{Model: consistency.SC, Window: 64, SpeculativeLoads: true})
	show("RC, dynamic scheduling (W=64)", cpu.Config{Model: consistency.RC, Window: 64})
	show("RC, W=64, perfect branches", cpu.Config{Model: consistency.RC, Window: 64, Predictor: bpred.Perfect{}})

	// Compiler rescheduling on the simple SS processor.
	ssPlain, err := cpu.Replay(cpu.ArchSS, cpu.TraceSource(tr), cpu.Config{Model: consistency.RC})
	if err != nil {
		log.Fatal(err)
	}
	moved, st := resched.RescheduleLevel(tr, 64, resched.Aggressive)
	ssSched, err := cpu.Replay(cpu.ArchSS, cpu.TraceSource(moved), cpu.Config{Model: consistency.RC})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %7.1f%%\n", "SS (static, non-blocking reads)", norm(ssPlain.Breakdown.Total()))
	fmt.Printf("%-34s %7.1f%%   (%d loads hoisted)\n", "SS + global load scheduling",
		norm(ssSched.Breakdown.Total()), st.Hoisted)

	// Multiple contexts: utilization rather than normalized time (it runs
	// 4 threads' worth of work on one pipeline).
	mc, err := cpu.RunMC(res.Traces[:4], 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %7.0f%%   (utilization, 4 contexts)\n", "multiple contexts (switch=4)",
		100*mc.Utilization)

	// And the library facade view of the same headline comparison.
	ds, err := dynsched.Run(tr, dynsched.ProcessorConfig{Arch: dynsched.ArchDS, Model: dynsched.RC, Window: 64})
	if err != nil {
		log.Fatal(err)
	}
	hidden := 1 - float64(ds.Breakdown.Read)/float64(base.Breakdown.Read)
	fmt.Printf("\nRC dynamic scheduling hides %.0f%% of %s's read latency at window 64.\n", 100*hidden, app)
}
