// Package faultinject is the deterministic fault-injection harness behind
// the robustness tests: it lets a test arm panics and errors at named sites
// inside the experiment pipeline, then assert that the surrounding layers
// contain the failure — a panicking cell must not crash the sweep, and a
// failing generation must fail only its own application's cells.
//
// Injection is fully deterministic: a fault fires on exactly the first
// Times calls to Fire for its site (no randomness, no time dependence), so
// every run of a fault-injection test exercises the identical failure.
//
// A nil *Injector is inert and every hook is nil-safe, so production code
// paths carry injection sites at the cost of a nil check.
package faultinject

import (
	"fmt"
	"sync"
)

// Kind selects what happens when an armed fault fires.
type Kind int

const (
	// KindError makes Fire return an *InjectedError.
	KindError Kind = iota
	// KindPanic makes Fire panic with an *InjectedError.
	KindPanic
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// InjectedError is the error (or panic value) produced by a fired fault.
// Tests unwrap to it with errors.As to prove a failure travelled through the
// pipeline's containment layers intact.
type InjectedError struct {
	Site string
	Kind Kind
	N    int // 1-based count of firings at this site
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %q (firing %d)", e.Kind, e.Site, e.N)
}

// Fault arms one failure mode at a site.
type Fault struct {
	Kind Kind
	// Times is how many Fire calls trigger the fault before it disarms;
	// 0 means 1 (fire once).
	Times int
}

type armed struct {
	fault Fault
	fired int // total Fire calls that triggered
	seen  int // total Fire calls, triggered or not
}

// Injector holds the armed faults of one test. The zero value and nil are
// both usable (no faults armed).
type Injector struct {
	mu    sync.Mutex
	sites map[string]*armed
}

// New returns an empty injector.
func New() *Injector { return &Injector{} }

// Arm installs f at site, replacing any previous fault there.
func (in *Injector) Arm(site string, f Fault) {
	if f.Times == 0 {
		f.Times = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.sites == nil {
		in.sites = make(map[string]*armed)
	}
	in.sites[site] = &armed{fault: f}
}

// Fire triggers the fault armed at site, if any: it panics or returns an
// error according to the fault's Kind. Once a fault has fired Times times
// it disarms and Fire returns nil. Nil-safe.
func (in *Injector) Fire(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	a := in.sites[site]
	if a == nil {
		in.mu.Unlock()
		return nil
	}
	a.seen++
	if a.fired >= a.fault.Times {
		in.mu.Unlock()
		return nil
	}
	a.fired++
	err := &InjectedError{Site: site, Kind: a.fault.Kind, N: a.fired}
	in.mu.Unlock()

	if err.Kind == KindPanic {
		panic(err)
	}
	return err
}

// Fired reports how many times the fault at site has triggered. Nil-safe.
func (in *Injector) Fired(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if a := in.sites[site]; a != nil {
		return a.fired
	}
	return 0
}

// Seen reports how many times Fire was called for site (whether or not the
// fault still triggered). Nil-safe.
func (in *Injector) Seen(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if a := in.sites[site]; a != nil {
		return a.seen
	}
	return 0
}
