// Package servicetest holds the fake engines the service, cluster and
// conformance tests share, so the lifecycle tests stay fast and
// deterministic without giving up the real submission path. Both accept
// the same Params every real engine does, so the validation and cache
// layers treat them identically.
package servicetest

import (
	"context"
	"sync"

	"repro/internal/sim"
)

// Register adds three engines to the sim registry: prefix+"-stub" completes
// instantly with a result derived from its params (checkable, byte-stable,
// so spec-order aggregation can be asserted), prefix+"-block" parks until
// OpenGate or the job deadline (so queue-full, timeout, cancel, drain and
// mid-sweep states are reachable on demand), prefix+"-panic" panics
// mid-run the way a model bug would. Call once, from a test package's init.
func Register(prefix string) {
	sim.Register(prefix+"-stub", func() sim.Engine { return &engine{name: prefix + "-stub"} })
	sim.Register(prefix+"-block", func() sim.Engine { return &engine{name: prefix + "-block", block: true} })
	sim.Register(prefix+"-panic", func() sim.Engine { return &engine{name: prefix + "-panic", panics: true} })
}

// gate is the shared release signal for "-block" runs. Tests that use a
// blocking engine call ResetGate first and must not run in parallel.
var gate = struct {
	sync.Mutex
	ch     chan struct{}
	closed bool
}{ch: make(chan struct{})}

// ResetGate arms a fresh, closed gate.
func ResetGate() {
	gate.Lock()
	gate.ch = make(chan struct{})
	gate.closed = false
	gate.Unlock()
}

// OpenGate releases every parked "-block" run; idempotent.
func OpenGate() {
	gate.Lock()
	if !gate.closed {
		close(gate.ch)
		gate.closed = true
	}
	gate.Unlock()
}

func gateCh() chan struct{} {
	gate.Lock()
	defer gate.Unlock()
	return gate.ch
}

type engine struct {
	name   string
	block  bool
	panics bool
	p      sim.Params
}

func (e *engine) Describe() string             { return "test engine " + e.name }
func (e *engine) Configure(p sim.Params) error { e.p = p; return nil }
func (e *engine) Run() (sim.Result, error)     { return e.RunContext(context.Background()) }
func (e *engine) RunContext(ctx context.Context) (sim.Result, error) {
	if e.panics {
		panic("injected engine bug")
	}
	if e.block {
		select {
		case <-ctx.Done():
		case <-gateCh():
		}
	}
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	return sim.Result{
		Engine:       e.name,
		Workload:     e.p.Workload,
		Instructions: e.p.MaxInstructions,
		TargetCycles: 2 * e.p.MaxInstructions,
		IPC:          0.5,
	}, nil
}
