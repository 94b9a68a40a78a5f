package conc

import (
	"fmt"
	"strings"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/metrics"
	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/trace"
)

// Runner executes one swap alone under the paper's model: actions land on
// chains instantly; every observer (party) is notified exactly Δ later, the
// worst-case publish-and-detect latency. It is a run of this package on a
// one-worker sched.Virtual — its dispatcher runs every stripe itself, with
// no helper — and a registry of its own, so the whole run is one thread of
// control in (tick, scheduling) order and a pure function of the setup. NewRunner starts that scheduler's dispatcher and Run stops it: run
// every Runner you build.
type Runner struct {
	setup     *core.Setup
	sched     *sched.Virtual
	reg       *chain.Registry
	log       *trace.Log
	behaviors map[digraph.Vertex]core.Behavior
	ran       bool
}

// NewRunner prepares a run of the given setup. Every party defaults to the
// conforming behavior for the spec's protocol variant.
func NewRunner(setup *core.Setup) *Runner {
	s := sched.NewVirtual(1)
	return &Runner{
		setup:     setup,
		sched:     s,
		reg:       chain.NewRegistry(s),
		log:       &trace.Log{},
		behaviors: make(map[digraph.Vertex]core.Behavior),
	}
}

// SetBehavior replaces a party's behavior (adversaries, probes). The
// vertex no longer counts as conforming in the result.
func (r *Runner) SetBehavior(v digraph.Vertex, b core.Behavior) { r.behaviors[v] = b }

// Log exposes the live trace log (also available on the Result).
func (r *Runner) Log() *trace.Log { return r.log }

// Registry exposes the chain registry.
func (r *Runner) Registry() *chain.Registry { return r.reg }

// PublishedArcs reads the published-contract set off a finished or
// in-flight run's registry, for Spec.WaitsFor and Spec.DeadlockCycle.
func (r *Runner) PublishedArcs() map[int]bool {
	spec := r.setup.Spec
	out := make(map[int]bool, spec.D.NumArcs())
	for id := 0; id < spec.D.NumArcs(); id++ {
		if _, ok := r.reg.Chain(spec.Assets[id].Chain).Contract(spec.ContractID(id)); ok {
			out[id] = true
		}
	}
	return out
}

// Run executes the protocol to quiescence and reports the outcome. A
// runner is single-use.
func (r *Runner) Run() (*core.Result, error) {
	if r.ran {
		return nil, fmt.Errorf("conc: runner is single-use")
	}
	r.ran = true
	// Stops the dispatcher on the error path; RunUntil already has on the
	// other.
	defer r.sched.Close()
	rn, err := prepare(r.setup, r.behaviors, Config{Scheduler: r.sched, Registry: r.reg, Log: r.log}, true)
	if err != nil {
		return nil, err
	}
	r.sched.RunUntil(rn.r.horizonTick)
	out := rn.Wait()

	spec := r.setup.Spec
	res := &core.Result{
		Spec:         spec,
		Triggered:    out.Triggered,
		Report:       out.Report,
		Log:          r.log,
		Counters:     r.counters(),
		Timing:       metrics.Timing{Start: spec.Start, Delta: spec.Delta},
		StorageBytes: r.reg.TotalStorageBytes(),
		Registry:     r.reg,
	}
	res.Counters.FailedCalls = int(rn.r.failed.Load())
	for _, v := range spec.D.Vertices() {
		if r.behaviors[v] == nil {
			res.Conforming = append(res.Conforming, v)
		}
	}
	for _, span := range out.Escrows {
		if span.From.After(res.Timing.DeployDone) {
			res.Timing.DeployDone = span.From
		}
		if span.Resolved && span.To.After(res.Timing.AllDone) {
			res.Timing.AllDone = span.To
		}
	}
	return res, nil
}

// counters tallies the calls the run's chains accepted from the ledgers
// they keep: every publication and invocation is a record carrying its
// charged size and, for invocations, the method in its note.
func (r *Runner) counters() metrics.Counters {
	var c metrics.Counters
	for _, name := range r.reg.Names() {
		for _, rec := range r.reg.Chain(name).Records() {
			switch rec.Kind {
			case chain.NoteContractPublished:
				c.AddPublish(rec.Size)
			case chain.NoteInvocation:
				switch method, _, _ := strings.Cut(rec.Note, ":"); method {
				case htlc.MethodUnlock, htlc.MethodRedeem:
					c.AddUnlock(rec.Size)
				case htlc.MethodClaim:
					c.AddClaim()
				case htlc.MethodRefund:
					c.AddRefund()
				}
			}
		}
	}
	return c
}
