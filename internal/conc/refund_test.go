package conc

import (
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/outcome"
	"github.com/go-atomicswap/atomicswap/internal/trace"
)

// mutePublisher publishes its leaving arcs like a leader should, then
// never reveals — a minimal in-package deviation for exercising the
// refund machinery without importing the adversary package.
type mutePublisher struct {
	core.NopBehavior
}

func (mutePublisher) Init(e core.Env) {
	for _, arc := range e.Spec().D.Out(e.Vertex()) {
		if err := e.Publish(arc); err != nil {
			e.Abandon("publish failed")
			return
		}
	}
}

func TestRefundsAfterMuteLeader(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := NewRunner(setup)
	r.SetBehavior(0, mutePublisher{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The followers deployed and then reclaimed their escrow; the mute
	// leader scheduled no alarms, so its own contract stays locked.
	refunds := res.Log.OfKind(trace.KindRefunded)
	if len(refunds) != 2 {
		t.Fatalf("refunds = %d, want 2 (Bob's and Carol's)\n%s", len(refunds), res.Log.Render())
	}
	for _, v := range res.Spec.D.Vertices() {
		if got := res.Report.Of(v); got != outcome.NoDeal {
			t.Errorf("%s = %v, want NoDeal", res.Spec.PartyOf(v), got)
		}
	}
	// Bob's and Carol's assets are back; Alice's sits in escrow forever.
	for id := 1; id <= 2; id++ {
		aa := setup.Spec.Assets[id]
		owner, _ := res.Registry.Chain(aa.Chain).OwnerOf(aa.Asset)
		want := setup.Spec.PartyOf(setup.Spec.D.Arc(id).Head)
		if owner != chain.ByParty(want) {
			t.Errorf("asset %s owner = %v, want refunded to %s", aa.Asset, owner, want)
		}
	}
}

// wrongParamsPublisher publishes a contract with a tampered hashlock so
// the counterparty's verification must fail.
type wrongParamsPublisher struct {
	core.NopBehavior
}

func (wrongParamsPublisher) Init(e core.Env) {
	for _, arc := range e.Spec().D.Out(e.Vertex()) {
		p := e.Spec().ContractParams(arc)
		p.Locks[0] = hashkey.Lock{0xBA, 0xD}
		if err := e.PublishSwapParams(p); err != nil {
			e.Note(trace.KindUnlockFailed, arc, -1, err.Error())
		}
	}
}

func TestCounterpartyAbandonsOnWrongLock(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{Delta: 10, Start: 100})
	r := NewRunner(setup)
	r.SetBehavior(0, wrongParamsPublisher{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Log.OfKind(trace.KindContractRejected)); got != 1 {
		t.Errorf("rejections = %d, want 1 (Bob rejects Alice's contract)", got)
	}
	if got := len(res.Log.OfKind(trace.KindAbandoned)); got != 1 {
		t.Errorf("abandonments = %d, want 1", got)
	}
	// Nothing downstream of the rejection ever deploys.
	if got := len(res.Log.OfKind(trace.KindContractPublished)); got != 1 {
		t.Errorf("publications = %d, want only the corrupt one", got)
	}
	for _, v := range res.Spec.D.Vertices() {
		if got := res.Report.Of(v); got != outcome.NoDeal {
			t.Errorf("%s = %v, want NoDeal", res.Spec.PartyOf(v), got)
		}
	}
}

// TestAbandonIsIdempotent double-abandons through the env and checks a
// single trace event results.
type doubleAbandoner struct{ core.NopBehavior }

func (doubleAbandoner) Init(e core.Env) {
	e.Abandon("first")
	e.Abandon("second")
}

func TestAbandonIsIdempotent(t *testing.T) {
	setup := concSetup(t, graphgen.ThreeWay(), core.Config{})
	r := NewRunner(setup)
	r.SetBehavior(1, doubleAbandoner{})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Log.OfKind(trace.KindAbandoned)); got != 1 {
		t.Errorf("abandon events = %d, want 1", got)
	}
}
