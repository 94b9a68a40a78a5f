package scenario

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// swapDraws is what one cleared swap drew: its leader secrets, its
// parties' public keys (hashkey swaps only) and the deviants the
// scenario factory gave it.
type swapDraws struct {
	secrets, keys, deviants string
}

// drawRun runs offers, all booked before the first clearing round, through
// an engine of cfg, and returns the engine (stopped) and, when f is not
// nil, each swap's draws by tag with f as the behavior factory. With f nil
// the engine keeps cfg.AdversaryRate, which a factory overrides.
func drawRun(t *testing.T, cfg engine.Config, f engine.BehaviorFactory, offers []core.Offer) (map[string]swapDraws, *engine.Engine) {
	t.Helper()
	var mu sync.Mutex
	draws := make(map[string]swapDraws)
	cfg.Deterministic = true
	cfg.Behaviors = func(setup *core.Setup, seed int64) engine.SwapBehaviors {
		sb := f(setup, seed)
		d := swapDraws{deviants: fmt.Sprint(sb.Deviants)}
		for _, s := range setup.Secrets {
			d.secrets += hex.EncodeToString(s[:])
		}
		for _, k := range setup.Spec.Keys {
			d.keys += hex.EncodeToString(k)
		}
		mu.Lock()
		draws[setup.Spec.Tag] = d
		mu.Unlock()
		return sb
	}
	if f == nil {
		cfg.Behaviors = nil
	}
	e := engine.New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	release := e.Scheduler().Hold()
	for _, o := range offers {
		if _, err := e.Submit(o); err != nil {
			release()
			t.Fatal(err)
		}
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := e.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	return draws, e
}

// ring returns the offers of 3-ring r.
func ring(r int) []core.Offer {
	return []core.Offer{engine.LoadOffer(r, 0, 3, r), engine.LoadOffer(r, 1, 3, r), engine.LoadOffer(r, 2, 3, r)}
}

// drawMix is a deviation mix dense enough that two independent draws
// seldom give a 3-ring the same deviants (≈ 1 % of swaps).
var drawMix = []Deviation{
	{Strategy: "silent-leader", Rate: 0.2},
	{Strategy: "crash", Rate: 0.2},
	{Strategy: "withhold-publish", Rate: 0.2},
	{Strategy: "stall-past-timelock", Rate: 0.2},
}

// TestAdjacentSeedsDrawApart: a swap's streams are derived from the run
// seed and its tag, not from their sum. Under seed S a leading 4-ring
// shifts every later ring's order IDs up by one against seed S+1, so
// ring r clears as the swap whose minimum order ID is k = 3r+2 under S
// and k−1 under S+1 — the pair a seed+ID stream would hand the same
// secrets and the same factory draws. Ring parties derive no key.
func TestAdjacentSeedsDrawApart(t *testing.T) {
	const seed, rings = 40, 32
	run := func(seed int64, lead int) map[string]swapDraws {
		var offers []core.Offer
		for i := 0; i < lead; i++ {
			offers = append(offers, engine.LoadOffer(0, i, lead, 0))
		}
		for r := 1; r <= rings; r++ {
			offers = append(offers, ring(r)...)
		}
		sc := Scenario{Seed: seed, Deviations: drawMix}
		draws, e := drawRun(t, engine.Config{Seed: seed}, sc.factory(), offers)
		if n := e.Keyring().Len(); n != 0 {
			t.Errorf("seed %d: ring parties derived %d keys, want none", seed, n)
		}
		return draws
	}
	a, b := run(seed, 4), run(seed+1, 3)
	sameDeviants := 0
	for r := 1; r <= rings; r++ {
		k := 3*r + 2
		da, okA := a[fmt.Sprintf("swap-%06d", k)]
		db, okB := b[fmt.Sprintf("swap-%06d", k-1)]
		if !okA || !okB {
			t.Fatalf("ring %d did not clear as swap %d under seed %d and as swap %d under %d", r, k, seed, k-1, seed+1)
		}
		if da.secrets == db.secrets {
			t.Errorf("ring %d: swap %d under seed %d and swap %d under %d draw the same secrets", r, k, seed, k-1, seed+1)
		}
		if da.deviants == db.deviants {
			sameDeviants++
		}
	}
	if sameDeviants > rings/4 {
		t.Errorf("%d of %d swap pairs drew the same deviants under adjacent seeds", sameDeviants, rings)
	}
}

// TestSwapDrawsIgnoreTheBook: a swap's secrets, deviation draws, adversary
// draw and keys are a function of (seed, tag) and its parties' names, not
// of the book it clears in. Three target rings clear once among 21 others
// and once alone — every other ring's offers replaced by offers rejected
// at intake, so order IDs and tags line up — on one shard and on four.
func TestSwapDrawsIgnoreTheBook(t *testing.T) {
	const seed, rings = 9, 24
	targets := map[int]bool{5: true, 11: true, 17: true}
	book := func(alone bool) []core.Offer {
		var offers []core.Offer
		filler := 0
		for r := 0; r < rings; r++ {
			if !alone || targets[r] {
				offers = append(offers, ring(r)...)
				continue
			}
			// One asset offered at another amount each time: every offer
			// after the first is rejected at intake, and none matches.
			for i := 0; i < 3; i++ {
				o := engine.LoadOffer(1000, 0, 2, 1000)
				o.Give[0].Amount += uint64(filler)
				offers = append(offers, o)
				filler++
			}
		}
		return offers
	}
	sc := Scenario{Seed: seed, Deviations: drawMix}
	var want map[string]swapDraws
	var wantDeviant map[string]string
	for _, shards := range []int{1, 4} {
		for _, alone := range []bool{false, true} {
			name := fmt.Sprintf("%d shard(s), alone=%v", shards, alone)
			cfg := engine.Config{Seed: seed, Shards: shards, Kind: core.KindGeneral}
			draws, _ := drawRun(t, cfg, sc.factory(), book(alone))

			// The AdversaryRate draw runs without a behavior factory.
			cfg.AdversaryRate = 0.5
			_, e := drawRun(t, cfg, nil, book(alone))
			deviant := make(map[string]string)
			adversarial := 0
			for _, o := range e.Orders() {
				if o.Swap != "" {
					deviant[o.Swap] += o.Deviant + ";"
				}
				if o.Deviant != "" {
					adversarial++
				}
			}
			if !alone && (adversarial == 0 || adversarial == 3*rings) {
				t.Fatalf("%s: %d of %d orders deviant at AdversaryRate 0.5", name, adversarial, 3*rings)
			}

			got := make(map[string]swapDraws)
			gotDeviant := make(map[string]string)
			for r := range targets {
				tag := fmt.Sprintf("swap-%06d", 3*r+1)
				d, ok := draws[tag]
				if !ok || d.keys == "" {
					t.Fatalf("%s: target ring %d did not clear as a hashkey swap %s", name, r, tag)
				}
				got[tag], gotDeviant[tag] = d, deviant[tag]
			}
			if want == nil {
				want, wantDeviant = got, gotDeviant
				continue
			}
			for tag, w := range want {
				g := got[tag]
				if g.secrets != w.secrets {
					t.Errorf("%s: %s drew other secrets", name, tag)
				}
				if g.keys != w.keys {
					t.Errorf("%s: %s's parties derived other keys", name, tag)
				}
				if g.deviants != w.deviants {
					t.Errorf("%s: %s drew deviants %s, want %s", name, tag, g.deviants, w.deviants)
				}
				if gotDeviant[tag] != wantDeviant[tag] {
					t.Errorf("%s: %s's adversary draw gave %q, want %q", name, tag, gotDeviant[tag], wantDeviant[tag])
				}
			}
		}
	}
}
