package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/graphgen"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// offersFor turns d into the offers that clear back into it: vertex v is
// party "<prefix>NN" (so sorted party order is vertex order) and offers
// its leaving arcs in arc order.
func offersFor(d *digraph.Digraph, prefix string) []Offer {
	party := func(v digraph.Vertex) chain.PartyID {
		return chain.PartyID(fmt.Sprintf("%s%02d", prefix, int(v)))
	}
	offers := make([]Offer, d.NumVertices())
	for v := range offers {
		offers[v].Party = party(digraph.Vertex(v))
		for _, id := range d.Out(digraph.Vertex(v)) {
			offers[v].Give = append(offers[v].Give, ProposedTransfer{
				To:     party(d.Arc(id).Tail),
				Chain:  fmt.Sprintf("chain-%d", id%3),
				Asset:  chain.AssetID(fmt.Sprintf("%s-asset-%d", prefix, id)),
				Amount: uint64(1 + id),
			})
		}
	}
	return offers
}

// shapeCases is the family the equivalence test walks: every shape the
// engine's workloads and scenarios clear, plus 200 seeded random ones.
func shapeCases() map[string]*digraph.Digraph {
	cases := map[string]*digraph.Digraph{
		"two-leader-triangle": graphgen.TwoLeaderTriangle(),
		"bidir-cycle-4":       graphgen.BidirCycle(4),
		"multi-arc-pair":      graphgen.MultiArcPair(3),
	}
	for n := 2; n <= 8; n++ {
		cases[fmt.Sprintf("ring-%d", n)] = graphgen.Cycle(n)
	}
	for _, f := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		cases[fmt.Sprintf("flower-%dx%d", f[0], f[1])] = graphgen.Flower(f[0], f[1])
	}
	for n := 3; n <= 5; n++ {
		cases[fmt.Sprintf("clique-%d", n)] = graphgen.Clique(n)
	}
	for seed := int64(0); seed < 200; seed++ {
		n := 3 + int(seed%5)
		cases[fmt.Sprintf("random-%d", seed)] = graphgen.RandomStronglyConnected(n, 0.3, seed)
	}
	return cases
}

// assertSameSetup compares everything a run reads off a Spec, field for
// field, between a setup bound through the cache and one compiled fresh.
func assertSameSetup(t *testing.T, name string, got, want *Spec) {
	t.Helper()
	if got.Kind != want.Kind || got.DiamBound != want.DiamBound || !slices.Equal(got.Leaders, want.Leaders) {
		t.Fatalf("%s: kind %s diam %d leaders %v, fresh compile has %s %d %v",
			name, got.Kind, got.DiamBound, got.Leaders, want.Kind, want.DiamBound, want.Leaders)
	}
	if got.MaxTimelock() != want.MaxTimelock() || got.Horizon() != want.Horizon() || got.RefundAlarms() != want.RefundAlarms() {
		t.Fatalf("%s: max timelock %d horizon %d alarms %d, fresh compile has %d %d %d", name,
			got.MaxTimelock(), got.Horizon(), got.RefundAlarms(), want.MaxTimelock(), want.Horizon(), want.RefundAlarms())
	}
	if !slices.Equal(got.Parties, want.Parties) || !slices.Equal(got.Assets, want.Assets) {
		t.Fatalf("%s: parties or assets differ", name)
	}
	for v := 0; v < want.D.NumVertices(); v++ {
		if !slices.Equal(got.Entering(digraph.Vertex(v)), want.D.In(digraph.Vertex(v))) ||
			!slices.Equal(got.Leaving(digraph.Vertex(v)), want.D.Out(digraph.Vertex(v))) {
			t.Fatalf("%s: adjacency of vertex %d differs", name, v)
		}
	}
	for id := 0; id < want.D.NumArcs(); id++ {
		if !slices.Equal(got.Timelocks(id), want.Timelocks(id)) {
			t.Fatalf("%s: arc %d timelocks %v, fresh compile has %v", name, id, got.Timelocks(id), want.Timelocks(id))
		}
		if got.ContractID(id) != want.ContractID(id) {
			t.Fatalf("%s: arc %d contract ID %s vs %s", name, id, got.ContractID(id), want.ContractID(id))
		}
		if got.Kind != KindGeneral {
			if got.HTLCTimeout(id) != want.HTLCTimeout(id) || got.HTLCParams(id) != want.HTLCParams(id) {
				t.Fatalf("%s: arc %d HTLC params differ: %+v vs %+v", name, id, got.HTLCParams(id), want.HTLCParams(id))
			}
			continue
		}
		gp, wp := got.ContractParams(id), want.ContractParams(id)
		if !gp.Equal(&wp) || !reflect.DeepEqual(gp.Directory, wp.Directory) {
			t.Fatalf("%s: arc %d contract params differ", name, id)
		}
	}
}

// TestShapeCacheEquivalence: for every shape, a Setup bound through the
// cache — on the miss that compiles it and on the hit after — equals one
// compiled fresh, and relabelled parties hit the same entry.
func TestShapeCacheEquivalence(t *testing.T) {
	for name, d := range shapeCases() {
		cache := new(ShapeCache)
		clear := func(prefix string, shapes *ShapeCache) *Setup {
			t.Helper()
			setup, err := Clear(offersFor(d, prefix), Config{
				Kind: KindByLeaders, Tag: "t", Delta: 7, Start: 40,
				Rand: rand.New(rand.NewSource(9)), Shapes: shapes,
			})
			if err != nil {
				t.Fatalf("%s: Clear: %v", name, err)
			}
			return setup
		}
		fresh := clear("p", nil)
		miss := clear("p", cache)
		hit := clear("p", cache)
		assertSameSetup(t, name+" (miss)", miss.Spec, fresh.Spec)
		assertSameSetup(t, name+" (hit)", hit.Spec, fresh.Spec)
		if !slices.Equal(miss.Secrets, fresh.Secrets) || !slices.Equal(hit.Secrets, fresh.Secrets) {
			t.Fatalf("%s: secrets differ — the cache consumed randomness", name)
		}

		other := clear("q", cache)
		if other.Spec.shape != hit.Spec.shape || len(cache.shapes) != 1 {
			t.Fatalf("%s: relabelled parties compiled a second shape (%d cached)", name, len(cache.shapes))
		}
		assertSameSetup(t, name+" (relabelled)", other.Spec, clear("q", nil).Spec)

		// Rebasing Start moves every deadline with it, on both.
		hit.Spec.SetStart(1000)
		fresh.Spec.SetStart(1000)
		assertSameSetup(t, name+" (rebased)", hit.Spec, fresh.Spec)
	}
}

// TestShapeCacheFallsBackToFreshCompile: explicit leaders, an explicit
// diameter bound and AllowUnsafe bypass the cache, as does a nil cache.
func TestShapeCacheFallsBackToFreshCompile(t *testing.T) {
	offers := offersFor(graphgen.Cycle(4), "p")
	for name, cfg := range map[string]Config{
		"leaders":      {Leaders: []digraph.Vertex{2}},
		"diam-bound":   {DiamBound: 9},
		"allow-unsafe": {AllowUnsafe: true},
	} {
		cache := new(ShapeCache)
		cfg.Shapes = cache
		cfg.Rand = rand.New(rand.NewSource(1))
		setup, err := Clear(offers, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cache.shapes) != 0 {
			t.Errorf("%s: went through the cache", name)
		}
		if setup.Spec.D.Name(0) != "p00" {
			t.Errorf("%s: fresh compile should name vertexes after parties, got %q", name, setup.Spec.D.Name(0))
		}
	}
	setup, err := Clear(offers, Config{Leaders: []digraph.Vertex{2}, DiamBound: 9, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(setup.Spec.Leaders, []digraph.Vertex{2}) || setup.Spec.DiamBound != 9 {
		t.Errorf("overrides lost: leaders %v diam %d", setup.Spec.Leaders, setup.Spec.DiamBound)
	}
}

// TestShapeCacheRefusesUnclearableShapes: a shape that must not clear is
// refused on the miss that compiles it and on every hit after, and the
// per-binding checks still run on hits.
func TestShapeCacheRefusesUnclearableShapes(t *testing.T) {
	cache := new(ShapeCache)
	// b and c trade with each other; a only gives: nothing reaches a.
	dangling := []Offer{
		{Party: "a", Give: []ProposedTransfer{{To: "b", Chain: "x", Asset: "a1", Amount: 1}}},
		{Party: "b", Give: []ProposedTransfer{{To: "c", Chain: "x", Asset: "b1", Amount: 1}}},
		{Party: "c", Give: []ProposedTransfer{{To: "b", Chain: "x", Asset: "c1", Amount: 1}}},
	}
	for i := 0; i < 3; i++ {
		if _, err := Clear(dangling, Config{Shapes: cache}); !errors.Is(err, ErrNotStronglyConnected) {
			t.Fatalf("attempt %d: err = %v, want ErrNotStronglyConnected", i, err)
		}
	}
	if len(cache.shapes) != 1 {
		t.Fatalf("cached %d shapes, want the one refused shape", len(cache.shapes))
	}

	// A cached shape whose leaders are not a feedback vertex set (no
	// compile produces one; planted) is refused on the hit path.
	d := graphgen.TwoLeaderTriangle()
	offers := offersFor(d, "p")
	cleared, err := Clear(offers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := compileShape(cleared.Spec.D, []digraph.Vertex{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad.leadersFVS {
		t.Fatal("one vertex should not be a feedback vertex set of the two-leader triangle")
	}
	planted := &ShapeCache{shapes: map[string]*Shape{
		string(appendShapeKey(nil, d.NumVertices(), cleared.Spec.D.Arcs())): bad,
	}}
	if _, err := Clear(offers, Config{Shapes: planted}); !errors.Is(err, ErrLeadersNotFVS) {
		t.Fatalf("planted non-FVS shape: err = %v, want ErrLeadersNotFVS", err)
	}

	// Per-binding validation on a hit: same shape, bad Start / duplicate asset.
	ring := offersFor(graphgen.Cycle(3), "p")
	if _, err := Clear(ring, Config{Shapes: cache}); err != nil {
		t.Fatal(err)
	}
	if _, err := Clear(ring, Config{Shapes: cache, Delta: 10, Start: vtime.Ticks(3)}); !errors.Is(err, ErrSpecShape) {
		t.Errorf("start below delta on a hit: err = %v, want ErrSpecShape", err)
	}
	ring[1].Give[0].Chain, ring[1].Give[0].Asset = ring[0].Give[0].Chain, ring[0].Give[0].Asset
	if _, err := Clear(ring, Config{Shapes: cache}); !errors.Is(err, ErrSpecShape) {
		t.Errorf("duplicate asset on a hit: err = %v, want ErrSpecShape", err)
	}
}

// TestShapeCacheBound: the cache never holds more than its bound, and what
// it hands out after emptying itself is still what a fresh compile gives.
func TestShapeCacheBound(t *testing.T) {
	cache := new(ShapeCache)
	for seed := int64(0); seed < maxCachedShapes+40; seed++ {
		d := graphgen.RandomStronglyConnected(4+int(seed%4), 0.35, 1000+seed)
		offers := offersFor(d, "p")
		got, err := Clear(offers, Config{Shapes: cache, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cache.shapes); n > maxCachedShapes {
			t.Fatalf("cache holds %d shapes, bound is %d", n, maxCachedShapes)
		}
		want, err := Clear(offers, Config{Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSetup(t, fmt.Sprintf("seed %d", seed), got.Spec, want.Spec)
	}
}

// arcsFromBytes reads a labelled digraph off fuzz input: the first byte
// picks the vertex count, every following pair an arc.
func arcsFromBytes(data []byte) (int, []digraph.Arc) {
	if len(data) == 0 {
		return 0, nil
	}
	n := 2 + int(data[0])%9
	var arcs []digraph.Arc
	for i := 1; i+1 < len(data); i += 2 {
		arcs = append(arcs, digraph.Arc{Head: digraph.Vertex(int(data[i]) % n), Tail: digraph.Vertex(int(data[i+1]) % n)})
	}
	return n, arcs
}

// FuzzShapeKey: two labelled digraphs share a cache key exactly when they
// are the same vertex count and the same arc list, the key is the
// digraph's own encoding, and it decodes back to the list it was built
// from — so distinct arc lists can never be handed each other's shape.
func FuzzShapeKey(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 2, 2, 0}, []byte{1, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{1, 0, 1, 1, 2, 2, 0}, []byte{1, 1, 2, 2, 0, 0, 1})
	f.Add([]byte{1, 0, 1, 1, 0}, []byte{2, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 1, 1, 0}, []byte{0, 0, 1, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		na, arcsA := arcsFromBytes(a)
		nb, arcsB := arcsFromBytes(b)
		keyA, keyB := appendShapeKey(nil, na, arcsA), appendShapeKey(nil, nb, arcsB)
		same := na == nb && slices.Equal(arcsA, arcsB)
		if (string(keyA) == string(keyB)) != same {
			t.Fatalf("keys equal = %v for (%d, %v) and (%d, %v)", !same, na, arcsA, nb, arcsB)
		}
		if slices.ContainsFunc(arcsA, func(x digraph.Arc) bool { return x.Head == x.Tail }) {
			return // Build refuses self-loops; the key itself was checked above
		}
		d, err := digraph.Build(make([]string, na), arcsA)
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Encode()) != string(keyA) {
			t.Fatal("key is not the digraph's encoding")
		}
		back, err := digraph.Decode(keyA)
		if err != nil {
			t.Fatalf("key does not decode: %v", err)
		}
		if back.NumVertices() != na || back.NumArcs() != len(arcsA) {
			t.Fatalf("decoded %d vertexes %d arcs, want %d and %d", back.NumVertices(), back.NumArcs(), na, len(arcsA))
		}
		for id, arc := range arcsA {
			if got := back.Arc(id); got.Head != arc.Head || got.Tail != arc.Tail {
				t.Fatalf("arc %d decoded as %v, want %v", id, got, arc)
			}
		}
	})
}

// TestShapeCacheConcurrentUse reaches one cache — and the shapes it hands
// out — from many goroutines at once, as sharded clearing passes and
// executor workers do: every goroutine clears a mix of shapes through the
// cache and reads the bound specs' ladders while others compile and hit.
func TestShapeCacheConcurrentUse(t *testing.T) {
	shapes := []*digraph.Digraph{
		graphgen.Cycle(3), graphgen.Cycle(5), graphgen.Clique(4),
		graphgen.Flower(2, 3), graphgen.TwoLeaderTriangle(),
	}
	want := make([]*Setup, len(shapes))
	for i, d := range shapes {
		var err error
		if want[i], err = Clear(offersFor(d, "p"), Config{Kind: KindByLeaders, Rand: rand.New(rand.NewSource(4))}); err != nil {
			t.Fatal(err)
		}
	}
	cache := new(ShapeCache)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				i := (g + round) % len(shapes)
				got, err := Clear(offersFor(shapes[i], "p"), Config{
					Kind: KindByLeaders, Rand: rand.New(rand.NewSource(4)), Shapes: cache,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if got.Spec.MaxTimelock() != want[i].Spec.MaxTimelock() ||
					!slices.Equal(got.Spec.Leaders, want[i].Spec.Leaders) ||
					!slices.Equal(got.Spec.Timelocks(0), want[i].Spec.Timelocks(0)) {
					t.Errorf("goroutine %d round %d: shape %d bound differently under concurrency", g, round, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
