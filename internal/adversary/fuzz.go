package adversary

import (
	"math/rand"
	"sort"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/core"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/trace"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// CoalitionConfig parameterizes a randomized colluding coalition.
type CoalitionConfig struct {
	Setup   *core.Setup
	Members []digraph.Vertex
	Seed    int64
	// DropProb is the per-action-category probability that a member
	// withholds that category of action (publish, unlock, claim, refund,
	// broadcast) on any given arc.
	DropProb float64
	// HaltProb is the probability that a member crashes at a random tick
	// before the horizon.
	HaltProb float64
}

// Coalition builds one behavior per member approximating the strongest
// deviation the model allows:
//
//   - members share the coalition's leader secrets off-chain immediately
//     and try to unlock their entering arcs as early as possible, using
//     signature paths composed entirely of coalition vertexes (under the
//     single-leader variant the bare secret needs no path: every member
//     redeems with it the moment an entering contract exists);
//   - each member independently withholds random action categories;
//   - members may crash at random ticks.
//
// The result is deterministic for a given config.
func Coalition(cfg CoalitionConfig) map[digraph.Vertex]core.Behavior {
	rng := rand.New(rand.NewSource(cfg.Seed))
	members := append([]digraph.Vertex(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	inCoalition := make(map[digraph.Vertex]bool, len(members))
	for _, v := range members {
		inCoalition[v] = true
	}
	out := make(map[digraph.Vertex]core.Behavior, len(members))
	for _, v := range members {
		var b core.Behavior = &coalitionMember{
			Behavior: Conforming(),
			early:    earlyKeys(cfg.Setup, v, inCoalition),
		}
		b = Filtered(b, randomFilter(rng, cfg.DropProb))
		if rng.Float64() < cfg.HaltProb {
			span := int64(cfg.Setup.Spec.Horizon() - cfg.Setup.Spec.Start)
			if span > 0 {
				halt := cfg.Setup.Spec.Start.Add(vtime.Duration(rng.Int63n(span)))
				b = HaltAt(b, halt)
			}
		}
		out[v] = b
	}
	return out
}

// earlyKeys builds, for every coalition leader reachable from v through
// coalition-only vertexes, the hashkey v can present without any honest
// party's help. On classic HTLCs the token is the bare secret, which any
// member can present: the key then carries only its Secret.
func earlyKeys(setup *core.Setup, v digraph.Vertex, inCoalition map[digraph.Vertex]bool) map[int]hashkey.Hashkey {
	spec := setup.Spec
	keys := make(map[int]hashkey.Hashkey)
	for i, leader := range spec.Leaders {
		if !inCoalition[leader] {
			continue
		}
		if spec.Kind != core.KindGeneral {
			keys[i] = hashkey.Hashkey{Secret: setup.Secrets[i]}
			continue
		}
		path := coalitionPath(spec.D, v, leader, inCoalition)
		if path == nil {
			continue
		}
		// Sign from the leader outward: path = (v, ..., leader).
		key := hashkey.New(setup.Secrets[i], setup.Signers[leader])
		for j := len(path) - 2; j >= 0; j-- {
			key = key.Extend(setup.Signers[path[j]])
		}
		keys[i] = key
	}
	return keys
}

// coalitionPath finds a shortest path from v to target using only
// coalition vertexes, or nil.
func coalitionPath(d *digraph.Digraph, v, target digraph.Vertex, allowed map[digraph.Vertex]bool) digraph.Path {
	if v == target {
		return digraph.Path{v}
	}
	if !allowed[v] || !allowed[target] {
		return nil
	}
	prev := map[digraph.Vertex]digraph.Vertex{v: v}
	queue := []digraph.Vertex{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range d.Out(u) {
			w := d.Arc(id).Tail
			if !allowed[w] {
				continue
			}
			if _, seen := prev[w]; seen {
				continue
			}
			prev[w] = u
			if w == target {
				var path digraph.Path
				for x := target; ; x = prev[x] {
					path = append(digraph.Path{x}, path...)
					if x == v {
						return path
					}
				}
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// coalitionMember plays the conforming protocol but additionally presents
// shared secrets on its entering arcs as soon as their contracts exist.
type coalitionMember struct {
	core.Behavior
	early map[int]hashkey.Hashkey
	sent  map[[2]int]bool
}

func (m *coalitionMember) tryEarlyUnlocks(e core.Env) {
	if len(m.early) == 0 {
		return
	}
	if m.sent == nil {
		m.sent = make(map[[2]int]bool)
	}
	idxs := make([]int, 0, len(m.early))
	for i := range m.early {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	general := e.Spec().Kind == core.KindGeneral
	for _, arc := range e.Spec().D.In(e.Vertex()) {
		if _, published := e.Contract(arc); !published {
			continue
		}
		for _, i := range idxs {
			if m.sent[[2]int{arc, i}] {
				continue
			}
			var err error
			if general {
				err = e.Unlock(arc, i, m.early[i])
			} else {
				err = e.Redeem(arc, m.early[i].Secret)
			}
			if err == nil {
				e.Note(trace.KindDeviation, arc, i, "coalition early unlock")
				m.sent[[2]int{arc, i}] = true
			}
		}
	}
}

func (m *coalitionMember) Init(e core.Env) {
	m.Behavior.Init(e)
	m.tryEarlyUnlocks(e)
}

func (m *coalitionMember) OnContract(e core.Env, arcID int, c chain.Contract) {
	m.Behavior.OnContract(e, arcID, c)
	m.tryEarlyUnlocks(e)
}

// randomFilter draws independent per-arc withholding decisions.
func randomFilter(rng *rand.Rand, p float64) Filter {
	if p <= 0 {
		return Filter{}
	}
	// Draw decision seeds eagerly so the filter is deterministic
	// regardless of call order.
	pubSeed, unlockSeed, claimSeed, refundSeed := rng.Int63(), rng.Int63(), rng.Int63(), rng.Int63()
	decide := func(seed int64, a, b int) bool {
		r := rand.New(rand.NewSource(seed + int64(a)*1_000_003 + int64(b)*7919))
		return r.Float64() < p
	}
	return Filter{
		DropPublish:   func(arc int) bool { return decide(pubSeed, arc, 0) },
		DropUnlock:    func(arc, lock int) bool { return decide(unlockSeed, arc, lock) },
		DropRedeem:    func(arc int) bool { return decide(unlockSeed, arc, 0) },
		DropClaim:     func(arc int) bool { return decide(claimSeed, arc, 0) },
		DropRefund:    func(arc int) bool { return decide(refundSeed, arc, 0) },
		DropBroadcast: func(lock int) bool { return decide(unlockSeed, lock, 1) },
	}
}
