// Package core implements the paper's contribution: the general atomic
// cross-chain swap protocol of Section 4. A Spec pins everything the
// parties must agree on (the digraph, the leaders and their hashlocks, Δ,
// the start time, the diameter bound, the per-arc/per-lock timelock
// vectors); Behaviors are the party state machines (the conforming
// protocol lives in behavior.go, deviations in the adversary package),
// written against Env. Nothing here executes a swap: package conc
// implements Env and wires parties, mock chains and a scheduler together —
// its Runner for one swap under the paper's worst-case timing, reporting
// outcomes, timing, storage and communication in a Result.
package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/go-atomicswap/atomicswap/internal/chain"
	"github.com/go-atomicswap/atomicswap/internal/digraph"
	"github.com/go-atomicswap/atomicswap/internal/hashkey"
	"github.com/go-atomicswap/atomicswap/internal/htlc"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// Kind selects the protocol variant a spec describes.
type Kind int

// Protocol variants.
const (
	// KindGeneral is the paper's main protocol (Section 4.5): hashlock
	// vectors opened by path-signed hashkeys on Swap contracts.
	KindGeneral Kind = iota + 1
	// KindSingleLeader is the Section 4.6 special case: one leader,
	// classic HTLCs on the timeout staircase — the |L| = 1 row of the
	// general protocol's timelock ladder (see HTLCTimeout). No hashkeys,
	// no signatures.
	KindSingleLeader
	// KindUniformTimeout is the deliberately broken baseline from the
	// Section 1 discussion: classic HTLCs whose timeouts are all equal,
	// vulnerable to the last-moment-reveal attack. It exists so the
	// experiments can demonstrate why the staircase matters.
	KindUniformTimeout
	// KindByLeaders is a request to NewSetup, never a Spec's kind: run the
	// cheapest protocol the leader set admits — KindSingleLeader when one
	// vertex is a feedback vertex set (Lemma 4.13), KindGeneral otherwise.
	// The clearing engine asks for it per cleared component.
	KindByLeaders
)

var kindNames = map[Kind]string{
	KindGeneral:        "general",
	KindSingleLeader:   "single-leader",
	KindUniformTimeout: "uniform-timeout",
	KindByLeaders:      "by-leaders",
}

// String names the protocol variant.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// DefaultDelta is the default Δ in ticks. Ten ticks keep sub-Δ ordering
// visible in traces.
const DefaultDelta vtime.Duration = 10

// ArcAsset names the asset an arc transfers and the chain it lives on.
type ArcAsset struct {
	Chain  string
	Asset  chain.AssetID
	Amount uint64
}

// Spec is the public swap plan: everything every party must agree on
// before the protocol starts. The market-clearing service publishes it;
// contract verification is a field-by-field comparison against it.
type Spec struct {
	Kind Kind
	// Tag namespaces the spec's contract IDs so many swaps can coexist on
	// shared chains (the clearing engine runs one swap per tag). Empty for
	// standalone runs, preserving the historical arcN@chain IDs. Tag and
	// Assets are frozen once NewSetup returns: the contract-ID table is
	// compiled from them.
	Tag     string
	D       *digraph.Digraph
	Leaders []digraph.Vertex // sorted, one hashlock each
	Locks   []hashkey.Lock   // Locks[i] belongs to Leaders[i]
	Parties []chain.PartyID  // by vertex
	Keys    hashkey.Directory
	Assets  []ArcAsset // by arc ID
	Start   vtime.Ticks
	Delta   vtime.Duration
	// ChainDeltas overrides Δ per chain: the effective
	// publish-plus-confirm bound of chains whose commitment model makes
	// them slower than the base Delta (a chain Δ override, confirmation
	// depth, or both). The timelock ladder is computed from the largest
	// involved Δ — the bound must hold on every chain a hashkey's path
	// crosses, so the ladder takes the conservative max. A nil or empty
	// map means every chain runs at Delta, which is the historical
	// single-Δ model bit-for-bit. Only chains that differ from Delta
	// should carry entries.
	ChainDeltas map[string]vtime.Duration
	// DiamBound is the diameter bound all contracts use — exact diam(D)
	// when computable, an upper bound otherwise. Safety holds for any
	// consistently used upper bound.
	DiamBound int
	// Broadcast enables the Section 4.5 Phase Two optimization: leaders
	// also publish their secrets on a shared broadcast chain, and
	// contracts accept the virtual length-1 path (counterparty, leader).
	Broadcast bool

	// Cache is the node-local hashkey verification cache threaded into
	// every contract built from this spec. It is runtime infrastructure,
	// not part of the published plan: plan verification ignores it, and
	// distinct nodes (or a whole clearing engine) may share one cache
	// across many specs because entries are content-addressed.
	Cache *hashkey.VerifyCache

	// shape is the compiled (D, Leaders, DiamBound) part of the plan: the
	// timelock ladder below is Start plus its steps times Δ.
	shape *Shape
	// tlMu guards the lazily filled Start-derived caches below, and
	// unlocks, so a Spec whose timelocks were never warmed (e.g. an engine
	// swap before its Start is pinned) can fill them safely from any
	// goroutine.
	tlMu sync.Mutex
	// arcTimelocks holds the per-arc timelock vectors, cut from tlTicks,
	// shared read-only by every reader of an arc's deadlines; tlFilled
	// marks them current for Start. Both tables are the plan's, bound
	// once: a rebased Start refills them in place.
	arcTimelocks [][]vtime.Ticks
	tlTicks      []vtime.Ticks
	tlFilled     bool
	// maxTimelock caches MaxTimelock; set with arcTimelocks.
	maxTimelock vtime.Ticks
	// contractIDs is the per-arc contract-ID table NewSetup compiles from
	// Tag and Assets.
	contractIDs []chain.ContractID
	// unlocks is the storage every Swap contract NewSwap builds keeps its
	// unlocks in, allocated by the first (under tlMu), or nil when the
	// shape's keys may not fit it.
	unlocks htlc.Unlocks
}

// Validation errors.
var (
	ErrNotStronglyConnected = errors.New("core: digraph is not strongly connected (Theorem 3.5)")
	ErrLeadersNotFVS        = errors.New("core: leaders are not a feedback vertex set (Theorem 4.12)")
	ErrSpecShape            = errors.New("core: malformed spec")
)

// Validate checks the spec against the protocol's preconditions, from the
// fields alone. With allowUnsafe the game-theoretic preconditions (strong
// connectivity, leaders forming an FVS) are skipped so the impossibility
// experiments can run the protocol where the paper proves it cannot work.
func (s *Spec) Validate(allowUnsafe bool) error {
	if err := s.validateBinding(); err != nil {
		return err
	}
	if diam, exact := s.D.Diameter(); s.DiamBound < diam || (!exact && s.DiamBound < s.D.NumVertices()-1) {
		return fmt.Errorf("%w: diameter bound %d below diameter %d", ErrSpecShape, s.DiamBound, diam)
	}
	if allowUnsafe {
		return nil
	}
	if !s.D.StronglyConnected() {
		return ErrNotStronglyConnected
	}
	if !s.D.IsFeedbackVertexSet(s.Leaders) {
		return ErrLeadersNotFVS
	}
	return nil
}

// validateBinding is the half of Validate that no two swaps share: the
// field shapes, the kind, unique parties (with keys, for the kind that
// verifies signatures), unique assets, Δ and Start. NewSetup runs it on
// every swap; the graph half it takes from the compiled Shape.
func (s *Spec) validateBinding() error {
	if s.D == nil || s.D.NumVertices() < 2 || s.D.NumArcs() < 1 {
		return fmt.Errorf("%w: need at least 2 vertexes and 1 arc", ErrSpecShape)
	}
	switch s.Kind {
	case KindGeneral, KindSingleLeader, KindUniformTimeout:
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrSpecShape, int(s.Kind))
	}
	if len(s.Leaders) == 0 || len(s.Leaders) != len(s.Locks) {
		return fmt.Errorf("%w: %d leaders, %d locks", ErrSpecShape, len(s.Leaders), len(s.Locks))
	}
	if s.Kind != KindGeneral && len(s.Leaders) != 1 {
		return fmt.Errorf("%w: %s protocol needs exactly one leader", ErrSpecShape, s.Kind)
	}
	for i, l := range s.Leaders {
		if int(l) < 0 || int(l) >= s.D.NumVertices() {
			return fmt.Errorf("%w: leader %d out of range", ErrSpecShape, l)
		}
		if slices.Contains(s.Leaders[:i], l) {
			return fmt.Errorf("%w: duplicate leader %d", ErrSpecShape, l)
		}
	}
	if len(s.Parties) != s.D.NumVertices() {
		return fmt.Errorf("%w: %d party IDs for %d vertexes", ErrSpecShape, len(s.Parties), s.D.NumVertices())
	}
	// Swaps are small: duplicates are found pairwise, with no set built.
	for v, p := range s.Parties {
		if p == "" {
			return fmt.Errorf("%w: vertex %d has empty party ID", ErrSpecShape, v)
		}
		if slices.Contains(s.Parties[:v], p) {
			return fmt.Errorf("%w: duplicate party ID %q", ErrSpecShape, p)
		}
		if _, ok := s.Keys.Key(digraph.Vertex(v)); !ok && s.Kind == KindGeneral {
			return fmt.Errorf("%w: no public key for vertex %d", ErrSpecShape, v)
		}
	}
	if len(s.Assets) != s.D.NumArcs() {
		return fmt.Errorf("%w: %d arc assets for %d arcs", ErrSpecShape, len(s.Assets), s.D.NumArcs())
	}
	for id, aa := range s.Assets {
		if aa.Chain == "" || aa.Asset == "" {
			return fmt.Errorf("%w: arc %d has empty chain or asset", ErrSpecShape, id)
		}
		for _, other := range s.Assets[:id] {
			if other.Asset == aa.Asset && other.Chain == aa.Chain {
				return fmt.Errorf("%w: asset %s/%s appears on two arcs", ErrSpecShape, aa.Chain, aa.Asset)
			}
		}
	}
	if s.Delta <= 0 {
		return fmt.Errorf("%w: delta %d must be positive", ErrSpecShape, s.Delta)
	}
	for name, d := range s.ChainDeltas {
		if d <= 0 {
			return fmt.Errorf("%w: chain %s delta %d must be positive", ErrSpecShape, name, d)
		}
	}
	if s.Start < vtime.Ticks(s.Delta) {
		// Leaders deploy ahead of T; the clearing service must announce a
		// start "at least Δ in the future" (Section 4.2).
		return fmt.Errorf("%w: start %d must be at least one delta (%d)", ErrSpecShape, s.Start, s.Delta)
	}
	return nil
}

// SetStart rebases the protocol start time and invalidates every cached
// quantity derived from it (per-arc timelocks, the max-timelock bound).
// The clearing engine pins Start only when a worker picks the swap up, so
// assigning the field directly would leave stale deadlines behind.
func (s *Spec) SetStart(t vtime.Ticks) {
	s.Start = t
	s.tlMu.Lock()
	s.tlFilled = false
	s.tlMu.Unlock()
}

// LeaderIndex returns v's hashlock index and whether v is a leader.
func (s *Spec) LeaderIndex(v digraph.Vertex) (int, bool) {
	for i, l := range s.Leaders {
		if l == v {
			return i, true
		}
	}
	return 0, false
}

// IsLeader reports whether v is a leader.
func (s *Spec) IsLeader(v digraph.Vertex) bool {
	_, ok := s.LeaderIndex(v)
	return ok
}

// PartyOf returns the party ID of a vertex.
func (s *Spec) PartyOf(v digraph.Vertex) chain.PartyID { return s.Parties[v] }

// VertexOf returns the vertex of a party ID.
func (s *Spec) VertexOf(p chain.PartyID) (digraph.Vertex, bool) {
	for v, id := range s.Parties {
		if id == p {
			return digraph.Vertex(v), true
		}
	}
	return 0, false
}

// ContractID returns the canonical contract identifier for an arc —
// "arcN@chain", namespaced "tag/arcN@chain" when the spec has a tag —
// from the table NewSetup compiled.
func (s *Spec) ContractID(arcID int) chain.ContractID {
	return s.contractIDs[arcID]
}

// compileContractIDs fills the contract-ID table ids (one entry per arc)
// and points the spec at it. Every ID is cut from one backing string, so
// the table costs a swap one allocation whatever its arc count, and the
// spec's Tag becomes that string's prefix: whatever backed the caller's
// tag is not kept. NewSetup runs it once the spec is finished, before
// parties share it.
func (s *Spec) compileContractIDs(ids []chain.ContractID) {
	var num [20]byte
	idLen := func(arcID int, on string) int {
		n := len("arc@") + len(strconv.AppendInt(num[:0], int64(arcID), 10)) + len(on)
		if s.Tag != "" {
			n += len(s.Tag) + len("/")
		}
		return n
	}
	size := 0
	for arcID, aa := range s.Assets {
		size += idLen(arcID, aa.Chain)
	}
	var b strings.Builder
	b.Grow(size)
	for arcID, aa := range s.Assets {
		if s.Tag != "" {
			b.WriteString(s.Tag)
			b.WriteByte('/')
		}
		b.WriteString("arc")
		b.Write(strconv.AppendInt(num[:0], int64(arcID), 10))
		b.WriteByte('@')
		b.WriteString(aa.Chain)
	}
	all := b.String()
	if s.Tag != "" {
		s.Tag = all[:len(s.Tag)]
	}
	for arcID, aa := range s.Assets {
		n := idLen(arcID, aa.Chain)
		ids[arcID], all = chain.ContractID(all[:n]), all[n:]
	}
	s.contractIDs = ids
}

// BroadcastChain is the name of the shared chain used by the market
// clearing service and the Phase Two broadcast optimization.
const BroadcastChain = "broadcast"

// Precompute fills the per-arc timelock vectors and the max-timelock
// bound, so the per-contract hot path (ContractParams, refund alarms,
// deadline checks) never derives them and a Spec shared across goroutines
// is only read. Idempotent. The vectors derive from the compiled shape
// (D, Leaders, DiamBound), Delta and Start (and NewSetup's contract-ID
// table from Tag and Assets): a Spec treats those fields as frozen, and
// the one sanctioned post-hoc mutation — rebasing Start — must go through
// SetStart, which invalidates exactly the Start-derived caches.
func (s *Spec) Precompute() {
	s.tlMu.Lock()
	s.fillTimelocksLocked()
	s.tlMu.Unlock()
}

// fillTimelocksLocked fills arcTimelocks and maxTimelock unless they are
// current: Start plus the shape's ladder steps times Δ, written into the
// tables NewSetup bound. NewSetup leaves them unfilled — the engine
// rebases Start after setup, and the vectors fill here on first use (or in
// the runtime's Precompute). No reader keeps a vector across a rebase:
// contracts take copies (Timelocks) or single deadlines. Caller holds
// tlMu.
func (s *Spec) fillTimelocksLocked() {
	if s.tlFilled {
		return
	}
	nl, delta := len(s.Leaders), s.ladderDelta()
	for i, step := range s.shape.steps {
		s.tlTicks[i] = s.Start.Add(vtime.Scale(step, delta))
	}
	for id := range s.arcTimelocks {
		s.arcTimelocks[id] = s.tlTicks[id*nl : (id+1)*nl : (id+1)*nl]
	}
	s.tlFilled = true
	s.maxTimelock = s.Start.Add(vtime.Scale(s.shape.maxStep, delta))
	if s.Kind == KindUniformTimeout {
		s.maxTimelock = s.uniformTimeout()
	}
}

// Entering returns the IDs of the arcs entering v, ascending. The slice is
// shared by every swap of this shape: callers must not modify it.
func (s *Spec) Entering(v digraph.Vertex) []int { return s.shape.in[v] }

// Leaving is Entering for the arcs leaving v.
func (s *Spec) Leaving(v digraph.Vertex) []int { return s.shape.out[v] }

// RefundAlarms reports how many refund alarms the conforming parties of
// this swap arm between them: one per arc on classic HTLCs, one per
// distinct lock deadline of each arc on Swap contracts. A runtime sizes
// its event storage from it.
func (s *Spec) RefundAlarms() int {
	if s.Kind != KindGeneral {
		return s.D.NumArcs()
	}
	return s.shape.deadlines
}

// DeltaFor returns the effective Δ for events on the named chain: the
// per-chain override when one is set, else the base Delta.
func (s *Spec) DeltaFor(chainName string) vtime.Duration {
	if d, ok := s.ChainDeltas[chainName]; ok {
		return d
	}
	return s.Delta
}

// ladderDelta is the Δ the timelock ladder (and every deadline derived
// from it) is built on: the largest effective Δ of any chain carrying
// an override, floored at the base Delta. A hashkey's path may cross
// any chain of the swap, so the per-step bound must be the worst one.
func (s *Spec) ladderDelta() vtime.Duration {
	delta := s.Delta
	for _, d := range s.ChainDeltas {
		if d > delta {
			delta = d
		}
	}
	return delta
}

// Timelocks returns the per-lock absolute deadlines for an arc's Swap
// contract: Start + (DiamBound + maxpath(tail, leader_i))·Δ. A hashkey for
// lock i presented on this arc can never be valid after Timelocks[i], so
// the contract is refundable once a lock is still closed strictly after it.
// The returned slice is a fresh copy; the hot path uses timelocksShared.
func (s *Spec) Timelocks(arcID int) []vtime.Ticks {
	return append([]vtime.Ticks(nil), s.timelocksShared(arcID)...)
}

// timelocksShared returns the arc's timelock vector without copying —
// computed once per spec (lazily, under tlMu), shared read-only by every
// contract of the arc. Callers must not mutate it.
func (s *Spec) timelocksShared(arcID int) []vtime.Ticks {
	s.tlMu.Lock()
	s.fillTimelocksLocked()
	tl := s.arcTimelocks[arcID]
	s.tlMu.Unlock()
	return tl
}

// HTLCTimeout returns the single absolute timeout for an arc's classic
// HTLC under the single-leader or uniform-timeout variants: redeem
// strictly before it, refund at or after.
//
// Single-leader timeouts are the |L| = 1 row of the timelock ladder, read
// from the same table the Swap contracts use: the arc is redeemable while
// now ≤ Timelocks(arc)[0] = Start + (DiamBound + maxpath(tail, leader))·Δ,
// so the exclusive timeout is one tick later. That is one Δ short of
// Figure 6's printed (diam(D) + D(v, leader) + 1)·Δ: deadlines here are
// inclusive and a party acts in the tick it observes (see
// htlc.SwapParams.Timelocks), which already provides the slack the +1 buys
// in the paper's model. Lemma 4.13's two conditions hold on it — every
// follower's entering timeouts are at least Δ past its leaving ones, and
// the leader's entering arcs stay open until Start + DiamBound·Δ.
func (s *Spec) HTLCTimeout(arcID int) vtime.Ticks {
	if s.Kind == KindSingleLeader {
		return s.timelocksShared(arcID)[0].Add(1)
	}
	return s.uniformTimeout()
}

// uniformTimeout is the uniform-timeout baseline's one deadline: every arc
// expires together — the Section 1 mistake. The value is generous enough
// for all-conforming runs to finish, so only the last-moment-reveal attack
// exposes the flaw.
func (s *Spec) uniformTimeout() vtime.Ticks {
	return s.Start.Add(vtime.Scale(2*s.DiamBound+1, s.ladderDelta()))
}

// ContractParams returns the canonical Swap-contract parameters for an
// arc, with vectors of their own: a deviation hook may mutate what it
// publishes, which must never reach the spec.
func (s *Spec) ContractParams(arcID int) htlc.SwapParams {
	p := s.contractParams(arcID)
	p.Leaders = slices.Clone(p.Leaders)
	p.Locks = slices.Clone(p.Locks)
	p.Timelocks = slices.Clone(p.Timelocks)
	return p
}

// NewSwap builds the canonical Swap contract for an arc. The contract
// copies the vectors it keeps, so it is built from the plan's own. When
// the shape says every conforming key fits an Unlocks record, every
// contract of the swap keeps its unlocks in the swap's one Unlocks, which
// the first contract built allocates; otherwise each contract copies
// its keys on its own.
func (s *Spec) NewSwap(arcID int) (*htlc.Swap, error) {
	s.tlMu.Lock()
	if s.unlocks == nil && s.shape.shortKeys {
		s.unlocks = htlc.NewUnlocks(s.D.NumArcs(), len(s.Leaders))
	}
	u := s.unlocks
	s.tlMu.Unlock()
	return htlc.NewSwapIn(s.contractParams(arcID), u)
}

// contractParams is ContractParams sharing the plan's vectors, which its
// callers only read.
func (s *Spec) contractParams(arcID int) htlc.SwapParams {
	arc := s.D.Arc(arcID)
	return htlc.SwapParams{
		ID:        s.ContractID(arcID),
		ArcID:     arcID,
		Digraph:   s.D,
		Leaders:   s.Leaders,
		Locks:     s.Locks,
		Timelocks: s.timelocksShared(arcID),
		Party:     s.Parties[arc.Head],
		PartyV:    arc.Head,
		Counter:   s.Parties[arc.Tail],
		CounterV:  arc.Tail,
		Asset:     s.Assets[arcID].Asset,
		Start:     s.Start,
		// The ladder Δ, not the base: the contract's hashkey-validity
		// deadline (Start + (DiamBound + pathlen)·Δ) must agree with the
		// timelock ladder or claims near a deadline would break on a swap
		// that spans a slow chain.
		Delta:     s.ladderDelta(),
		DiamBound: s.DiamBound,
		Directory: s.Keys,
		Broadcast: s.Broadcast,
		Cache:     s.Cache,
	}
}

// HTLCParams returns the canonical classic-HTLC parameters for an arc
// under the single-leader and uniform-timeout variants.
func (s *Spec) HTLCParams(arcID int) htlc.HTLCParams {
	arc := s.D.Arc(arcID)
	return htlc.HTLCParams{
		ID:      s.ContractID(arcID),
		ArcID:   arcID,
		Lock:    s.Locks[0],
		Timeout: s.HTLCTimeout(arcID),
		Party:   s.Parties[arc.Head],
		Counter: s.Parties[arc.Tail],
		Asset:   s.Assets[arcID].Asset,
	}
}

// MaxTimelock returns the latest deadline any contract of this swap can
// reach — by when every conforming party's assets are settled or
// refundable; the same for the general and single-leader variants, which
// share the ladder. Computed once per spec (lazily, under tlMu).
func (s *Spec) MaxTimelock() vtime.Ticks {
	s.tlMu.Lock()
	s.fillTimelocksLocked()
	max := s.maxTimelock
	s.tlMu.Unlock()
	return max
}

// Horizon returns the tick by which a run is certainly quiescent: the max
// timelock plus detection and settlement slack.
func (s *Spec) Horizon() vtime.Ticks {
	return s.MaxTimelock().Add(vtime.Scale(4, s.ladderDelta()))
}

// Setup couples the public Spec with the private material a simulation
// needs to play every party: signing keys per vertex and the leaders'
// secrets. A real deployment would never hold these in one place; the
// experiments must.
type Setup struct {
	Spec    *Spec
	Signers []*hashkey.Signer // by vertex
	Secrets []hashkey.Secret  // by leader index
}

// Config parameterizes NewSetup. The zero value picks sensible defaults:
// minimum-FVS leaders, Δ = DefaultDelta, start at Δ, vertex names as party
// IDs, one chain and one asset per arc.
type Config struct {
	Kind        Kind             // default KindGeneral; KindByLeaders picks from the leader set
	Tag         string           // contract-ID namespace for shared chains
	Leaders     []digraph.Vertex // default: exact-min FVS (greedy when large)
	Delta       vtime.Duration   // default DefaultDelta
	Start       vtime.Ticks      // default: Delta
	Rand        io.Reader        // default: crypto/rand; pass seeded for determinism
	Parties     []chain.PartyID  // default: vertex display names
	Assets      []ArcAsset       // default: chain "chain-aN", asset "asset-aN"
	Broadcast   bool
	AllowUnsafe bool
	DiamBound   int // default: computed from D
	// ChainDeltas carries per-chain effective-Δ overrides into the spec
	// (see Spec.ChainDeltas). Leave nil for the single-Δ model.
	ChainDeltas map[string]vtime.Duration
	// Keyring, when set, supplies persistent party identities to a
	// hashkey swap: a party's key is derived once, the first time such a
	// swap binds the party, and rebound to its vertex. When nil a hashkey setup generates
	// fresh identities from Rand, as a one-shot swap would. Classic-HTLC
	// swaps sign nothing and take no key either way.
	Keyring *Keyring
	// Cache, when set, is shared as the spec's hashkey verification cache;
	// when nil each setup gets its own. A clearing engine passes one cache
	// for all its swaps (entries are content-addressed, so sharing is safe).
	Cache *hashkey.VerifyCache
	// Shapes, when set, lets Clear take the swap's compiled shape from a
	// cache instead of deriving leaders, diameter and timelock ladder
	// afresh (see ShapeCache). Explicit Leaders, an explicit DiamBound or
	// AllowUnsafe compile fresh regardless, and NewSetup — handed a digraph,
	// not an arc list — always does. A cleared spec's D then carries default
	// vertex names; its party IDs are Spec.Parties.
	Shapes *ShapeCache
}

// NewSetup builds and validates a full swap setup over d: it compiles d's
// shape — cfg.Leaders and cfg.DiamBound override what the shape would
// derive — and binds cfg's parties, assets, randomness, tag, Start and Δ
// to it.
func NewSetup(d *digraph.Digraph, cfg Config) (*Setup, error) {
	shape, err := compileShape(d, cfg.Leaders, cfg.DiamBound)
	if err != nil {
		return nil, err
	}
	return new(plan).bind(shape, cfg)
}

// Inline capacities of a plan: a swap of up to planVertices parties,
// planArcs arcs and planLeaders leaders — the rings a clearing service
// mostly sees — binds into its plan's own arrays; a larger one cuts the
// tables it outgrows from the heap.
const (
	planVertices = 4
	planArcs     = 4
	planLeaders  = 1
)

// plan is one bound swap laid out in a single allocation: the Setup, its
// Spec, and the storage of every per-swap table they hold. It lives as
// long as anything holds the Setup, the Spec, or a slice of its tables,
// which is why nothing a chain keeps is cut from it: contracts hold their
// IDs (one string of their own) and, on Swap contracts, the directory
// (allocated beside the plan).
type plan struct {
	setup Setup
	spec  Spec

	parties [planVertices]chain.PartyID
	signers [planVertices]*hashkey.Signer
	// bound holds the keyring identities rebound to their vertexes, by
	// value: signers points here when no presigned table took them.
	bound     [planVertices]hashkey.Signer
	assets    [planArcs]ArcAsset
	ids       [planArcs]chain.ContractID
	timelocks [planArcs][]vtime.Ticks
	ticks     [planArcs * planLeaders]vtime.Ticks
	locks     [planLeaders]hashkey.Lock
	secrets   [planLeaders]hashkey.Secret
}

// cut returns the first n elements of buf when they fit, else a fresh
// slice of n.
func cut[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n:n]
	}
	return make([]T, n)
}

// bind lays cfg's binding over a compiled shape, into p. Everything that is
// per swap happens here: defaults, identities, secrets, the per-binding
// validation; the shape only answers whether it may be cleared.
func (p *plan) bind(shape *Shape, cfg Config) (*Setup, error) {
	d := shape.d
	n, m, nl := d.NumVertices(), d.NumArcs(), len(shape.leaders)
	if cfg.Kind == 0 {
		cfg.Kind = KindGeneral
	}
	if cfg.Delta == 0 {
		cfg.Delta = DefaultDelta
	}
	if cfg.Start == 0 {
		cfg.Start = vtime.Ticks(cfg.Delta)
	}
	if cfg.Rand == nil {
		cfg.Rand = hashkey.CryptoRand()
	}
	leaders := shape.leaders
	if cfg.Kind == KindByLeaders {
		cfg.Kind = shape.kind()
	}

	parties := cfg.Parties
	if parties == nil {
		parties = cut(p.parties[:], n)
		for v := range parties {
			parties[v] = chain.PartyID(d.Name(digraph.Vertex(v)))
		}
	}
	assets := cfg.Assets
	if assets == nil {
		assets = cut(p.assets[:], m)
		for id := range assets {
			assets[id] = ArcAsset{
				Chain:  fmt.Sprintf("chain-a%d", id),
				Asset:  chain.AssetID(fmt.Sprintf("asset-a%d", id)),
				Amount: 1,
			}
		}
	}

	// Only hashkeys are signed: a classic-HTLC swap has no signers and no
	// key directory, so its parties derive no key.
	var signers []*hashkey.Signer
	var keys hashkey.Directory
	if cfg.Kind == KindGeneral {
		signers = cut(p.signers[:], n)
		// Keyed by index: a keyring identity is bound to its vertex only
		// below. Every Swap contract keeps the directory, so it lives
		// beside the plan, not in it: a chain keeps no plan alive.
		keys = make(hashkey.Directory, n)
		for v := range signers {
			var s *hashkey.Signer
			var err error
			if cfg.Keyring != nil {
				// Persistent identity: derived the first time the party
				// signs, never from this setup's Rand. It is bound to its
				// vertex last, once presigning has been decided.
				s, err = cfg.Keyring.Ensure(parties[v])
			} else {
				s, err = hashkey.NewSigner(digraph.Vertex(v), cfg.Rand)
			}
			if err != nil {
				return nil, fmt.Errorf("core: setup: %w", err)
			}
			signers[v] = s
			keys[v] = s.Public()
		}
	}
	secrets, locks := cut(p.secrets[:], nl), cut(p.locks[:], nl)
	for i := range secrets {
		if err := secrets[i].Draw(cfg.Rand); err != nil {
			return nil, fmt.Errorf("core: setup: %w", err)
		}
		locks[i] = secrets[i].Lock()
	}

	cache := cfg.Cache
	if cache == nil {
		cache = hashkey.NewVerifyCache(0)
	}
	p.spec = Spec{
		Kind:         cfg.Kind,
		Tag:          cfg.Tag,
		D:            d,
		Leaders:      leaders,
		Locks:        locks,
		Parties:      parties,
		Keys:         keys,
		Assets:       assets,
		Start:        cfg.Start,
		Delta:        cfg.Delta,
		DiamBound:    shape.diamBound,
		Broadcast:    cfg.Broadcast,
		Cache:        cache,
		shape:        shape,
		arcTimelocks: cut(p.timelocks[:], m),
		tlTicks:      cut(p.ticks[:], len(shape.steps)),
	}
	spec := &p.spec
	if len(cfg.ChainDeltas) > 0 {
		spec.ChainDeltas = make(map[string]vtime.Duration, len(cfg.ChainDeltas))
		for name, d := range cfg.ChainDeltas {
			spec.ChainDeltas[name] = d
		}
	}
	if err := spec.validateBinding(); err != nil {
		return nil, err
	}
	if err := shape.checkDiamBound(spec.DiamBound); err != nil {
		return nil, err
	}
	if !cfg.AllowUnsafe {
		if err := shape.clearable(); err != nil {
			return nil, err
		}
	}
	spec.compileContractIDs(cut(p.ids[:], m))
	// Every signature of a multi-leader swap is fixed once its secrets are
	// drawn, so with a spare core they are computed ahead of need (see
	// hashkey.Presign). The table hangs off the per-vertex bindings in
	// Setup.Signers, never off the public Spec: a party reaches only its
	// own slots.
	presigned := cfg.Kind == KindGeneral && len(leaders) > 0 &&
		hashkey.Presign(signers, leaders, secrets, func(v, leader digraph.Vertex) bool {
			return spec.Broadcast || d.HasArcBetween(v, leader)
		})
	if cfg.Keyring != nil && !presigned {
		bound := cut(p.bound[:], n)
		for v, s := range signers {
			bound[v] = s.At(digraph.Vertex(v))
			signers[v] = &bound[v]
		}
	}
	p.setup = Setup{Spec: spec, Signers: signers, Secrets: secrets}
	return &p.setup, nil
}
