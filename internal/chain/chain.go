// Package chain implements the blockchain substrate the swap protocol runs
// on: append-only, hash-chained ledgers that track asset ownership, host
// smart contracts, escrow contract assets, and notify observers of state
// changes.
//
// The paper's analysis is independent of any particular blockchain
// algorithm; all it requires is a publicly readable, tamper-proof ledger
// where publishing a contract (or changing its state) plus the
// counterparty's confirmation takes at most Δ. This package provides
// exactly that abstraction, instrumented so experiments can measure the
// bytes stored on every chain (Theorem 4.10) and the bytes moved by
// contract calls (the communication-complexity claim).
package chain

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// PartyID identifies a protocol participant across all chains.
type PartyID string

// AssetID identifies an asset within its chain.
type AssetID string

// ContractID identifies a published contract within its chain.
type ContractID string

// OwnerKind distinguishes party ownership from contract escrow.
type OwnerKind int

// Owner kinds.
const (
	// OwnerParty marks an asset held directly by a party.
	OwnerParty OwnerKind = iota + 1
	// OwnerEscrow marks an asset held by a published contract.
	OwnerEscrow
)

// Owner is the current holder of an asset: a party, or a contract holding
// it in escrow.
type Owner struct {
	Kind     OwnerKind
	Party    PartyID    // set when Kind == OwnerParty
	Contract ContractID // set when Kind == OwnerEscrow
}

// ByParty returns a party owner.
func ByParty(p PartyID) Owner { return Owner{Kind: OwnerParty, Party: p} }

// ByEscrow returns a contract-escrow owner.
func ByEscrow(c ContractID) Owner { return Owner{Kind: OwnerEscrow, Contract: c} }

// String renders the owner for traces.
func (o Owner) String() string {
	switch o.Kind {
	case OwnerParty:
		return "party:" + string(o.Party)
	case OwnerEscrow:
		return "escrow:" + string(o.Contract)
	default:
		return "owner(unset)"
	}
}

// Asset is a unit of value registered on a chain — a lump of coins, a car
// title. Arcs of the swap digraph each transfer one asset whole.
type Asset struct {
	ID          AssetID
	Description string
	Amount      uint64
}

// Call is a contract invocation as the hosting chain presents it to the
// contract: the chain, not the caller, supplies the timestamp. Args may
// point into a buffer the caller reuses once Invoke returns (see
// ReusedArgs): a contract copies whatever it keeps.
type Call struct {
	Method   string
	Sender   PartyID
	Now      vtime.Ticks
	Args     any
	ArgsSize int // bytes charged to on-chain storage for this call's payload
}

// Result is what a successful contract invocation tells the chain to do.
type Result struct {
	// Transfer, when its Kind is set, moves the escrowed asset to this
	// owner and closes the contract; the zero Owner moves nothing.
	Transfer Owner
	// Note is recorded on the ledger and shown in traces. The ledger keeps
	// the string itself, so a contract may hand out one it owns and never
	// writes again.
	Note string
	// Event is an opaque payload delivered to observers (for example the
	// hashkey that unlocked a hashlock, which is how secrets propagate).
	Event any
}

// ReusedArgs is implemented by call arguments that point into a buffer
// the caller reuses once Invoke returns. A chain that keeps a call to
// re-apply it after a revert keeps Own's value instead, so its undo log
// never sees the buffer again.
type ReusedArgs interface {
	// Own returns the arguments as a value that shares nothing the
	// caller reuses.
	Own() any
}

// Contract is code hosted on a chain. Implementations must be
// deterministic: all state transitions flow through Invoke with
// chain-supplied timestamps.
type Contract interface {
	// ContractID returns the chain-unique contract identifier.
	ContractID() ContractID
	// Party returns the asset owner who published the contract.
	Party() PartyID
	// AssetID returns the asset the contract escrows.
	AssetID() AssetID
	// StorageSize returns the bytes this contract occupies on-chain.
	StorageSize() int
	// Invoke applies one call and reports what the chain should do.
	// Returning an error reverts the call: nothing is recorded.
	Invoke(call Call) (Result, error)
}

// NoteKind classifies ledger records and observer notifications.
type NoteKind int

// Notification kinds.
const (
	// NoteAssetRegistered records an asset coming into existence.
	NoteAssetRegistered NoteKind = iota + 1
	// NoteContractPublished records a contract (and its escrow) appearing.
	NoteContractPublished
	// NoteInvocation records a successful contract call.
	NoteInvocation
	// NoteTransfer records the escrowed asset changing owner (claim or
	// refund); it accompanies the NoteInvocation that caused it.
	NoteTransfer
	// NoteData records a bare data publication (market-clearing plans,
	// the Phase Two broadcast optimization).
	NoteData
	// NoteReverted records a commitment-model revert: an applied but
	// not-yet-final record was rolled back (see CommitmentModel). The
	// ledger stays append-only — the revert is itself a record.
	NoteReverted
	// NoteFinalized is a notification-only kind (never a ledger record):
	// a previously provisional transfer reached its chain's confirmation
	// depth and is now final.
	NoteFinalized
)

var noteNames = map[NoteKind]string{
	NoteAssetRegistered:   "asset-registered",
	NoteContractPublished: "contract-published",
	NoteInvocation:        "invocation",
	NoteTransfer:          "transfer",
	NoteData:              "data",
	NoteReverted:          "reverted",
	NoteFinalized:         "finalized",
}

// String returns the note-kind name.
func (k NoteKind) String() string {
	if s, ok := noteNames[k]; ok {
		return s
	}
	return fmt.Sprintf("note(%d)", int(k))
}

// Notification is delivered to chain observers on every recorded state
// change. Observers see it after the runner's modeled latency, never
// before the change is on the ledger.
type Notification struct {
	Chain    string
	At       vtime.Ticks
	Kind     NoteKind
	Contract ContractID
	// Method is the invoked method of a NoteInvocation, empty otherwise.
	Method string
	Sender PartyID
	Event  any
	// Note is the note of a NoteInvocation (the contract's, which the
	// ledger records as "method: note") or of a data or revert record.
	// Records the chain spells from their parts — a mint, an escrow, a
	// transfer — carry none: Records reads them.
	Note string
	// Provisional marks a record that is applied but not yet final under
	// the chain's commitment model: it may still be reverted. Instant
	// chains never set it, so the zero value preserves the ideal-chain
	// reading of every pre-model notification.
	Provisional bool
	// Reverted, on a NoteReverted notification, is the kind of the
	// record that was rolled back.
	Reverted NoteKind
}

// Record is one entry of the append-only ledger. Records are hash-chained:
// each record's hash covers its content and the previous hash, which is
// what makes the ledger tamper-evident.
type Record struct {
	Seq      int
	At       vtime.Ticks
	Kind     NoteKind
	Contract ContractID
	Sender   PartyID
	Size     int
	Note     string
	PrevHash [32]byte
	Hash     [32]byte
}

// Errors returned by chain operations.
var (
	ErrUnknownAsset     = errors.New("chain: unknown asset")
	ErrDuplicateAsset   = errors.New("chain: asset already registered")
	ErrNotOwner         = errors.New("chain: sender does not own the asset")
	ErrDuplicateID      = errors.New("chain: contract ID already in use")
	ErrUnknownContract  = errors.New("chain: unknown contract")
	ErrContractClosed   = errors.New("chain: contract already settled")
	ErrContractAssetGap = errors.New("chain: contract references an unregistered asset")
)

// Chain is one mock blockchain. Create with New. Chain is safe for
// concurrent use; under the discrete-event runner all access is
// single-threaded anyway.
type Chain struct {
	name  string
	clock vtime.Clock

	mu sync.Mutex
	// assets holds every registered asset with its current owner, and
	// contracts every published contract with whether it has settled: one
	// map per kind, so a record is one entry and a change of owner or
	// state writes it back whole.
	assets    map[AssetID]assetEntry
	contracts map[ContractID]contractEntry
	ledger    ledger
	storage   int
	observers map[string]func(Notification)
	// obsKeys mirrors the observer map's keys in sorted order, maintained
	// incrementally: a (un)subscribe does one binary search plus a memmove
	// instead of re-sorting the whole key set — which matters when many
	// concurrent runs churn subscriptions on a shared chain.
	obsKeys []string
	// obsList is the key-sorted immutable snapshot of observers, rebuilt
	// on (un)subscribe and published atomically, so the per-notification
	// fanout neither sorts, copies the subscriber map, nor touches c.mu
	// at all.
	obsList atomic.Pointer[[]func(Notification)]
	// routes delivers notifications carrying a contract ID to the one
	// observer registered for that exact contract — O(1) per record where
	// the broadcast obsList is O(subscribers). Shared-chain runtimes route
	// everything this way: a contract belongs to exactly one swap, so
	// fanning its records out to every live swap (each discarding the note
	// after a map probe) was the dominant shared-registry cost under load.
	// Guarded by its own RWMutex rather than c.mu or copy-on-write: emit
	// reads must not contend with ledger writes, and subscription churn
	// (two route edits per arc) must not copy the table.
	routesMu sync.RWMutex
	routes   map[ContractID]NoteObserver

	// Commitment-model state (nil/empty on Instant chains — the default
	// — so the ideal-chain hot path pays one nil check per append).
	// model draws each record's fate; timing caches model.Timing();
	// onDue asks the owner (registry pump or self-scheduler) to call
	// SettleCommitments at a tick. commits holds each contract's
	// non-final record suffix, fated counts per-contract fate indices,
	// revertible caches which contracts can be rolled back, replays is
	// the re-apply queue (reverted operations re-entering at their
	// scheduled tick, like transactions re-mined after a reorg), and
	// dueQueue carries ticks to hand to onDue once c.mu is released.
	model      CommitmentModel
	timing     Timing
	onDue      func(vtime.Ticks)
	commits    map[ContractID][]commitEntry
	fated      map[ContractID]int
	revertible map[ContractID]bool
	replays    []replayOp
	dueQueue   []vtime.Ticks
	selfPumpMu sync.Mutex
	selfPumpAt map[vtime.Ticks]struct{}
}

// assetEntry is an asset as a chain stores it: the asset and its owner.
type assetEntry struct {
	asset Asset
	owner Owner
}

// contractEntry is a contract as a chain stores it: the contract, and
// whether a claim or refund has closed it.
type contractEntry struct {
	contract Contract
	closed   bool
}

// setOwnerLocked moves a registered asset to owner o. The caller must hold
// c.mu.
func (c *Chain) setOwnerLocked(id AssetID, o Owner) {
	if a, ok := c.assets[id]; ok {
		a.owner = o
		c.assets[id] = a
	}
}

// commitEntry is one applied-but-not-final record awaiting its fate.
type commitEntry struct {
	seq      int
	kind     NoteKind
	finalAt  vtime.Ticks
	revertAt vtime.Ticks // 0 = no revert scheduled
	undo     undoEntry
}

// undoEntry is everything needed to roll one record back and, for
// publish/invocation records, to re-apply it after the revert.
type undoEntry struct {
	contract  Contract // publish: the contract object (for re-apply)
	snapshot  any      // invocation: pre-call contract state
	asset     AssetID  // publish/transfer: escrow to unwind
	prevOwner Owner    // publish/transfer: owner to restore
	sender    PartyID
	method    string // invocation re-apply
	args      any
	argsSize  int
}

// replayOp is one reverted operation queued for re-application — the
// mempool re-including a transaction the reorg dropped.
type replayOp struct {
	at       vtime.Ticks
	kind     NoteKind
	sender   PartyID
	id       ContractID
	contract Contract
	method   string
	args     any
	argsSize int
}

// New creates an empty chain with the given name, reading timestamps from
// clock.
func New(name string, clock vtime.Clock) *Chain {
	return &Chain{
		name:      name,
		clock:     clock,
		assets:    make(map[AssetID]assetEntry),
		contracts: make(map[ContractID]contractEntry),
		observers: make(map[string]func(Notification)),
	}
}

// Name returns the chain name.
func (c *Chain) Name() string { return c.name }

// Subscribe registers (or replaces) an observer under the given key.
// Many subscribers can watch one chain — this is what lets concurrent
// swap runtimes share chains, each filtering for its own contracts.
func (c *Chain) Subscribe(key string, fn func(Notification)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fn == nil {
		c.dropKeyLocked(key)
		delete(c.observers, key)
	} else {
		if _, ok := c.observers[key]; !ok {
			at := sort.SearchStrings(c.obsKeys, key)
			c.obsKeys = append(c.obsKeys, "")
			copy(c.obsKeys[at+1:], c.obsKeys[at:])
			c.obsKeys[at] = key
		}
		c.observers[key] = fn
	}
	c.rebuildObsLocked()
}

// Unsubscribe removes the observer registered under key, if any.
func (c *Chain) Unsubscribe(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropKeyLocked(key)
	delete(c.observers, key)
	c.rebuildObsLocked()
}

// dropKeyLocked removes key from the sorted key mirror if present. The
// caller must hold c.mu.
func (c *Chain) dropKeyLocked(key string) {
	if _, ok := c.observers[key]; !ok {
		return
	}
	at := sort.SearchStrings(c.obsKeys, key)
	c.obsKeys = append(c.obsKeys[:at], c.obsKeys[at+1:]...)
}

// rebuildObsLocked regenerates the observer snapshot from the sorted key
// mirror. Keys stay sorted for deterministic delivery under the
// discrete-event runtime. The caller must hold c.mu.
func (c *Chain) rebuildObsLocked() {
	list := make([]func(Notification), len(c.obsKeys))
	for i, k := range c.obsKeys {
		list[i] = c.observers[k]
	}
	c.obsList.Store(&list)
}

// NoteObserver receives the notifications routed to it. A runtime hands
// the chain a pointer to storage it already owns (its per-arc record), so
// a route costs no closure and the observer knows which arc it serves.
type NoteObserver interface {
	OnNote(n Notification)
}

// SubscribeContract routes every notification carrying exactly this
// contract ID (publication, invocations, the settling transfer, reverts)
// to obs, replacing a previous route for the ID. Unlike Subscribe,
// delivery costs O(1) per record regardless of how many contracts — or
// broadcast subscribers — share the chain; it is the fanout shape for
// per-swap runtimes, where each contract concerns exactly one of them.
func (c *Chain) SubscribeContract(id ContractID, obs NoteObserver) {
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	if c.routes == nil {
		c.routes = make(map[ContractID]NoteObserver)
	}
	c.routes[id] = obs
}

// UnsubscribeContract removes the contract's route if it still leads to
// obs (a later subscriber's route is left alone).
func (c *Chain) UnsubscribeContract(id ContractID, obs NoteObserver) {
	c.routesMu.Lock()
	defer c.routesMu.Unlock()
	if c.routes[id] == obs {
		delete(c.routes, id)
	}
}

// route returns the observer routed for a contract, or nil. The callback
// must be invoked after routesMu is released: observers may re-enter the
// chain.
func (c *Chain) route(id ContractID) NoteObserver {
	if id == "" {
		return nil
	}
	c.routesMu.RLock()
	defer c.routesMu.RUnlock()
	return c.routes[id]
}

// RegisterAsset mints an asset owned by the given party.
func (c *Chain) RegisterAsset(a Asset, owner PartyID) error {
	c.mu.Lock()
	if _, ok := c.assets[a.ID]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateAsset, a.ID)
	}
	c.assets[a.ID] = assetEntry{asset: a, owner: ByParty(owner)}
	n := c.appendLocked(NoteAssetRegistered, "", owner, len(a.ID)+len(a.Description)+8,
		noteAsset, string(a.ID), string(owner), nil)
	c.mu.Unlock()
	c.emit(n)
	return nil
}

// Asset returns a registered asset.
func (c *Chain) Asset(id AssetID) (Asset, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.assets[id]
	return a.asset, ok
}

// OwnerOf returns the current owner of an asset.
func (c *Chain) OwnerOf(id AssetID) (Owner, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.assets[id]
	return a.owner, ok
}

// PublishContract publishes a contract: the sender must own the contract's
// asset, which moves into escrow under the contract. The contract's
// storage size is charged to the chain.
func (c *Chain) PublishContract(sender PartyID, contract Contract) error {
	c.mu.Lock()
	id := contract.ContractID()
	if _, ok := c.contracts[id]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	assetID := contract.AssetID()
	a, ok := c.assets[assetID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrContractAssetGap, assetID)
	}
	owner := a.owner
	if owner.Kind != OwnerParty || owner.Party != sender {
		c.mu.Unlock()
		return fmt.Errorf("%w: asset %s owned by %s, publish attempted by %s",
			ErrNotOwner, assetID, owner, sender)
	}
	if contract.Party() != sender {
		c.mu.Unlock()
		return fmt.Errorf("%w: contract names party %s, published by %s",
			ErrNotOwner, contract.Party(), sender)
	}
	if c.model != nil {
		_, rev := contract.(RevertibleContract)
		c.revertible[id] = rev
	}
	c.contracts[id] = contractEntry{contract: contract}
	a.owner = ByEscrow(id)
	c.assets[assetID] = a
	n := c.appendLocked(NoteContractPublished, id, sender, contract.StorageSize(),
		noteEscrow, string(assetID), "", contract)
	if f, fated := c.drawFateLocked(id); fated {
		n.Provisional = c.trackLocked(NoteContractPublished, id, undoEntry{
			contract:  contract,
			asset:     assetID,
			prevOwner: ByParty(sender),
			sender:    sender,
		}, f)
	}
	c.mu.Unlock()
	c.flushDue()
	c.emit(n)
	return nil
}

// Contract returns a published contract.
func (c *Chain) Contract(id ContractID) (Contract, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct, ok := c.contracts[id]
	return ct.contract, ok
}

// Closed reports whether a contract has settled (claimed or refunded).
func (c *Chain) Closed(id ContractID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.contracts[id].closed
}

// Invoke calls a contract method. Errors from the contract revert the
// call: nothing is recorded or charged and no notification is sent.
func (c *Chain) Invoke(sender PartyID, id ContractID, method string, args any, argsSize int) error {
	c.mu.Lock()
	ce, ok := c.contracts[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownContract, id)
	}
	contract := ce.contract
	if ce.closed {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrContractClosed, id)
	}
	// A fated invocation and the transfer it causes share one fate (drawn
	// before the call so the pre-call state can be snapshotted): a revert
	// can never split a claim from its asset movement.
	var fate Fate
	var fated bool
	var snap any
	if fate, fated = c.drawFateLocked(id); fated {
		snap = contract.(RevertibleContract).StateSnapshot()
	}
	res, err := contract.Invoke(Call{
		Method:   method,
		Sender:   sender,
		Now:      c.clock.Now(),
		Args:     args,
		ArgsSize: argsSize,
	})
	if err != nil {
		if fated {
			c.fated[id]-- // nothing recorded: give the fate index back
		}
		c.mu.Unlock()
		return fmt.Errorf("chain %s: %s.%s: %w", c.name, id, method, err)
	}
	// Stack-backed buffer: an invocation produces at most two
	// notifications, so the fanout allocates nothing per call.
	var notesBuf [2]Notification
	ni := c.appendLocked(NoteInvocation, id, sender, argsSize, noteMethod, res.Note, method, res.Event)
	if fated {
		if ra, ok := args.(ReusedArgs); ok {
			args = ra.Own()
		}
		ni.Provisional = c.trackLocked(NoteInvocation, id, undoEntry{
			snapshot: snap,
			sender:   sender,
			method:   method,
			args:     args,
			argsSize: argsSize,
		}, fate)
	}
	notes := append(notesBuf[:0], ni)
	if res.Transfer.Kind != 0 {
		assetID := contract.AssetID()
		a := c.assets[assetID]
		prevOwner := a.owner
		a.owner = res.Transfer
		c.assets[assetID] = a
		ce.closed = true
		c.contracts[id] = ce
		form, to := ownerNote(res.Transfer)
		nt := c.appendLocked(NoteTransfer, id, sender, 0, form, string(assetID), to, nil)
		if fated {
			nt.Provisional = c.trackLocked(NoteTransfer, id, undoEntry{
				asset:     assetID,
				prevOwner: prevOwner,
				sender:    sender,
			}, fate)
		}
		notes = append(notes, nt)
	}
	c.mu.Unlock()
	c.flushDue()
	c.emit(notes...)
	return nil
}

// Transfer moves an asset the sender owns directly to another party — an
// ordinary unconditional payment, used by the non-atomic baseline
// protocols. Escrowed assets cannot be transferred directly.
func (c *Chain) Transfer(sender PartyID, asset AssetID, to PartyID) error {
	c.mu.Lock()
	a, ok := c.assets[asset]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownAsset, asset)
	}
	owner := a.owner
	if owner.Kind != OwnerParty || owner.Party != sender {
		c.mu.Unlock()
		return fmt.Errorf("%w: asset %s owned by %s, transfer attempted by %s",
			ErrNotOwner, asset, owner, sender)
	}
	a.owner = ByParty(to)
	c.assets[asset] = a
	n := c.appendLocked(NoteTransfer, "", sender, transferRecordBytes,
		noteAsset, string(asset), string(to), nil)
	c.mu.Unlock()
	c.emit(n)
	return nil
}

// transferRecordBytes is the modeled ledger cost of a plain transfer.
const transferRecordBytes = 16

// PublishData appends a bare data record (no contract), e.g. a clearing
// plan or a broadcast secret.
func (c *Chain) PublishData(sender PartyID, note string, payload any, size int) {
	c.mu.Lock()
	n := c.appendLocked(NoteData, "", sender, size, notePlain, note, "", payload)
	c.mu.Unlock()
	c.emit(n)
}

// emit delivers notifications to every observer outside the chain lock, so
// observers may freely read chain state. The snapshot slice is immutable
// (rebuilt wholesale on subscription changes) and published atomically, so
// the fanout takes no lock: a notify under heavy multi-swap load never
// contends with ledger writes or other emitters.
func (c *Chain) emit(notes ...Notification) {
	observers := c.obsList.Load()
	for _, n := range notes {
		if observers != nil {
			for _, fn := range *observers {
				fn(n)
			}
		}
		if obs := c.route(n.Contract); obs != nil {
			obs.OnNote(n)
		}
	}
}

// appendLocked adds a hash-chained record and returns the notification to
// emit once the lock is released. The caller must hold c.mu. The record's
// note is given as its form and parts (see noteForm), strings that already
// exist — an invocation's method beside the contract's note, a transfer's
// asset and recipient — so no string is built per record: the note is
// spelled from the parts wherever it is read or hashed.
func (c *Chain) appendLocked(kind NoteKind, id ContractID, sender PartyID, size int, form noteForm, note, part string, event any) Notification {
	var prev [32]byte
	if last := c.ledger.last(); last != nil {
		prev = last.Hash
	}
	e := entry{At: c.clock.Now(), Contract: id, Sender: sender, note: note, part: part,
		Size: int32(size), Kind: uint8(kind), form: form}
	e.Hash = e.hash(c.ledger.n, prev)
	c.ledger.append(e)
	c.storage += size
	n := Notification{
		Chain:    c.name,
		At:       e.At,
		Kind:     kind,
		Contract: id,
		Sender:   sender,
		Event:    event,
	}
	switch form {
	case noteMethod:
		n.Method, n.Note = part, note
	case notePlain:
		n.Note = note
	}
	return n
}

// noteForm says how an entry spells its note from its two parts, note and
// part. The layouts are the fmt ones the ledger was first written with,
// byte for byte: the record hash covers them.
type noteForm uint8

const (
	notePlain       noteForm = iota // note
	noteMethod                      // part ": " note — an invocation
	noteAsset                       // "asset " note " -> " part — a mint or a plain transfer
	noteAssetParty                  // "asset " note " -> party:" part — a claim or refund
	noteAssetEscrow                 // "asset " note " -> escrow:" part
	noteEscrow                      // "escrow " note — a publication
)

// ownerNote is the form and part of a transfer to o: with the asset as
// note, "asset %s -> %s" over o.String().
func ownerNote(o Owner) (noteForm, string) {
	switch o.Kind {
	case OwnerParty:
		return noteAssetParty, string(o.Party)
	case OwnerEscrow:
		return noteAssetEscrow, string(o.Contract)
	}
	return noteAsset, o.String()
}

// appendNote appends e's note, spelled from its parts, to buf.
func (e *entry) appendNote(buf []byte) []byte {
	switch e.form {
	case noteMethod:
		buf = append(append(buf, e.part...), ": "...)
	case noteAsset, noteAssetParty, noteAssetEscrow:
		buf = append(append(append(buf, "asset "...), e.note...), " -> "...)
		switch e.form {
		case noteAssetParty:
			buf = append(buf, "party:"...)
		case noteAssetEscrow:
			buf = append(buf, "escrow:"...)
		}
		return append(buf, e.part...)
	case noteEscrow:
		buf = append(buf, "escrow "...)
	}
	return append(buf, e.note...)
}

// hash is the record hash of e at position seq after a record whose hash
// is prev: a hand-rolled encoding of the byte stream
//
//	prevHash || "%d|%d|%d|%s|%s|%d|%s" (Seq, At, Kind, Contract, Sender, Size, Note)
//
// — it must stay byte-identical to that fmt layout or every persisted
// ledger hash breaks. One buffer + Sum256 keeps this off the allocator
// and fmt's reflection path; it runs once per ledger record.
func (e *entry) hash(seq int, prev [32]byte) [32]byte {
	var scratch [192]byte
	buf := append(scratch[:0], prev[:]...)
	buf = strconv.AppendInt(buf, int64(seq), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(e.At), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(e.Kind), 10)
	buf = append(buf, '|')
	buf = append(buf, e.Contract...)
	buf = append(buf, '|')
	buf = append(buf, e.Sender...)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(e.Size), 10)
	buf = append(buf, '|')
	buf = e.appendNote(buf)
	return sha256.Sum256(buf)
}

// Records returns a copy of the ledger.
func (c *Chain) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, c.ledger.n)
	var prev [32]byte
	for _, chunk := range c.ledger.chunks {
		for i := range chunk {
			out = append(out, chunk[i].record(len(out), prev))
			prev = chunk[i].Hash
		}
	}
	return out
}

// VerifyLedger recomputes the hash chain and reports whether it is intact.
func (c *Chain) VerifyLedger() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	var prev [32]byte
	seq := 0
	for _, chunk := range c.ledger.chunks {
		for i := range chunk {
			e := &chunk[i]
			if e.hash(seq, prev) != e.Hash {
				return false
			}
			prev = e.Hash
			seq++
		}
	}
	return true
}

// ledgerChunk is the number of records one ledger chunk holds.
const ledgerChunk = 256

// entry is a ledger record as stored. Its Seq is its position and its
// PrevHash the entry before it's Hash, so neither is kept, and its note is
// kept as a form and two parts (see noteForm): 112 bytes where a Record
// takes 144, and a K4 swap appends 84 of them.
type entry struct {
	At       vtime.Ticks
	Contract ContractID
	Sender   PartyID
	note     string
	part     string
	Size     int32
	Kind     uint8 // a NoteKind
	form     noteForm
	Hash     [32]byte
}

// record is the entry as the Record at position seq, after a record
// whose hash is prev.
func (e *entry) record(seq int, prev [32]byte) Record {
	note := e.note
	if e.form != notePlain {
		note = string(e.appendNote(nil))
	}
	return Record{
		Seq: seq, At: e.At, Kind: NoteKind(e.Kind), Contract: e.Contract, Sender: e.Sender,
		Size: int(e.Size), Note: note, PrevHash: prev, Hash: e.Hash,
	}
}

// ledger is the append-only record store: full chunks of ledgerChunk
// entries and a last one still filling. One append-grown slice would, past
// 256 elements, grow by a quarter each time — about five times the final
// bytes allocated, zeroed, copied and rescanned over a busy chain's life —
// where a chunk is allocated once and never moves. The first chunk grows
// by append, so a chain that only ever sees a handful of records (a
// standalone run's one chain per arc) never pays for a whole chunk.
type ledger struct {
	chunks [][]entry
	n      int
}

func (l *ledger) append(e entry) {
	k := len(l.chunks) - 1
	switch {
	case k < 0:
		l.chunks = append(l.chunks, []entry{e})
	case len(l.chunks[k]) == ledgerChunk:
		l.chunks = append(l.chunks, append(make([]entry, 0, ledgerChunk), e))
	default:
		l.chunks[k] = append(l.chunks[k], e)
	}
	l.n++
}

// last returns the newest entry, or nil for an empty ledger.
func (l *ledger) last() *entry {
	if l.n == 0 {
		return nil
	}
	chunk := l.chunks[len(l.chunks)-1]
	return &chunk[len(chunk)-1]
}

// StorageBytes returns the total bytes charged to this chain.
func (c *Chain) StorageBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storage
}

// Snapshot returns the current asset-ownership map, for conservation
// checks in tests.
func (c *Chain) Snapshot() map[AssetID]Owner {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[AssetID]Owner, len(c.assets))
	for k, a := range c.assets {
		out[k] = a.owner
	}
	return out
}
