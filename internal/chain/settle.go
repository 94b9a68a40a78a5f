package chain

import (
	"fmt"
	"sort"

	"github.com/go-atomicswap/atomicswap/internal/sched"
	"github.com/go-atomicswap/atomicswap/internal/vtime"
)

// This file is the commitment-model runtime on a Chain: fate tracking
// for applied records, the finalize/revert settlement pass, and the
// re-apply queue. See commitment.go for the model semantics and the
// determinism contract.

// timerScheduler is the slice of sched.Scheduler the commitment pump
// needs; every scheduler implementation satisfies it.
type timerScheduler interface {
	At(t vtime.Ticks, fn func()) sched.Timer
}

// tailScheduler is satisfied by sched.Virtual: commitment events run at
// a tail level above the whole clearing ladder (protocol 0, shard
// clearing 1, escalation sweep 2, coordinator 3), so every finalize and
// revert of a tick sees that tick's fully-cleared state — and they run
// on a single stripe, so the order of downstream event insertions is
// deterministic under striped-parallel dispatch.
type tailScheduler interface {
	AtTailN(t vtime.Ticks, level int8, key uint64, fn func()) sched.Timer
}

// commitLevel is the dispatch-ladder level commitment events run at.
const commitLevel = 4

// revertRecordBytes is the modeled ledger cost of one revert record.
const revertRecordBytes = 8

// SetCommitmentModel installs the chain's commitment model. It must be
// called before the first record is appended. onDue, when non-nil, is
// invoked (outside the chain lock) with every tick at which
// SettleCommitments must run — the registry passes its shared pump
// here. With a nil onDue the chain schedules its own settlement
// callbacks, which requires the chain's clock to be a scheduler.
// Installing Instant (or nil) is a no-op beyond caching the timing:
// the append path keeps its one-nil-check ideal-chain shape.
func (c *Chain) SetCommitmentModel(m CommitmentModel, onDue func(vtime.Ticks)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ledger.n > 0 {
		return fmt.Errorf("chain %s: commitment model must be set before any record", c.name)
	}
	if m == nil {
		return nil
	}
	c.timing = m.Timing()
	if _, ok := m.(Instant); ok {
		return nil
	}
	c.model = m
	c.commits = make(map[ContractID][]commitEntry)
	c.fated = make(map[ContractID]int)
	c.revertible = make(map[ContractID]bool)
	if onDue != nil {
		c.onDue = onDue
		return nil
	}
	s, ok := c.clock.(timerScheduler)
	if !ok {
		c.model = nil
		return fmt.Errorf("chain %s: commitment model %s needs a scheduling clock or an onDue hook",
			c.name, m.Name())
	}
	c.selfPumpAt = make(map[vtime.Ticks]struct{})
	c.onDue = func(t vtime.Ticks) {
		c.selfPumpMu.Lock()
		if _, dup := c.selfPumpAt[t]; dup {
			c.selfPumpMu.Unlock()
			return
		}
		c.selfPumpAt[t] = struct{}{}
		c.selfPumpMu.Unlock()
		s.At(t, func() {
			c.selfPumpMu.Lock()
			delete(c.selfPumpAt, t)
			c.selfPumpMu.Unlock()
			now := c.clock.Now()
			if now < t {
				now = t
			}
			c.SettleCommitments(now)
		})
	}
	return nil
}

// Timing reports the chain's timing parameters (zero for Instant).
func (c *Chain) Timing() Timing { return c.timing }

// CommitmentModelName names the chain's model ("instant" by default).
func (c *Chain) CommitmentModelName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.model == nil {
		return Instant{}.Name()
	}
	return c.model.Name()
}

// PendingCommitments counts applied-but-not-final records (tests).
func (c *Chain) PendingCommitments() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, entries := range c.commits {
		n += len(entries)
	}
	return n
}

// drawFateLocked draws the next fate for a contract's record (or record
// pair — an invocation and the transfer it causes share one fate, so a
// revert can never split a claim from its asset movement). The caller
// must hold c.mu. ok reports whether the record should be tracked.
func (c *Chain) drawFateLocked(id ContractID) (Fate, bool) {
	if c.model == nil || id == "" || !c.revertible[id] {
		return Fate{}, false
	}
	idx := c.fated[id]
	c.fated[id] = idx + 1
	f := c.model.Fate(c.name, id, idx)
	if f.FinalAfter <= 0 {
		return Fate{}, false
	}
	return f, true
}

// trackLocked registers the just-appended record (the ledger's last)
// under fate f and returns true — the caller marks its
// notification Provisional. The caller must hold c.mu.
func (c *Chain) trackLocked(kind NoteKind, id ContractID, u undoEntry, f Fate) bool {
	at := c.ledger.last().At
	e := commitEntry{seq: c.ledger.n - 1, kind: kind, finalAt: at.Add(f.FinalAfter), undo: u}
	if f.RevertAfter > 0 && f.RevertAfter < f.FinalAfter {
		e.revertAt = at.Add(f.RevertAfter)
	}
	c.commits[id] = append(c.commits[id], e)
	c.dueQueue = append(c.dueQueue, e.finalAt)
	if e.revertAt > 0 {
		c.dueQueue = append(c.dueQueue, e.revertAt)
	}
	return true
}

// flushDue hands queued settlement ticks to the onDue hook, outside the
// chain lock (the hook inserts scheduler events; holding c.mu across a
// foreign lock is asking for an ordering bug).
func (c *Chain) flushDue() {
	c.mu.Lock()
	if len(c.dueQueue) == 0 {
		c.mu.Unlock()
		return
	}
	due := c.dueQueue
	c.dueQueue = nil
	onDue := c.onDue
	c.mu.Unlock()
	if onDue == nil {
		return
	}
	for _, t := range due {
		onDue(t)
	}
}

// SettleCommitments runs the settlement pass for every commitment due
// at or before now: reverts first (rolling back each fated contract's
// non-final suffix, appending NoteReverted records, queueing
// re-applies), then finalizations (emitting NoteFinalized for
// transfers), then due re-applies through the normal public paths.
// Safe to call at any time; a chain with nothing due does nothing.
func (c *Chain) SettleCommitments(now vtime.Ticks) {
	c.mu.Lock()
	if c.model == nil || (len(c.commits) == 0 && len(c.replays) == 0) {
		c.mu.Unlock()
		return
	}
	notes := c.settleLocked(now)
	var replays []replayOp
	rest := c.replays[:0]
	for _, op := range c.replays {
		if op.at <= now {
			replays = append(replays, op)
		} else {
			rest = append(rest, op)
		}
	}
	c.replays = rest
	c.mu.Unlock()
	c.flushDue()
	c.emit(notes...)
	for _, op := range replays {
		c.reapply(op)
	}
}

// settleLocked processes due reverts and finalizations. Contracts are
// visited in sorted ID order — never map order — so the emitted
// notification sequence is replay-stable. The caller must hold c.mu.
func (c *Chain) settleLocked(now vtime.Ticks) []Notification {
	ids := make([]ContractID, 0, len(c.commits))
	for id := range c.commits {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var notes []Notification
	for _, id := range ids {
		entries := c.commits[id]
		// The earliest due revert takes the contract's whole non-final
		// suffix with it (finality is monotone per contract, so the
		// entries above the fated one are exactly the revertable ones).
		cut := -1
		for i, e := range entries {
			if e.revertAt > 0 && e.revertAt <= now {
				cut = i
				break
			}
		}
		if cut >= 0 {
			suffix := entries[cut:]
			for i := len(suffix) - 1; i >= 0; i-- {
				c.undoLocked(id, suffix[i])
			}
			for i := range suffix {
				e := suffix[i]
				n := c.appendLocked(NoteReverted, id, e.undo.sender, revertRecordBytes,
					notePlain, fmt.Sprintf("revert %s seq %d", e.kind, e.seq), "", nil)
				n.Reverted = e.kind
				notes = append(notes, n)
				switch e.kind {
				case NoteContractPublished:
					c.replays = append(c.replays, replayOp{
						at: now.Add(1), kind: e.kind, sender: e.undo.sender,
						id: id, contract: e.undo.contract,
					})
				case NoteInvocation:
					c.replays = append(c.replays, replayOp{
						at: now.Add(1), kind: e.kind, sender: e.undo.sender,
						id: id, method: e.undo.method, args: e.undo.args, argsSize: e.undo.argsSize,
					})
				}
			}
			entries = entries[:cut]
			c.dueQueue = append(c.dueQueue, now.Add(1))
		}
		keep := 0
		for _, e := range entries {
			if e.finalAt <= now {
				if e.kind == NoteTransfer {
					notes = append(notes, Notification{
						Chain:    c.name,
						At:       now,
						Kind:     NoteFinalized,
						Contract: id,
						Sender:   e.undo.sender,
					})
				}
				continue
			}
			entries[keep] = e
			keep++
		}
		entries = entries[:keep]
		if len(entries) == 0 {
			delete(c.commits, id)
		} else {
			c.commits[id] = entries
		}
	}
	return notes
}

// undoLocked rolls one record's state effects back. Undos run
// newest-first, so an invocation's snapshot restore always finds its
// contract still published. The caller must hold c.mu.
func (c *Chain) undoLocked(id ContractID, e commitEntry) {
	switch e.kind {
	case NoteContractPublished:
		delete(c.contracts, id)
		c.setOwnerLocked(e.undo.asset, e.undo.prevOwner)
	case NoteInvocation:
		if rc, ok := c.contracts[id].contract.(RevertibleContract); ok {
			rc.StateRestore(e.undo.snapshot)
		}
	case NoteTransfer:
		c.setOwnerLocked(e.undo.asset, e.undo.prevOwner)
		if ce, ok := c.contracts[id]; ok {
			ce.closed = false
			c.contracts[id] = ce
		}
	}
}

// reapply re-runs one reverted operation through the normal public
// paths — fresh records, fresh fates — the way a mempool re-includes a
// transaction a reorg dropped. Failures are dropped silently: the
// post-reorg chain may have legitimately invalidated the operation
// (a refund raced in while the claim was off the chain, say), and a
// dropped transaction is exactly what happens to it in the real system.
func (c *Chain) reapply(op replayOp) {
	switch op.kind {
	case NoteContractPublished:
		_ = c.PublishContract(op.sender, op.contract)
	case NoteInvocation:
		_ = c.Invoke(op.sender, op.id, op.method, op.args, op.argsSize)
	}
}
