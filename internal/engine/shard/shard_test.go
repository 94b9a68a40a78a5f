package shard

import (
	"context"
	"testing"

	"github.com/go-atomicswap/atomicswap/internal/engine"
)

// TestNewIsShardedEngine: New builds an engine of the given shard count,
// and ShardedEngine is a type of its own — an engine from engine.New does
// not assert to it, which is how a caller holding either tells a New-built
// engine apart.
func TestNewIsShardedEngine(t *testing.T) {
	s := New(Config{Shards: 4, Engine: engine.Config{Deterministic: true}})
	defer s.Stop(context.Background())
	if s.Shards() != 4 || s.Coordinator() == nil {
		t.Fatalf("New: %d shards, coordinator %v; want 4 and one", s.Shards(), s.Coordinator() != nil)
	}
	plain := engine.New(engine.Config{Deterministic: true})
	defer plain.Stop(context.Background())
	var x any = plain
	if _, ok := x.(*ShardedEngine); ok {
		t.Fatal("an engine.New engine asserts to *ShardedEngine")
	}
}
