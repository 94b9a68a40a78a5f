// Package shard is what remains of the sharded deployment's own type: a
// sharded engine is an engine.Engine built with Config.Shards > 1. The
// package keeps the constructor and type the benchmark harness still names.
package shard

import "github.com/go-atomicswap/atomicswap/internal/engine"

// Config parameterizes a sharded engine: Engine with Shards shards.
type Config struct {
	Shards int
	Engine engine.Config
}

// ShardedEngine is an engine built by New. It is a defined type, not an
// alias, so that asserting it tells a New-built engine from any other.
type ShardedEngine struct{ *engine.Engine }

// New builds an engine of cfg.Shards shards over cfg.Engine.
func New(cfg Config) *ShardedEngine {
	cfg.Engine.Shards = cfg.Shards
	return &ShardedEngine{engine.New(cfg.Engine)}
}
