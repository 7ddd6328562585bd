package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Canonical hashing: the serving layer content-addresses simulation
// results by a hash of everything that determines them. Config is a tree
// of value-typed structs (no maps, pointers or interfaces), so
// encoding/json emits fields in declaration order and the encoding is
// already canonical: equal configs encode to equal bytes.

// CanonicalJSON returns the deterministic JSON encoding of the config.
// The encoding round-trips: unmarshalling it yields an identical Config.
func (c Config) CanonicalJSON() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Config holds only JSON-encodable value types; Marshal cannot fail.
		panic(fmt.Sprintf("config: canonical encoding failed: %v", err))
	}
	return b
}

// Hash returns the hex SHA-256 of the canonical JSON encoding — the
// config's contribution to a content-addressed result-cache key. Two
// configs hash equal iff they describe the same machine.
func (c Config) Hash() string {
	sum := sha256.Sum256(c.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}
