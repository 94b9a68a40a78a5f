package core

// Stream domains: one per kind of seeded draw, so two users that name the
// same thing (a party, a swap tag) under one seed never share a stream.
const (
	// DomainIdentity derives a party's signing key (name: the party).
	DomainIdentity = "identity"
	// DomainSecrets derives a swap's leader secrets (name: the swap tag).
	DomainSecrets = "secrets"
	// DomainAdversary derives a swap's AdversaryRate draw (name: the swap
	// tag).
	DomainAdversary = "adversary"
	// DomainBehaviors derives a swap's deviation and coalition draws
	// (name: the swap tag).
	DomainBehaviors = "behaviors"
)

// Stream is a splitmix64 stream: a byte source for secrets and keys, and a
// math/rand Source64 for draws. Unlike rand.NewSource, whose generator
// seeds 607 words, it is one word, so a stream per swap or per party costs
// nothing to build.
type Stream struct {
	state uint64
}

// Derive returns the stream of (domain, name) under seed. It is a pure
// function of its three arguments: a party's key or a swap's draws do not
// depend on what else a run derives, in what order, or on which shard.
func Derive(seed int64, domain, name string) Stream {
	// FNV-1a over domain, a separator and name, then two splitmix rounds
	// that mix it with the seed.
	h := uint64(14695981039346656037)
	for i := range len(domain) {
		h = (h ^ uint64(domain[i])) * 1099511628211
	}
	h = (h ^ 0xff) * 1099511628211
	for i := range len(name) {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return Stream{state: mix64(uint64(seed) ^ mix64(h))}
}

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 bits of the stream.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Int63 implements rand.Source.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source: it restarts the stream at seed.
func (s *Stream) Seed(seed int64) { s.state = uint64(seed) }

// Float64 returns a uniform draw in [0, 1).
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Read fills p from the stream, eight bytes a word, little end first; it
// never fails.
func (s *Stream) Read(p []byte) (int, error) {
	for i := 0; i < len(p); i += 8 {
		z := s.Uint64()
		for j := i; j < i+8 && j < len(p); j++ {
			p[j] = byte(z)
			z >>= 8
		}
	}
	return len(p), nil
}
