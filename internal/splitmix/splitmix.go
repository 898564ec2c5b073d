// Package splitmix is the repository's one-word seeded generator:
// splitmix64. math/rand's generator carries a ~5 KB table and a 607-word
// seeding loop per instance — far too heavy to embed in every one of a
// hundred thousand connections, or to seed once per node of a crowd —
// while splitmix64 is a single word with solid statistical quality.
package splitmix

// Rand is one splitmix64 stream; the value is the stream's state, so
// Rand(seed) seeds it and the zero value is a valid stream. Not safe for
// concurrent use.
type Rand uint64

// Uint64 returns the stream's next 64 bits.
func (r *Rand) Uint64() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Int63n returns a uniform int in [0, n), 0 when n <= 0. The modulo bias
// is ~n/2^64 — irrelevant for delay sampling.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}
