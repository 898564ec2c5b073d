// Package chord holds the identifier geometry of a Chord-style
// consistent-hashing ring (Stoica et al., SIGCOMM 2001), the decentralized
// peer-discovery substrate the paper names as an alternative to a
// centralized directory (Section 4.2, footnote 4: "by querying a
// centralized directory server as in Napster, or by using a distributed
// lookup service such as Chord").
//
// Peers own positions on a 64-bit identifier circle; a key is owned by its
// successor (the first peer clockwise from the key's hash). The package
// holds only that geometry — the hash, virtual positions, finger targets
// and the circular-interval tests — shared by the wire-level ring
// (internal/chordnet, which routes over finger tables and counts hops),
// the sharded directory's ring and the simulator, whose Chord source takes
// the owner of a random key from a sorted slab of positions.
package chord

// FingerBits is the identifier size in bits; a peer keeps one finger per
// bit. Exported so wire-level ring implementations (internal/chordnet)
// share the identifier space and finger geometry.
const FingerBits = 64

// FingerTarget returns the ring position peer id's j-th finger points at:
// id + 2^j, wrapping mod 2^64.
func FingerTarget(id uint64, j int) uint64 { return id + 1<<uint(j) }

// HashKey maps a string key onto the identifier circle: HashBytes of its
// bytes.
func HashKey(key string) uint64 { return HashBytes([]byte(key)) }

// HashBytes maps a byte key onto the identifier circle without allocating.
// FNV-1a alone clusters similar keys ("peer-1", "peer-2", ...) on a tiny
// arc, so a splitmix64-style avalanche finalizer scatters the positions;
// deployed Chord uses SHA-1 for the same reason.
func HashBytes(key []byte) uint64 {
	z := uint64(14695981039346656037) // FNV-1a offset basis
	for _, b := range key {
		z ^= uint64(b)
		z *= 1099511628211 // FNV-1a prime
	}
	return avalanche(z)
}

// avalanche is the splitmix64 finalizer.
func avalanche(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// VirtualPosition maps virtual node i of the named peer onto the
// identifier circle. Index 0 is the peer's ring position itself
// (VirtualPosition(name, 0) == HashKey(name)), so a peer's first virtual
// position always coincides with the arc it owns topologically; higher
// indices scatter deterministically across the circle via the same
// splitmix64 avalanche HashKey uses, which is what flattens per-peer
// sampling arcs when a member claims several positions.
func VirtualPosition(name string, i int) uint64 {
	z := HashKey(name)
	if i == 0 {
		return z
	}
	// One golden-ratio stride per index, then the avalanche finalizer:
	// positions of the same peer land independently, not on a tight arc.
	return avalanche(z + uint64(i)*0x9e3779b97f4a7c15)
}

// InHalfOpen reports whether x lies in the circular interval (lo, hi] —
// the ownership test: key k is owned by the first peer s with
// InHalfOpen(k, pred.ID, s.ID). Exported as a routing hook for wire-level
// ring implementations.
func InHalfOpen(x, lo, hi uint64) bool {
	if lo < hi {
		return x > lo && x <= hi
	}
	return x > lo || x <= hi // wrapped (also covers lo == hi: whole circle)
}

// InOpen reports whether x lies in the circular interval (lo, hi) — the
// finger-selection test. Exported as a routing hook for wire-level ring
// implementations.
func InOpen(x, lo, hi uint64) bool {
	if lo < hi {
		return x > lo && x < hi
	}
	return x > lo || x < hi
}
