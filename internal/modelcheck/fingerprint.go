package modelcheck

// FP is an incrementally-built 64-bit FNV-1a fingerprint. Systems
// implementing Fingerprinter chain the methods over their state fields,
// avoiding the allocation of a canonical Key string:
//
//	h := modelcheck.NewFP().String(node).Int(cost)
//	return uint64(h)
type FP uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewFP returns the FNV-1a offset basis.
func NewFP() FP { return fnvOffset }

// Uint64 mixes a 64-bit value (little-endian byte order).
func (f FP) Uint64(v uint64) FP {
	for i := 0; i < 8; i++ {
		f = (f ^ FP(v&0xff)) * fnvPrime
		v >>= 8
	}
	return f
}

// Int mixes a signed value.
func (f FP) Int(v int64) FP { return f.Uint64(uint64(v)) }

// String mixes the string's length and then its bytes; the length prefix
// keeps adjacent fields from aliasing ("ab"+"c" vs "a"+"bc").
func (f FP) String(s string) FP {
	f = f.Uint64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f = (f ^ FP(s[i])) * fnvPrime
	}
	return f
}

// Mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads entropy across all 64 bits. The search core applies it to every
// fingerprint before sharding; systems combining per-element hashes
// commutatively (multiset states) should finalize each element with it
// before summing.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprintOf hashes a state: the Fingerprinter fast path when the
// system provides one, FNV-1a over Key() otherwise. The result is
// finalized so shard selection sees well-mixed low bits either way.
func fingerprintOf(s State) uint64 {
	if f, ok := s.(Fingerprinter); ok {
		return Mix64(f.Fingerprint())
	}
	return Mix64(uint64(NewFP().String(s.Key())))
}
