package value

// Fingerprint hashing for values and tuples: a splitmix64-mixed stream
// hash, the same construction the model checker uses for state dedup.
// Distinct values collide with probability ~2^-64. Every use is an
// unverified fingerprint, like a model-checker state fingerprint: table
// digests and per-tuple fingerprint sets for anti-entropy repair, and
// derivation-frame dedup in incremental maintenance. Index probes do not
// hash through it; they look up string-encoded keys (V.AppendKey).

// HashSeed is the canonical initial hash state.
const HashSeed uint64 = 0x9e3779b97f4a7c15

const fnvPrime = 0x100000001b3

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Hash64 folds v into the running hash h. Values that compare Equal hash
// identically; the kind and, for strings, the length are folded in so
// that e.g. Int(1) and Str("1") or adjacent list elements cannot alias.
func (v V) Hash64(h uint64) uint64 {
	h = mix64(h ^ uint64(v.K))
	switch v.K {
	case KindInt, KindBool:
		h = mix64(h ^ uint64(v.I))
	case KindStr, KindAddr:
		h ^= uint64(len(v.S))
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime
		}
		h = mix64(h)
	case KindList:
		h = mix64(h ^ uint64(len(v.L)))
		for _, e := range v.L {
			h = e.Hash64(h)
		}
	}
	return h
}

// Hash64 folds every element of t into the running hash h.
func (t Tuple) Hash64(h uint64) uint64 {
	for _, v := range t {
		h = v.Hash64(h)
	}
	return h
}
