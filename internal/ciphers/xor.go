package ciphers

// XOR is the trivial repeating-key XOR cipher used as SecComm's second
// privacy micro-protocol ("a trivial XOR with a key", paper section 4.2).
// It is symmetric: applying it twice with the same key restores the
// input.
type XOR struct {
	key []byte
}

// NewXOR builds the cipher; an empty key makes it the identity.
func NewXOR(key []byte) *XOR {
	return &XOR{key: append([]byte(nil), key...)}
}

// Apply XORs msg with the repeating key into a fresh slice.
func (x *XOR) Apply(msg []byte) []byte {
	out := make([]byte, len(msg))
	copy(out, msg)
	x.ApplyInPlace(out)
	return out
}

// ApplyInPlace XORs msg with the repeating key in place, one key-length
// stride at a time.
func (x *XOR) ApplyInPlace(msg []byte) {
	k := x.key
	if len(k) == 0 {
		return
	}
	for len(msg) >= len(k) {
		m := msg[:len(k)]
		for i, b := range k {
			m[i] ^= b
		}
		msg = msg[len(k):]
	}
	for i := range msg {
		msg[i] ^= k[i]
	}
}
